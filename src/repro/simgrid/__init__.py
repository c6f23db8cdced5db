"""simgrid — the simulated Grid substrate.

A deterministic discrete-event simulation of the environment JAMM
monitors: hosts (CPU, memory, processes, clocks, NICs, ports), a
routed network with SNMP-instrumented devices, a congestion-controlled
TCP model, a control-plane message transport, an HTTP document server,
and an RMI-like activatable remote-object layer.

Entry point for most users: :class:`repro.simgrid.world.GridWorld`.
"""

from .clocks import HostClock, NTPDaemon, NTPServer
from .faults import (FAULT_KINDS, FaultError, FaultEvent, FaultInjector,
                     FaultPlan)
from .host import Host, NICModel, PortActivity, PortTable, TokenBucket
from .httpd import HTTPClient, HTTPError, HTTPServer
from .kernel import (AllOf, EventFlag, Process, ScheduledCall,
                     SimulationError, Simulator, Timeout)
from .network import (InterfaceCounters, Link, NetNode, Network, NoRouteError,
                      Path, RouterNode, SwitchNode)
from .processes import OSProcess, ProcessTable, ProcState
from .randomness import RandomStreams
from .resources import CPUModel, CPUSample, MemoryModel, MemorySample
from .rmi import (RMI_PORT, ActivationSpec, RemoteRef, RMIDaemon, RMIError,
                  exported_methods)
from .snmp import OID, SNMPAgent, SNMPManager
from .sockets import DeliveryError, Message, MessageTransport
from .tcp import TCPFlow, TCPStats, poisson_draw
from .world import GridWorld

__all__ = [
    "AllOf", "ActivationSpec", "CPUModel", "CPUSample", "DeliveryError",
    "EventFlag", "FAULT_KINDS", "FaultError", "FaultEvent", "FaultInjector",
    "FaultPlan", "GridWorld", "Host", "HostClock", "HTTPClient",
    "HTTPError", "HTTPServer", "InterfaceCounters", "Link", "Message",
    "MessageTransport", "MemoryModel", "MemorySample", "NetNode", "Network",
    "NICModel", "NoRouteError", "NTPDaemon", "NTPServer", "OID",
    "OSProcess", "Path", "PortActivity", "PortTable", "Process",
    "ProcessTable", "ProcState", "RandomStreams", "RemoteRef", "RMIDaemon",
    "RMIError", "RMI_PORT", "RouterNode", "ScheduledCall",
    "SimulationError", "Simulator", "SNMPAgent", "SNMPManager",
    "SwitchNode", "TCPFlow", "TCPStats", "Timeout", "TokenBucket",
    "exported_methods", "poisson_draw",
]
