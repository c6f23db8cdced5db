"""SNMP agent model.

JAMM network sensors "perform SNMP queries to a network device,
typically a router or switch" (§2.2), and host sensors "may be layered
on top of SNMP-based tools, and therefore run remotely from the host
being monitored".  In §6 switch/router SNMP error counters were used to
rule the network out as the source of retransmissions.

We model a tiny SNMPv2c-ish agent: a MIB is a flat dict of OID-like
dotted names to values, refreshed from the underlying
:class:`~repro.simgrid.network.NetNode` interface counters on each
query.  Queries issued through :class:`SNMPManager` cost one
request/response round trip over the control-plane transport when a
transport is supplied, or are answered locally (zero cost) for
in-process polling in unit tests.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .kernel import EventFlag, Simulator
from .network import NetNode

__all__ = ["SNMPAgent", "SNMPManager", "OID"]


class OID:
    """Well-known OID names used by the sensors."""

    IF_IN_OCTETS = "ifInOctets"
    IF_OUT_OCTETS = "ifOutOctets"
    IF_IN_UCAST = "ifInUcastPkts"
    IF_OUT_UCAST = "ifOutUcastPkts"
    IF_IN_ERRORS = "ifInErrors"
    IF_CRC_ERRORS = "ifCrcErrors"
    IF_IN_DISCARDS = "ifInDiscards"
    SYS_UPTIME = "sysUpTime"
    SYS_NAME = "sysName"


class SNMPAgent:
    """The agent side: owns a MIB for one network device (or host)."""

    def __init__(self, sim: Simulator, node: NetNode, *, community: str = "public"):
        self.sim = sim
        self.node = node
        self.community = community
        self._started = sim.now
        self._extra: dict[str, Callable[[], Any]] = {}

    def register_variable(self, oid: str, supplier: Callable[[], Any]) -> None:
        """Expose an extra MIB variable computed on demand."""
        self._extra[oid] = supplier

    def get(self, oid: str, *, community: str = "public") -> Any:
        if community != self.community:
            raise PermissionError(f"bad community string for {self.node.name}")
        if oid == OID.SYS_UPTIME:
            return self.sim.now - self._started
        if oid == OID.SYS_NAME:
            return self.node.name
        totals = self.node.totals().as_dict()
        if oid in totals:
            return totals[oid]
        if oid in self._extra:
            return self._extra[oid]()
        raise KeyError(f"no such OID {oid!r} on {self.node.name}")

    def walk(self, *, community: str = "public") -> dict:
        """All counters at once (like an snmpwalk of the interfaces table)."""
        if community != self.community:
            raise PermissionError(f"bad community string for {self.node.name}")
        out = dict(self.node.totals().as_dict())
        out[OID.SYS_UPTIME] = self.sim.now - self._started
        out[OID.SYS_NAME] = self.node.name
        for oid, supplier in self._extra.items():
            out[oid] = supplier()
        return out

    def interface_walk(self, link_name: str, *,
                       community: str = "public") -> dict:
        """Counters for ONE interface (by link name), plus the queue
        observables a real device's per-port MIB would carry: outbound
        queue backlog/drops toward the far end and the line-rate
        utilization over the accounting window.  This is what a path
        monitor polls to localize congestion to a specific link
        (aggregate :meth:`walk` totals can't tell which port hurts)."""
        if community != self.community:
            raise PermissionError(f"bad community string for {self.node.name}")
        for link in self.node.links:
            if link.name == link_name:
                break
        else:
            raise KeyError(
                f"no interface {link_name!r} on {self.node.name}")
        out = dict(self.node.interface(link).as_dict())
        far = link.other(self.node)
        now = self.sim.now
        out["ifSpeed"] = link.bandwidth_bps
        out["ifOutQBacklogS"] = link.queue_backlog_s(far, now)
        out["ifOutQDrops"] = link.toward(far).drops
        out["ifOutUtilization"] = link.utilization(far, now)
        return out


class SNMPManager:
    """The manager side: query agents, optionally over the network.

    ``agents`` maps device names to :class:`SNMPAgent`.  When a
    transport and source host are given, each query is charged one
    control-plane round trip to the device's nearest host proxy; we
    approximate by charging a fixed latency derived from the route when
    the device is reachable, since network devices don't run our
    message stack.
    """

    SNMP_PORT = 161

    def __init__(self, sim: Simulator, *, transport=None):
        self.sim = sim
        self.transport = transport
        self._agents: dict[str, SNMPAgent] = {}
        self.queries = 0

    def register(self, agent: SNMPAgent) -> None:
        self._agents[agent.node.name] = agent

    def agent(self, device: str) -> Optional[SNMPAgent]:
        return self._agents.get(device)

    def get(self, device: str, oid: str, *, community: str = "public") -> Any:
        self.queries += 1
        agent = self._agents.get(device)
        if agent is None:
            raise KeyError(f"unknown SNMP device {device!r}")
        return agent.get(oid, community=community)

    def walk(self, device: str, *, community: str = "public") -> dict:
        self.queries += 1
        agent = self._agents.get(device)
        if agent is None:
            raise KeyError(f"unknown SNMP device {device!r}")
        return agent.walk(community=community)

    def interface_walk(self, device: str, link_name: str, *,
                       community: str = "public") -> dict:
        """Per-interface walk (see :meth:`SNMPAgent.interface_walk`)."""
        self.queries += 1
        agent = self._agents.get(device)
        if agent is None:
            raise KeyError(f"unknown SNMP device {device!r}")
        return agent.interface_walk(link_name, community=community)

    def get_async(self, device: str, oid: str, *, community: str = "public",
                  rtt: float = 2e-3) -> EventFlag:
        """Network-shaped query: result arrives after ``rtt`` seconds."""
        flag = EventFlag(self.sim, name=f"snmp:{device}:{oid}")

        def respond() -> None:
            try:
                flag.trigger(self.get(device, oid, community=community))
            except Exception as exc:  # propagate errors through the flag
                flag.trigger(exc)

        self.sim.call_in(rtt, respond)
        return flag
