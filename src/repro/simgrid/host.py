"""Simulated Grid hosts.

A :class:`Host` bundles the per-machine state the JAMM sensors observe:
CPU and memory models, a process table, a system clock, a NIC model
(receive-packet budget — the mechanism behind the paper's §6 receiver
bottleneck), and a :class:`PortTable` tracking per-port traffic, which
is what the port monitor agent (§2.2) watches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from .clocks import HostClock
from .kernel import Simulator
from .network import NetNode, Network, NoRouteError
from .processes import ProcessTable
from .resources import CPUModel, MemoryModel

__all__ = ["Host", "PortTable", "PortActivity", "NICModel", "TokenBucket"]


@dataclass(slots=True)
class PortActivity:
    """Traffic accounting for one TCP/UDP port on one host."""

    port: int
    bytes_in: int = 0
    bytes_out: int = 0
    packets_in: int = 0
    packets_out: int = 0
    last_activity: float = float("-inf")
    active_connections: int = 0

    @property
    def total_bytes(self) -> int:
        return self.bytes_in + self.bytes_out


class PortTable:
    """Per-port traffic counters + listener bindings for one host.

    The port monitor agent samples :meth:`activity` to decide whether an
    application is using a well-known port, and triggers sensors when it
    is (paper §2.2: "monitors traffic on specified ports, and starts
    sensors only when network traffic on that port is detected").
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._activity: dict[int, PortActivity] = {}
        self._listeners: dict[int, Callable] = {}

    # -- listeners ----------------------------------------------------------

    def bind(self, port: int, handler: Callable) -> None:
        if port in self._listeners:
            raise OSError(f"port {port} already bound")
        self._listeners[port] = handler

    def unbind(self, port: int) -> None:
        self._listeners.pop(port, None)

    def listener(self, port: int) -> Optional[Callable]:
        return self._listeners.get(port)

    def bound_ports(self) -> list[int]:
        return sorted(self._listeners)

    # -- accounting ---------------------------------------------------------

    def activity(self, port: int) -> PortActivity:
        act = self._activity.get(port)
        if act is None:
            act = PortActivity(port=port)
            self._activity[port] = act
        return act

    def connection_opened(self, port: int) -> None:
        self.activity(port).active_connections += 1
        self.activity(port).last_activity = self.sim.now

    def connection_closed(self, port: int) -> None:
        act = self.activity(port)
        act.active_connections = max(0, act.active_connections - 1)
        act.last_activity = self.sim.now

    def idle_for(self, port: int) -> float:
        """Seconds since the last traffic on ``port`` (inf if never)."""
        act = self._activity.get(port)
        if act is None or act.last_activity == float("-inf"):
            return float("inf")
        return self.sim.now - act.last_activity

    def ports_with_traffic(self) -> list[int]:
        return sorted(p for p, a in self._activity.items() if a.total_bytes > 0)


class TokenBucket:
    """A byte-rate limiter shared by the flows crossing a resource."""

    def __init__(self, sim: Simulator, rate_bps: float, *, burst_s: float = 0.1):
        self.sim = sim
        self.rate_bps = rate_bps
        self.capacity = rate_bps * burst_s / 8.0  # bytes
        self._tokens = self.capacity
        self._last = sim.now

    def _refill(self) -> None:
        now = self.sim.now
        dt = now - self._last
        if dt > 0:
            self._tokens = min(self.capacity, self._tokens + dt * self.rate_bps / 8.0)
            self._last = now

    def grant(self, nbytes: float) -> float:
        """Take up to ``nbytes`` of tokens; returns the amount granted."""
        self._refill()
        granted = min(nbytes, self._tokens)
        self._tokens -= granted
        return granted


class NICModel:
    """Receive-side NIC / driver model for one host.

    Two properties drive the paper's §6 anomaly:

    * ``rx_bucket`` — a :class:`TokenBucket` at the end-host's
      sustainable receive rate (``rx_bandwidth_bps``: memory-copy /
      stack bound; ~200 Mbit/s on the paper's hosts — both LAN
      measurements hit this ceiling).  Every TCP round draws its bytes
      from it; its ``rate_bps`` is the one record of that rate.
    * ``multi_socket_loss`` — per-packet drop probability added per
      *additional* concurrently-receiving socket, modelling the gigabit
      card/driver load the authors blame ("we believe it has something
      to do with the amount of load the gigabit ethernet card and
      device driver place on the system").  With one socket arrivals
      are ack-clocked and coalesce well (no drops); with four sockets
      interleaved bursts exhaust descriptors and drop.  The *drop rate*
      is RTT-independent, but AIMD recovery time is proportional to
      RTT — which is exactly why the anomaly "is only observed with
      wide-area transfers".

    ``per_socket_cpu_factor`` scales the per-packet CPU (system-time)
    cost with the number of active sockets, reproducing the high
    ``VMSTAT_SYS_TIME`` on the receiving host in Fig. 7.
    """

    def __init__(self, host: "Host", *, rx_bandwidth_bps: float = 200e6,
                 multi_socket_loss: float = 4.0e-4,
                 per_socket_cpu_factor: float = 2.0,
                 pps_budget: float = 60000.0):
        self.host = host
        self.rx_bucket = TokenBucket(host.sim, rx_bandwidth_bps)
        self.multi_socket_loss = multi_socket_loss
        self.per_socket_cpu_factor = per_socket_cpu_factor
        self.pps_budget = pps_budget
        # insertion-ordered dict-as-set: refresh_rx_rate sums the flows'
        # rates (floats), and set order would make the sums — and thus
        # packet timings — depend on object addresses
        self._active_rx_flows: dict[Any, None] = {}
        self._cpu_token: Optional[int] = None

    # -- flow registry ------------------------------------------------------

    def register_rx_flow(self, flow: Any) -> None:
        self._active_rx_flows[flow] = None

    def unregister_rx_flow(self, flow: Any) -> None:
        """Drop ``flow``; the caller re-sums with :meth:`refresh_rx_rate`."""
        self._active_rx_flows.pop(flow, None)

    @property
    def active_rx_sockets(self) -> int:
        return len(self._active_rx_flows)

    def rx_loss_probability(self) -> float:
        """Per-packet receive drop probability given current socket count."""
        n = self.active_rx_sockets
        if n <= 1:
            return 0.0
        return min(0.5, self.multi_socket_loss * (n - 1))

    # -- CPU coupling -------------------------------------------------------

    def refresh_rx_rate(self) -> None:
        """Re-sum the receiving flows' packet rates (each flow's
        ``nic_rate``) into :meth:`set_rx_rate`."""
        self.set_rx_rate(sum(f.nic_rate for f in self._active_rx_flows))

    def set_rx_rate(self, pps: float) -> None:
        """Report the current aggregate receive packet rate; converts it
        into a *system* CPU demand on the host."""
        n = max(1, self.active_rx_sockets)
        per_packet_cost = (1.0 + self.per_socket_cpu_factor * (n - 1)) / self.pps_budget
        sys_demand = min(float(self.host.cpu.ncpus), pps * per_packet_cost)
        if self._cpu_token is None:
            if sys_demand > 0:
                self._cpu_token = self.host.cpu.add_load(0.0, sys_demand)
        else:
            self.host.cpu.update_load(self._cpu_token, 0.0, sys_demand)


class Host:
    """A simulated Grid host."""

    def __init__(self, sim: Simulator, name: str, network: Network, *,
                 ncpus: int = 2, memory_kb: int = 1024 * 1024,
                 clock_offset: float = 0.0, clock_drift: float = 0.0,
                 rx_bandwidth_bps: float = 200e6,
                 attach_to: Optional[NetNode] = None):
        self.sim = sim
        self.name = name
        self.network = network
        #: False while the host is crashed: the transport drops traffic
        #: to/from down hosts, and services get on_host_down/on_host_up
        self.up = True
        #: times the host has been crashed / restarted (fault layer)
        self.crashes = 0
        self.restarts = 0
        self.node = attach_to if attach_to is not None else network.node(name)
        self.cpu = CPUModel(sim, ncpus=ncpus)
        self.memory = MemoryModel(total_kb=memory_kb)
        self.clock = HostClock(sim, offset=clock_offset, drift=clock_drift)
        self.processes = ProcessTable(sim, host=self)
        self.ports = PortTable(sim)
        self.nic = NICModel(self, rx_bandwidth_bps=rx_bandwidth_bps)
        #: arbitrary per-host services (sensor manager, gateway, ...) by name
        self.services: dict[str, Any] = {}
        #: host-level TCP stack counters sampled by netstat-style sensors
        self.tcp_counters: dict[str, int] = {"retransmits": 0,
                                             "window_changes": 0,
                                             "congestion_drops": 0}
        #: synthetic block-I/O counters bumped by apps, for iostat sensors
        self.io_counters: dict[str, int] = {"reads": 0, "writes": 0,
                                            "read_bytes": 0, "write_bytes": 0}

    def timestamp(self) -> float:
        """Wall-clock timestamp as this host perceives it."""
        return self.clock.time()

    def register_service(self, name: str, service: Any) -> None:
        self.services[name] = service

    def service(self, name: str) -> Any:
        return self.services.get(name)

    def can_reach(self, other: "Host") -> bool:
        """Can this host reach ``other`` right now: both ends up and a
        route over live links between them (the partition model)."""
        if not self.up or not other.up:
            return False
        try:
            self.network.route(self.node, other.node)
        except NoRouteError:
            return False
        return True

    # -- fault lifecycle ------------------------------------------------------

    def crash(self) -> None:
        """Take the host down (fault injection).

        Services registered on the host are notified through their
        ``on_host_down`` hook in registration order (deterministic).
        Until :meth:`restart`, the transport refuses new sends to/from
        the host and drops in-flight messages *to* it; messages already
        on the wire *from* it still arrive (a crash can't recall
        packets).  Idempotent.
        """
        if not self.up:
            return
        self.up = False
        self.crashes += 1
        for service in list(self.services.values()):
            hook = getattr(service, "on_host_down", None)
            if hook is not None:
                hook()

    def restart(self) -> None:
        """Bring a crashed host back; services get ``on_host_up``."""
        if self.up:
            return
        self.up = True
        self.restarts += 1
        for service in list(self.services.values()):
            hook = getattr(service, "on_host_up", None)
            if hook is not None:
                hook()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Host {self.name!r}>"
