"""GridWorld: one-stop container for a simulated Grid.

Bundles the simulator, network, control-plane transport, RNG streams,
hosts, SNMP, and NTP infrastructure so higher layers (JAMM, the apps,
the benchmarks) build scenarios in a few lines::

    world = GridWorld(seed=7)
    a = world.add_host("dpss1.lbl.gov")
    b = world.add_host("mems.cairn.net")
    world.lan([a], switch="lbl-sw")
    ...
    world.run(until=60)
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .clocks import NTPDaemon, NTPServer
from .host import Host
from .kernel import Simulator
from .network import Link, NetNode, Network, SwitchNode
from .randomness import RandomStreams
from .snmp import SNMPAgent, SNMPManager
from .sockets import MessageTransport
from .tcp import TCPFlow

__all__ = ["GridWorld"]

#: sensible defaults for late-1990s hardware in the paper's testbed
GIGE_BPS = 1000e6
LAN_LATENCY = 0.1e-3     # one-way, host<->switch
OC12_BPS = 622e6
OC48_BPS = 2400e6


class GridWorld:
    """A simulated Grid: hosts + topology + shared infrastructure."""

    def __init__(self, *, seed: int = 0, strict: bool = True,
                 sanitize: Optional[bool] = None):
        self.sim = Simulator(strict=strict, sanitize=sanitize)
        self.network = Network()
        self.rng = RandomStreams(seed)
        self.transport = MessageTransport(self.sim, self.network,
                                          rng=self.rng.stream("transport"))
        self.snmp = SNMPManager(self.sim, transport=self.transport)
        self.hosts: dict[str, Host] = {}
        self.ntp_server: Optional[NTPServer] = None
        self.ntp_daemons: dict[str, NTPDaemon] = {}
        #: named archives (e.g. a scenario's commit log) registered so
        #: fault plans can target them by name (``disk_full``)
        self.archives: dict[str, object] = {}
        #: background-traffic generators started via :meth:`start_traffic`
        self.traffic: list = []

    # -- hosts & topology ---------------------------------------------------

    def add_host(self, name: str, **kwargs) -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host {name!r}")
        host = Host(self.sim, name, self.network, **kwargs)
        self.hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        return self.hosts[name]

    def lan(self, hosts: Sequence[Host], *, switch: str,
            bandwidth_bps: float = GIGE_BPS,
            latency_s: float = LAN_LATENCY) -> SwitchNode:
        """Attach hosts to a common switch (a 1000BT-style site LAN)."""
        sw = self.network.switch(switch)
        for host in hosts:
            self.network.link(host.node, sw, bandwidth_bps=bandwidth_bps,
                              latency_s=latency_s)
        self._register_snmp(sw)
        return sw

    def wan_path(self, a: NetNode | str, b: NetNode | str, *,
                 routers: Iterable[str],
                 bandwidth_bps: float = OC12_BPS,
                 latency_s: float = 10e-3,
                 loss_rate: float = 0.0) -> list[Link]:
        """Join two attachment points through a chain of routers.

        ``latency_s`` is the one-way latency of *each* segment, so a
        2-router path with 10 ms segments gives a 60 ms RTT.
        """
        chain: list[NetNode] = [self.network.node(a) if isinstance(a, str) else a]
        for r in routers:
            router = self.network.router(r)
            self._register_snmp(router)
            chain.append(router)
        chain.append(self.network.node(b) if isinstance(b, str) else b)
        links = []
        for x, y in zip(chain[:-1], chain[1:]):
            links.append(self.network.link(x, y, bandwidth_bps=bandwidth_bps,
                                           latency_s=latency_s,
                                           loss_rate=loss_rate))
        return links

    def _register_snmp(self, node: NetNode) -> None:
        if self.snmp.agent(node.name) is None:
            self.snmp.register(SNMPAgent(self.sim, node))

    # -- time infrastructure --------------------------------------------------

    def install_ntp(self, *, server_name: str = "ntp.lbl.gov",
                    hops: Optional[dict[str, int]] = None,
                    poll_interval: float = 16.0) -> NTPServer:
        """Give every host an NTP daemon; ``hops`` maps host name to the
        router-hop count to the time source (default: derived from the
        routing table when a node named ``server_name`` exists, else 0)."""
        self.ntp_server = NTPServer(self.sim, name=server_name)
        for name, host in self.hosts.items():
            if hops is not None:
                nhops = hops.get(name, 0)
            else:
                nhops = self._hops_to(name, server_name)
            daemon = NTPDaemon(self.sim, host.clock, self.ntp_server,
                               hops=nhops, poll_interval=poll_interval,
                               rng=self.rng.stream(f"ntp:{name}"))
            daemon.start()
            self.ntp_daemons[name] = daemon
        return self.ntp_server

    def _hops_to(self, host_name: str, server_name: str) -> int:
        if self.network.get(server_name) is None:
            return 0
        try:
            path = self.network.route(host_name, server_name)
        except Exception:
            return 0
        return path.router_hops

    # -- traffic ----------------------------------------------------------------

    def tcp_flow(self, src: Host | str, dst: Host | str, *, dst_port: int,
                 rng_name: Optional[str] = None, **kwargs) -> TCPFlow:
        src_host = self.hosts[src] if isinstance(src, str) else src
        dst_host = self.hosts[dst] if isinstance(dst, str) else dst
        rng = self.rng.stream(rng_name or f"tcp:{src_host.name}->{dst_host.name}:{dst_port}")
        flow = TCPFlow(self.sim, self.network, src_host, dst_host,
                       dst_port=dst_port, rng=rng, **kwargs)
        # auto-attach any running tcpdump-style sensors on either endpoint
        for endpoint in (src_host, dst_host):
            watcher = endpoint.service("tcpdump")
            if watcher is not None:
                watcher.attach(flow)
        return flow

    def start_traffic(self, spec) -> "TrafficGenerator":
        """Start a background-traffic generator from a
        :class:`~repro.simgrid.traffic.TrafficSpec` (or a dict of its
        fields).  The generator is tracked on :attr:`traffic`."""
        from .traffic import TrafficGenerator, TrafficSpec
        if isinstance(spec, dict):
            spec = TrafficSpec.from_dict(spec)
        gen = TrafficGenerator(self, spec).start()
        self.traffic.append(gen)
        return gen

    def stop_traffic(self, gen=None) -> None:
        """Stop one tracked background-traffic generator — every one
        when called bare."""
        for g in list(self.traffic) if gen is None else [gen]:
            g.stop()
            if g in self.traffic:
                self.traffic.remove(g)

    # -- archives ----------------------------------------------------------------

    def register_archive(self, archive, *, name: Optional[str] = None) -> None:
        """Make an :class:`~repro.core.archive.EventArchive` targetable
        by fault plans (``disk_full``) under ``name``."""
        key = name or getattr(archive, "name", None)
        if not key:
            raise ValueError("archive needs a name to be registered")
        self.archives[key] = archive

    # -- fault injection ---------------------------------------------------------

    def inject(self, plan) -> "FaultInjector":
        """Arm a :class:`~repro.simgrid.faults.FaultPlan` against this
        world; every event is validated and kernel-scheduled now."""
        from .faults import FaultInjector
        injector = FaultInjector(self, plan)
        injector.arm()
        return injector

    # -- execution ----------------------------------------------------------------

    def run(self, until: Optional[float] = None, **kwargs) -> float:
        return self.sim.run(until=until, **kwargs)

    def sanitize_check(self, *, raise_on_violation: bool = True) -> list[str]:
        """Teardown sanitizer checks (see :meth:`Simulator.sanitize_check`)."""
        return self.sim.sanitize_check(raise_on_violation=raise_on_violation)

    def sanitizer_stats(self) -> dict:
        return self.sim.sanitizer_stats()

    @property
    def now(self) -> float:
        return self.sim.now
