"""Closed-loop congestion detect-and-adapt scenario (paper §7).

The §7 loop, end to end: a congestion storm (injected background
traffic) saturates the shared WAN bottleneck; the monitoring path sees
it — the port monitor notices storm bytes on the sink port and starts
its on-demand netstat sensor, while a :class:`PathMonitor` polls the
bottleneck router's per-interface SNMP queue observables — the
published path summary degrades; and the network-aware client re-sizes
its TCP buffer from that summary, recovering most of the bandwidth the
storm left on the table while the default-64KB arm crawls.

Everything is deterministic in ``seed``; the storm arrives and leaves
through the fault plan (``congestion_storm`` / ``calm_traffic``), so
the scenario also demonstrates the always-recovering guarantee: after
``calm_traffic`` the published summary climbs back toward line rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..apps.netaware import NetworkAwareClient, PathMonitor
from ..core import JAMMDeployment
from ..core.config import JAMMConfig
from ..simgrid import FaultPlan, GridWorld
from ..simgrid.traffic import TRAFFIC_PORT

__all__ = ["NetAwareResult", "run_netaware_scenario"]

#: scenario timeline (seconds of virtual time)
T_STORM = 5.0      # congestion storm begins
T_MEASURE = 12.0   # monitor has converged; transfer arms start
T_CALM = 40.0      # calm_traffic fault ends the storm
T_END = 45.0       # recovery sample recorded


@dataclass
class NetAwareResult:
    """Everything the closed loop observed, calm -> storm -> recovery."""

    seed: int
    #: available-bandwidth estimates published before / during / after
    calm_available_bps: float = 0.0
    storm_available_bps: float = 0.0
    recovered_available_bps: float = 0.0
    #: buffer sizes the two arms actually used
    untuned_buffer: int = 0
    tuned_buffer: int = 0
    #: goodput of the two transfer arms, both run during the storm
    untuned_goodput_bps: float = 0.0
    tuned_goodput_bps: float = 0.0
    #: detection-side evidence
    portmon_triggers: int = 0
    monitor_published: int = 0
    bottleneck_utilization: float = 0.0
    #: congestion evidence off the shared queue / transport counters
    transport_queue_delay_s: float = 0.0
    class_bytes: dict = field(default_factory=dict)
    tuned_queue_delay_s: float = 0.0
    storm_packets: int = 0
    #: events the consumer received from the portmon-triggered netstat
    #: sensor (the detect side's published evidence, §2.3: data flows
    #: only once requested)
    netstat_events: int = 0

    @property
    def speedup(self) -> float:
        if self.untuned_goodput_bps <= 0:
            return float("inf")
        return self.tuned_goodput_bps / self.untuned_goodput_bps


def _run_arm(world: GridWorld, client: NetworkAwareClient, server, *,
             nbytes: int, dst_port: int, tuned: bool,
             deadline: float = 120.0) -> tuple:
    """One transfer arm: goodput over the arm's wall(-sim)-clock, plus
    the flow process for stats."""
    t0 = world.sim.now
    proc = client.fetch(server, nbytes=nbytes, dst_port=dst_port,
                        tuned=tuned)
    while proc.alive and world.sim.now < t0 + deadline:
        world.run(until=world.sim.now + 0.25)
    elapsed = world.sim.now - t0
    return nbytes * 8.0 / elapsed, proc


def run_netaware_scenario(seed: int = 0, *, storm_bps: float = 550e6,
                          untuned_mb: int = 2,
                          tuned_mb: int = 20) -> NetAwareResult:
    """Run the full detect-and-adapt loop; returns the observations.

    The world is the paper's testbed shape: DPSS server + gateway on
    the LBNL LAN, client + viz host at ISI-East, OC-12 WAN through two
    routers (~60 ms RTT).  The storm runs gateway-host -> viz, so it
    contends with the client's transfers for the same WAN bottleneck
    without touching either transfer endpoint.
    """
    world = GridWorld(seed=seed)
    server = world.add_host("dpss1.lbl.gov")
    gw_host = world.add_host("gw.lbl.gov")
    client_host = world.add_host("mems.cairn.net")
    viz = world.add_host("viz.cairn.net")
    world.lan([server, gw_host], switch="lbl-sw")
    world.lan([client_host, viz], switch="isi-sw")
    world.wan_path("lbl-sw", "isi-sw", routers=["ntn1", "supernet1"],
                   latency_s=10e-3)

    deployment = JAMMDeployment(world, directory_hosts=(gw_host, viz))
    gateway = deployment.add_gateway("gw0", host=gw_host)
    # the viz host watches the storm sink port: storm bytes trigger the
    # on-demand netstat sensor through the port monitor agent (§2.2)
    config = JAMMConfig()
    config.add_sensor("netmon", "netstat", mode="on-demand",
                      ports=(TRAFFIC_PORT,), period=1.0)
    config.enable_portmon(poll=0.5, idle_timeout=5.0)
    manager = deployment.add_manager(viz, config=config, gateway=gateway)

    directory = deployment.directory_client(host=client_host)
    monitor = PathMonitor(world, server, client_host,
                          directory=directory, interval=1.0).start()

    plan = FaultPlan(seed=seed)
    plan.congestion_storm(T_STORM, gw_host.name, viz.name,
                          rate_bps=storm_bps, seed=seed + 1)
    plan.calm_traffic(T_CALM, gw_host.name, viz.name)
    world.inject(plan)

    result = NetAwareResult(seed=seed)
    world.run(until=T_STORM - 0.5)
    result.calm_available_bps = monitor.samples[-1][1]

    world.run(until=T_MEASURE)
    result.storm_available_bps = monitor.samples[-1][1]

    # the storm tripped the port monitor, which started the netstat
    # sensor; subscribe to it from the client site so its observations
    # actually cross the congested WAN as monitoring-class traffic
    mon_client = deployment.client(host=client_host)
    watch = mon_client.session(name="netwatch")
    netstat_sensors = mon_client.sensors(type="netstat")

    def _count(_event) -> None:
        result.netstat_events += 1

    if len(netstat_sensors):
        watch.subscribe_all(netstat_sensors, on_event=_count)

    nac = NetworkAwareClient(world, client_host, directory=directory)
    result.untuned_goodput_bps, _ = _run_arm(
        world, nac, server, nbytes=untuned_mb << 20, dst_port=7501,
        tuned=False)
    result.untuned_buffer = nac.last_buffer
    result.tuned_goodput_bps, tuned_proc = _run_arm(
        world, nac, server, nbytes=tuned_mb << 20, dst_port=7502,
        tuned=True)
    result.tuned_buffer = nac.last_buffer
    tuned_stats = tuned_proc.done.value if tuned_proc.done.triggered else None
    if tuned_stats is not None:
        result.tuned_queue_delay_s = tuned_stats.queue_delay_s

    # snapshot congestion evidence while the storm is still blowing
    path = world.network.route(server.node, client_host.node)
    hop = path.bottleneck_hop
    result.bottleneck_utilization = path.links[hop].utilization(
        path.nodes[hop + 1], world.sim.now)
    result.transport_queue_delay_s = world.transport.queue_delay_s
    result.class_bytes = dict(world.transport.class_bytes)
    result.storm_packets = sum(g.packets_sent for g in world.traffic)

    world.run(until=T_END)
    result.recovered_available_bps = monitor.samples[-1][1]
    result.portmon_triggers = (manager.port_monitor.triggers
                               if manager.port_monitor is not None else 0)
    result.monitor_published = monitor.published
    watch.close()
    monitor.stop()
    return result
