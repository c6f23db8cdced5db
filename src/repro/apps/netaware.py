"""Network-aware client (paper §7.0, [23]).

"network sensors publish summary throughput and latency data in the
directory service, which is used by a 'network-aware' client to
optimally set its TCP buffer size."

The client reads the published path summary (or queries a gateway's
summary service), computes the bandwidth-delay product, sizes its TCP
receive window accordingly, and runs its transfer.  Experiment E12
compares it against a default-64KB-buffer client on the WAN.

:class:`PathMonitor` closes the detect side of the loop: it polls the
bottleneck device's per-interface SNMP counters along a path, turns the
utilization window and queue backlog into an *available*-bandwidth and
latency estimate, and republishes the path summary — so when injected
cross traffic congests the shared link, the published summary degrades
and the network-aware client re-sizes its buffer to match what the
path can actually carry.
"""

from __future__ import annotations

from typing import Any, Optional

from ..core.directory import unwrap_directory
from ..simgrid.host import Host
from ..simgrid.kernel import Timeout
from ..simgrid.world import GridWorld

__all__ = ["NetworkAwareClient", "PathMonitor", "publish_path_summary",
           "DEFAULT_BUFFER"]

#: the era's default TCP socket buffer
DEFAULT_BUFFER = 64 * 1024


def publish_path_summary(directory: Any, *, src: str, dst: str,
                         throughput_bps: float, latency_s: float,
                         suffix: Optional[str] = None) -> None:
    """Publish a network summary entry for the (src, dst) path —
    what the summary data service in Fig. 6 exposes.  ``directory`` may
    be a raw directory client or a MonitoringClient facade (whose
    suffix applies unless one is passed explicitly)."""
    directory, suffix = unwrap_directory(directory, suffix)
    dn = f"path={src}--{dst},ou=netsummary,{suffix}"
    directory.publish(dn, {
        "objectclass": "netsummary",
        "src": src, "dst": dst,
        "throughput": f"{throughput_bps:.0f}",
        "latency": f"{latency_s:.6f}"})


class PathMonitor:
    """Publishes live path summaries from SNMP interface observations.

    Every ``interval`` seconds the monitor resolves the ``src -> dst``
    route, finds the bottleneck link, and reads the transmitting
    device's per-interface MIB (:meth:`SNMPManager.interface_walk`):
    line-rate utilization, outbound queue backlog, and queue drops.
    Available bandwidth is estimated as ``capacity * (1 - utilization)``
    (floored at ``floor_fraction`` so a saturated path still advertises
    a usable trickle), smoothed by an EWMA, and republished with a
    latency estimate that includes the observed queue backlog.
    """

    def __init__(self, world: GridWorld, src: Host, dst: Host, *,
                 directory: Any, suffix: Optional[str] = None,
                 interval: float = 1.0, alpha: float = 0.5,
                 floor_fraction: float = 0.05):
        directory, suffix = unwrap_directory(directory, suffix)
        self.world = world
        self.src = src
        self.dst = dst
        self.directory = directory
        self.suffix = suffix
        self.interval = interval
        self.alpha = alpha
        self.floor_fraction = floor_fraction
        #: (t, available_bps, backlog_s, drops) samples, one per poll
        self.samples: list[tuple[float, float, float, int]] = []
        self.published = 0
        self._ewma: Optional[float] = None
        self._proc = None

    def start(self) -> "PathMonitor":
        if self._proc is None or not self._proc.alive:
            self._proc = self.world.sim.spawn(
                self._run(), name=f"pathmon:{self.src.name}->{self.dst.name}")
        return self

    def stop(self) -> None:
        if self._proc is not None and self._proc.alive:
            self._proc.kill()
        self._proc = None

    # -- sampling ------------------------------------------------------------

    def sample_once(self) -> Optional[dict]:
        """One poll: read the bottleneck interface, update the EWMA,
        publish.  Returns the observation (or None when unroutable)."""
        world = self.world
        try:
            path = world.network.route(self.src.node, self.dst.node)
        except Exception:
            return None
        hop = path.bottleneck_hop
        if hop is None:
            return None
        bottleneck, device = path.links[hop], path.nodes[hop]
        now = world.sim.now
        agent = world.snmp.agent(device.name)
        if agent is not None:
            mib = world.snmp.interface_walk(device.name, bottleneck.name)
            util = mib["ifOutUtilization"]
            backlog = mib["ifOutQBacklogS"]
            drops = mib["ifOutQDrops"]
        else:
            # plain attachment nodes don't run SNMP agents; read the
            # same observables off the link directly
            far = path.nodes[hop + 1]
            util = bottleneck.utilization(far, now)
            backlog = bottleneck.queue_backlog_s(far, now)
            drops = bottleneck.toward(far).drops
        capacity = path.bottleneck_bps
        available = max(capacity * (1.0 - util),
                        capacity * self.floor_fraction)
        if self._ewma is None:
            self._ewma = available
        else:
            self._ewma += self.alpha * (available - self._ewma)
        latency = path.latency_s + backlog
        self.samples.append((now, available, backlog, int(drops)))
        publish_path_summary(self.directory, src=self.src.name,
                             dst=self.dst.name, throughput_bps=self._ewma,
                             latency_s=latency, suffix=self.suffix)
        self.published += 1
        return {"available_bps": available, "ewma_bps": self._ewma,
                "backlog_s": backlog, "drops": int(drops),
                "utilization": util}

    def _run(self):
        while True:
            self.sample_once()
            yield Timeout(self.interval)


class NetworkAwareClient:
    """Sizes its receive buffer from published path summaries."""

    def __init__(self, world: GridWorld, host: Host, *,
                 directory: Any = None, suffix: Optional[str] = None,
                 safety_factor: float = 1.2,
                 max_buffer: int = 4 << 20):
        directory, suffix = unwrap_directory(directory, suffix)
        self.world = world
        self.host = host
        self.directory = directory
        self.suffix = suffix
        self.safety_factor = safety_factor
        self.max_buffer = max_buffer
        self.last_buffer: Optional[int] = None

    # -- buffer sizing -------------------------------------------------------

    def lookup_path_summary(self, src: str, dst: str) -> Optional[dict]:
        if self.directory is None:
            return None
        result = self.directory.search(
            f"ou=netsummary,{self.suffix}",
            f"(&(objectclass=netsummary)(src={src})(dst={dst}))")
        if not result.entries:
            return None
        entry = result.entries[0]
        return {"throughput": float(entry.first("throughput", "0")),
                "latency": float(entry.first("latency", "0"))}

    def optimal_buffer(self, src: str, dst: str) -> int:
        """Bandwidth-delay product (with safety margin), or the default
        when no summary is available."""
        summary = self.lookup_path_summary(src, dst)
        if summary is None or summary["throughput"] <= 0:
            return DEFAULT_BUFFER
        bdp = summary["throughput"] * (2.0 * summary["latency"]) / 8.0
        sized = int(bdp * self.safety_factor)
        return max(DEFAULT_BUFFER, min(self.max_buffer, sized))

    # -- transfers ------------------------------------------------------------------

    def fetch(self, server: Host, *, nbytes: int, dst_port: int = 7500,
              tuned: bool = True):
        """Pull ``nbytes`` from ``server``; returns the kernel process.

        ``tuned=False`` is the baseline (default buffer) arm of E12.
        The process return value is the flow's stats.
        """
        if tuned:
            buffer = self.optimal_buffer(server.name, self.host.name)
        else:
            buffer = DEFAULT_BUFFER
        self.last_buffer = buffer
        flow = self.world.tcp_flow(server, self.host, dst_port=dst_port,
                                   rng_name=f"netaware:{dst_port}:{tuned}",
                                   rwnd_bytes=buffer)

        def run():
            flow.transfer(nbytes)
            stats = yield flow.done
            return stats

        return self.world.sim.spawn(run(), name=f"netaware[{self.host.name}]")
