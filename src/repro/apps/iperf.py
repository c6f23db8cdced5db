"""iperf-style throughput testing (paper §6, [11]).

"we next used the Iperf network performance test tool to compare TCP
performance of a single TCP input stream versus four parallel streams.
To our surprise the aggregate throughput for four streams was only 30
Mbits/sec compared to 140 Mbits/sec for a single stream."

:func:`run_iperf` runs N parallel bulk streams into one receiver for a
fixed duration and reports per-stream and aggregate goodput — the
harness behind experiment E3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..simgrid.host import Host
from ..simgrid.world import GridWorld

__all__ = ["IperfResult", "run_iperf", "IPERF_PORT"]

IPERF_PORT = 5001


@dataclass
class IperfResult:
    """One test's report (an ``iperf -P N`` style summary)."""

    n_streams: int
    duration: float
    per_stream_mbps: list
    retransmits: int
    timeouts: int
    #: total queuing delay the streams saw at the bottleneck (congested
    #: shared links show up here before they show up as loss)
    queue_delay_s: float = 0.0

    @property
    def aggregate_mbps(self) -> float:
        return sum(self.per_stream_mbps)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        streams = ", ".join(f"{m:.1f}" for m in self.per_stream_mbps)
        return (f"iperf -P {self.n_streams}: aggregate "
                f"{self.aggregate_mbps:.1f} Mbit/s [{streams}] "
                f"retrans={self.retransmits}")


def run_iperf(world: GridWorld, sources: Sequence[Host], sink: Host, *,
              n_streams: int, duration: float = 30.0,
              warmup: float = 2.0, rwnd_bytes: int = 1 << 20,
              base_port: int = IPERF_PORT,
              traffic_class: str = "bulk") -> IperfResult:
    """Run ``n_streams`` parallel streams from ``sources`` (round-robin)
    into ``sink`` and measure goodput over the post-warmup window.

    Advances the world's virtual time by ``duration + 1``.
    """
    if n_streams < 1:
        raise ValueError("need at least one stream")
    if not sources:
        raise ValueError("need at least one source host")
    t_start = world.sim.now
    flows = []
    for i in range(n_streams):
        src = sources[i % len(sources)]
        flow = world.tcp_flow(src, sink, dst_port=base_port + i,
                              rng_name=f"iperf:{t_start:.3f}:{i}",
                              rwnd_bytes=rwnd_bytes,
                              traffic_class=traffic_class)
        flow.run_for(duration)
        flows.append(flow)
    world.run(until=t_start + duration + 1.0)
    t0 = t_start + warmup
    t1 = t_start + duration
    per_stream = [f.stats.throughput_bps(t0, t1) / 1e6 for f in flows]
    return IperfResult(
        n_streams=n_streams,
        duration=duration,
        per_stream_mbps=per_stream,
        retransmits=sum(f.stats.retransmits for f in flows),
        timeouts=sum(f.stats.timeouts for f in flows),
        queue_delay_s=sum(f.stats.queue_delay_s for f in flows))
