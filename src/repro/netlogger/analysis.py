"""Event-log analysis: latency breakdowns, gaps, correlation (paper §6).

These are the computations behind the paper's Fig. 7 reading: find the
"large gap with no data being received by the application", then note
"the correlation between the TCP retransmit events and the large gap".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..ulm import ULMMessage
from .lifeline import Lifeline, lifeline_latencies

__all__ = ["LatencyStats", "stage_latency_report", "find_gaps", "Gap",
           "event_correlation", "bottleneck_stage", "clock_skew_estimate"]


@dataclass(frozen=True)
class LatencyStats:
    stage: tuple
    count: int
    mean: float
    p50: float
    p95: float
    maximum: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{self.stage[0]} -> {self.stage[1]}: n={self.count} "
                f"mean={self.mean * 1e3:.3f}ms p95={self.p95 * 1e3:.3f}ms")


def _percentile(sorted_vals: Sequence[float], q: float) -> float:
    if not sorted_vals:
        return math.nan
    idx = q * (len(sorted_vals) - 1)
    lo = int(math.floor(idx))
    hi = int(math.ceil(idx))
    if lo == hi:
        return sorted_vals[lo]
    frac = idx - lo
    return sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac


def stage_latency_report(lifelines: Iterable[Lifeline]) -> list[LatencyStats]:
    """Summarize per-stage latencies across lifelines."""
    out = []
    for stage, samples in lifeline_latencies(lifelines).items():
        vals = sorted(samples)
        out.append(LatencyStats(
            stage=stage, count=len(vals),
            mean=sum(vals) / len(vals),
            p50=_percentile(vals, 0.5),
            p95=_percentile(vals, 0.95),
            maximum=vals[-1]))
    out.sort(key=lambda s: -s.mean)
    return out


def bottleneck_stage(lifelines: Iterable[Lifeline]) -> Optional[LatencyStats]:
    """The stage with the largest mean latency — the flattest lifeline
    slope, i.e. where the system spends its time."""
    report = stage_latency_report(lifelines)
    return report[0] if report else None


@dataclass(frozen=True)
class Gap:
    """A period with no qualifying events."""

    start: float
    end: float


def find_gaps(messages: Iterable[ULMMessage], *, event: Optional[str] = None,
              min_gap: float = 1.0) -> list[Gap]:
    """Find silences of at least ``min_gap`` seconds between consecutive
    events (optionally only those named ``event``)."""
    times = sorted(m.date for m in messages
                   if event is None or m.event == event)
    gaps = []
    for a, b in zip(times[:-1], times[1:]):
        if b - a >= min_gap:
            gaps.append(Gap(start=a, end=b))
    return gaps


def event_correlation(messages: Iterable[ULMMessage], gaps: Sequence[Gap],
                      *, event: str, slack: float = 0.5) -> float:
    """Fraction of ``event`` occurrences falling inside (or within
    ``slack`` seconds of) the given gaps.

    A value near 1.0 with non-empty gaps is the Fig. 7 signature: the
    retransmissions cluster exactly where the application stalls.
    Returns 0.0 when there are no such events.
    """
    times = [m.date for m in messages if m.event == event]
    if not times or not gaps:
        return 0.0
    inside = 0
    for t in times:
        for gap in gaps:
            if gap.start - slack <= t <= gap.end + slack:
                inside += 1
                break
    return inside / len(times)


def clock_skew_estimate(lifelines: Iterable[Lifeline]) -> float:
    """Estimate worst-case cross-host clock skew from causality
    violations: the most negative observed cross-host segment latency.

    A network message cannot arrive before it was sent, so a negative
    send→receive latency bounds the receiving host's clock error from
    below.  Returns 0.0 when no violations are seen.
    """
    worst = 0.0
    for line in lifelines:
        for seg in line.segments():
            if seg.from_host != seg.to_host and seg.latency < worst:
                worst = seg.latency
    return -worst
