"""Historical analysis over event archives (paper §2.2).

"It is important to archive event data in order to provide the ability
to do historical analysis of system performance, and determine
when/where changes occurred. ... when problems arise it is possible to
compare the current system to a previously working system."

:func:`summarize_period` reduces an archive window to per-event-type
statistics; :func:`compare_periods` diffs two windows (the
current-vs-known-good comparison); :func:`find_change_points` locates
when a numeric series shifted (the "determine when ... changes
occurred" part).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .archive import EventArchive

__all__ = ["PeriodSummary", "EventTypeStats", "summarize_period",
           "compare_periods", "PeriodDelta", "find_change_points"]


@dataclass(frozen=True)
class EventTypeStats:
    event: str
    count: int
    rate_per_s: float
    value_mean: Optional[float]  # mean of VALUE field when numeric

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        mean = f" mean={self.value_mean:.2f}" if self.value_mean is not None \
            else ""
        return f"{self.event}: n={self.count} ({self.rate_per_s:.2f}/s){mean}"


@dataclass(frozen=True)
class PeriodSummary:
    t0: float
    t1: float
    total_events: int
    by_event: dict

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def summarize_period(archive: EventArchive, t0: float, t1: float, *,
                     host: Optional[str] = None) -> PeriodSummary:
    """Per-event-type counts/rates/means over the half-open [t0, t1).

    The archive resolves this through its multi-resolution rollups
    (:meth:`EventArchive.summarize_window`): fully-covered segments
    cost one pre-merged rollup each, so a month-scale window costs
    about the same as a minute-scale one; only the rows of a segment
    or head the window clips are walked.
    """
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    rollup = archive.summarize_window(t0, t1, host=host)
    span = t1 - t0
    by_event = {
        event: EventTypeStats(
            event=event, count=row[0], rate_per_s=row[0] / span,
            value_mean=(row[1] / row[2] if row[2] else None))
        for event, row in rollup.items()}
    total = sum(row[0] for row in rollup.values())
    return PeriodSummary(t0=t0, t1=t1, total_events=total, by_event=by_event)


@dataclass(frozen=True)
class PeriodDelta:
    """One event type's change between the baseline and current period."""

    event: str
    baseline_rate: float
    current_rate: float
    baseline_mean: Optional[float]
    current_mean: Optional[float]

    @property
    def rate_ratio(self) -> float:
        if self.baseline_rate == 0:
            return math.inf if self.current_rate > 0 else 1.0
        return self.current_rate / self.baseline_rate

    def is_anomalous(self, *, rate_factor: float = 3.0,
                     mean_factor: float = 2.0) -> bool:
        """Flag large rate changes or large numeric-mean shifts."""
        if self.rate_ratio >= rate_factor or \
                (self.rate_ratio <= 1.0 / rate_factor and self.baseline_rate > 0):
            return True
        if self.baseline_mean not in (None, 0.0) and self.current_mean is not None:
            ratio = abs(self.current_mean) / max(abs(self.baseline_mean), 1e-12)
            if ratio >= mean_factor or ratio <= 1.0 / mean_factor:
                return True
        return False


def compare_periods(archive: EventArchive, *,
                    baseline: tuple, current: tuple,
                    host: Optional[str] = None) -> list[PeriodDelta]:
    """Diff two archive windows ("compare the current system to a
    previously working system").  Returns deltas for every event type
    seen in either period, largest rate change first."""
    base = summarize_period(archive, *baseline, host=host)
    cur = summarize_period(archive, *current, host=host)
    events = set(base.by_event) | set(cur.by_event)
    deltas = []
    # sorted: the rate-ratio sort below is stable, so tied deltas keep
    # this order — set order would make report order machine-dependent
    for event in sorted(events):
        b = base.by_event.get(event)
        c = cur.by_event.get(event)
        deltas.append(PeriodDelta(
            event=event,
            baseline_rate=b.rate_per_s if b else 0.0,
            current_rate=c.rate_per_s if c else 0.0,
            baseline_mean=b.value_mean if b else None,
            current_mean=c.value_mean if c else None))
    deltas.sort(key=lambda d: -(d.rate_ratio if d.rate_ratio != math.inf
                                else 1e18))
    return deltas


def find_change_points(samples: Sequence[tuple], *,
                       window: int = 10, threshold: float = 3.0) -> list[float]:
    """Detect level shifts in a (time, value) series.

    Compares each adjacent pair of ``window``-sample means; a change
    point is reported where they differ by more than ``threshold``
    pooled standard deviations.  Simple, deterministic, and good enough
    to answer "when did this counter's behaviour change?".
    """
    if window < 2 or len(samples) < 2 * window:
        return []
    times = [t for t, _ in samples]
    values = [v for _, v in samples]
    changes = []
    i = window
    while i + window <= len(values):
        left = values[i - window:i]
        right = values[i:i + window]
        mean_l = sum(left) / window
        mean_r = sum(right) / window
        var = (sum((v - mean_l) ** 2 for v in left)
               + sum((v - mean_r) ** 2 for v in right)) / (2 * window - 2)
        sd = math.sqrt(var) if var > 0 else 0.0
        spread = abs(mean_r - mean_l)
        if (sd > 0 and spread > threshold * sd) or (sd == 0 and spread > 0):
            changes.append(times[i])
            i += window  # skip past this shift
        else:
            i += 1
    return changes
