"""Windowed summary computation and the summary data service.

Paper §2.2: "The event gateway can also be configured to compute
summary data.  For example, it can compute 1, 10, and 60 minute
averages of CPU usage, and make this information available to
consumers."  And §7.0: "network sensors publish summary throughput and
latency data in the directory service, which is used by a
'network-aware' client to optimally set its TCP buffer size."
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional, Sequence

from ..ulm import ULMMessage

__all__ = ["SummaryWindow", "SummarySet", "SummaryService",
           "DEFAULT_WINDOWS"]

#: the paper's 1 / 10 / 60 minute windows
DEFAULT_WINDOWS = (60.0, 600.0, 3600.0)


class SummaryWindow:
    """Sliding-window average/min/max over (time, value) samples.

    ``minimum``/``maximum`` are O(1) amortized: two monotonic deques
    track the candidate extrema, and every read path expires through
    the same cutoff, so the avg/min/max triple is always computed over
    the same sample set (the old implementation rescanned every sample
    and reported extrema that ``average(now)`` had already expired).
    """

    def __init__(self, span: float):
        if span <= 0:
            raise ValueError("span must be positive")
        self.span = span
        self._samples: deque = deque()  # (t, value)
        self._sum = 0.0
        self._min_q: deque = deque()    # (t, value), values non-decreasing
        self._max_q: deque = deque()    # (t, value), values non-increasing

    def ingest(self, t: float, value: float) -> None:
        self._samples.append((t, value))
        self._sum += value
        min_q = self._min_q
        while min_q and min_q[-1][1] >= value:
            min_q.pop()
        min_q.append((t, value))
        max_q = self._max_q
        while max_q and max_q[-1][1] <= value:
            max_q.pop()
        max_q.append((t, value))
        self._expire(t)

    def _expire(self, now: float) -> None:
        cutoff = now - self.span
        samples = self._samples
        while samples and samples[0][0] < cutoff:
            _, v = samples.popleft()
            self._sum -= v
        min_q = self._min_q
        while min_q and min_q[0][0] < cutoff:
            min_q.popleft()
        max_q = self._max_q
        while max_q and max_q[0][0] < cutoff:
            max_q.popleft()

    def average(self, now: Optional[float] = None) -> Optional[float]:
        if now is not None:
            self._expire(now)
        if not self._samples:
            return None
        return self._sum / len(self._samples)

    def minimum(self, now: Optional[float] = None) -> Optional[float]:
        if now is not None:
            self._expire(now)
        return self._min_q[0][1] if self._min_q else None

    def maximum(self, now: Optional[float] = None) -> Optional[float]:
        if now is not None:
            self._expire(now)
        return self._max_q[0][1] if self._max_q else None

    @property
    def count(self) -> int:
        return len(self._samples)


class SummarySet:
    """The 1/10/60-minute window trio for one (sensor, field) series."""

    def __init__(self, spans: Sequence[float] = DEFAULT_WINDOWS):
        self.windows = {span: SummaryWindow(span) for span in spans}
        self.last_value: Optional[float] = None
        self.last_time: Optional[float] = None

    def ingest(self, t: float, value: float) -> None:
        self.last_value = value
        self.last_time = t
        for window in self.windows.values():
            window.ingest(t, value)

    def snapshot(self, now: Optional[float] = None) -> dict:
        out: dict = {"last": self.last_value}
        for span, window in sorted(self.windows.items()):
            label = f"avg{int(span // 60)}m"
            out[label] = window.average(now)
        return out


class SummaryService:
    """Aggregates summaries for many series and publishes them.

    The paper leaves the placement open ("might be part of the sensor
    directory, could be a separate LDAP server, or could be built into
    the gateways"); this object is embeddable in any of those — the
    gateway feeds it, and :meth:`publish` pushes snapshots into a
    directory client under ``ou=summaries``.
    """

    def __init__(self, *, spans: Sequence[float] = DEFAULT_WINDOWS,
                 directory: Any = None, suffix: str = "o=grid"):
        self.spans = tuple(spans)
        self.directory = directory
        self.suffix = suffix
        self._series: dict[tuple, SummarySet] = {}
        self.published = 0

    def series(self, sensor_name: str, field: str) -> SummarySet:
        key = (sensor_name, field)
        summary = self._series.get(key)
        if summary is None:
            summary = SummarySet(self.spans)
            self._series[key] = summary
        return summary

    def ingest_event(self, sensor_name: str, msg: ULMMessage,
                     fields: Sequence[str]) -> None:
        for field in fields:
            raw = msg.fields.get(field)
            if raw is None:
                continue
            try:
                value = float(raw)
            except ValueError:
                continue
            self.series(sensor_name, field).ingest(msg.date, value)

    def snapshot(self, sensor_name: str, field: str,
                 now: Optional[float] = None) -> Optional[dict]:
        key = (sensor_name, field)
        summary = self._series.get(key)
        return summary.snapshot(now) if summary else None

    def publish(self, *, host_name: str = "gateway",
                now: Optional[float] = None) -> int:
        """Upsert one directory entry per series under ou=summaries."""
        if self.directory is None:
            raise RuntimeError("no directory client configured")
        count = 0
        for (sensor_name, field), summary in self._series.items():
            snap = summary.snapshot(now)
            dn = (f"field={field},summary={sensor_name},"
                  f"ou=summaries,{self.suffix}")
            attrs = {"objectclass": "summary", "sensor": sensor_name,
                     "publisher": host_name}
            for label, value in snap.items():
                if value is not None:
                    attrs[label] = f"{value:.6f}"
            self.directory.publish(dn, attrs)
            count += 1
        self.published += count
        return count
