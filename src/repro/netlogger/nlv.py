"""nlv — the NetLogger visualization data model (paper §4.5, Figs. 2/3/7).

nlv draws three graph primitives against time on the x-axis:

* **lifeline** — ordered events on the y-axis joined per object; the
  slope shows where time is spent;
* **loadline** — "connects a series of scaled values into a continuous
  segmented curve", for resources like CPU load or free memory;
* **point** — single occurrences (errors/warnings like TCP
  retransmits); "the point datatype can be scaled to a value, producing
  a scatter plot" (Fig. 3).

:class:`NLVDataSet` ingests ULM messages under an :class:`NLVConfig`
mapping event names to primitives, supports the real-time mode (a
scrolling window) and the historical mode (zoom/pan over the full log),
and renders an ASCII approximation of the nlv screen for terminals.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..ulm import ULMMessage
from .lifeline import Lifeline, correlate_lifelines

__all__ = ["Primitive", "NLVConfig", "NLVDataSet", "LoadlineSeries",
           "PointSeries", "render_ascii"]


class Primitive(enum.Enum):
    LIFELINE = "lifeline"
    LOADLINE = "loadline"
    POINT = "point"


@dataclass
class NLVConfig:
    """Which events to plot and how.

    * ``lifeline_events`` — the ordered y-axis event path (Fig. 7 rows);
    * ``lifeline_ids`` — ULM fields forming the object ID;
    * ``loadlines`` — event name → value field (scaled curve);
    * ``points`` — event name → optional value field (None = unscaled
      tick; a field name yields a scatter like Fig. 3).
    """

    lifeline_events: Sequence[str] = ()
    lifeline_ids: Sequence[str] = ()
    loadlines: dict = field(default_factory=dict)
    points: dict = field(default_factory=dict)


@dataclass
class LoadlineSeries:
    name: str
    samples: list  # (time, value)

    def at(self, t: float) -> Optional[float]:
        """Step-interpolated value at time t (None before first sample)."""
        current = None
        for ts, v in self.samples:
            if ts <= t:
                current = v
            else:
                break
        return current


@dataclass
class PointSeries:
    name: str
    samples: list  # (time, value or None)


class NLVDataSet:
    """The ingested, plottable form of a merged event log."""

    def __init__(self, config: NLVConfig):
        self.config = config
        self.messages: list[ULMMessage] = []
        self.loadlines: dict[str, LoadlineSeries] = {
            name: LoadlineSeries(name, []) for name in config.loadlines}
        self.points: dict[str, PointSeries] = {
            name: PointSeries(name, []) for name in config.points}
        self._lifeline_dirty = False
        self._lifelines: list[Lifeline] = []

    # -- ingestion -------------------------------------------------------------

    def add(self, msg: ULMMessage) -> None:
        self.messages.append(msg)
        name = msg.event
        if name is None:
            return
        if name in self.config.loadlines:
            value = msg.get_float(self.config.loadlines[name])
            self.loadlines[name].samples.append((msg.date, value))
        if name in self.config.points:
            value_field = self.config.points[name]
            value = msg.get_float(value_field) if value_field else None
            self.points[name].samples.append((msg.date, value))
        if name in self.config.lifeline_events:
            self._lifeline_dirty = True

    def add_many(self, messages: Iterable[ULMMessage]) -> None:
        for msg in messages:
            self.add(msg)

    # -- views -----------------------------------------------------------------

    def lifelines(self) -> list[Lifeline]:
        if self._lifeline_dirty or not self._lifelines:
            relevant = [m for m in self.messages
                        if m.event in set(self.config.lifeline_events)]
            self._lifelines = correlate_lifelines(
                relevant, self.config.lifeline_ids,
                event_order=self.config.lifeline_events)
            self._lifeline_dirty = False
        return self._lifelines

    @property
    def t_min(self) -> float:
        return min((m.date for m in self.messages), default=0.0)

    @property
    def t_max(self) -> float:
        return max((m.date for m in self.messages), default=0.0)

    def window(self, t0: float, t1: float) -> "NLVDataSet":
        """Historical mode: a zoomed view restricted to [t0, t1]."""
        view = NLVDataSet(self.config)
        view.add_many(m for m in self.messages if t0 <= m.date <= t1)
        return view

    def realtime_view(self, now: float, span: float) -> "NLVDataSet":
        """Real-time mode: the scrolling window ending at ``now``."""
        return self.window(now - span, now)

    def y_axis_rows(self) -> list[str]:
        """Row labels, lifeline path bottom-up then load/point series —
        matching Fig. 7's layout."""
        rows = list(self.config.lifeline_events)
        rows.extend(self.config.loadlines)
        rows.extend(self.config.points)
        return rows


def render_ascii(data: NLVDataSet, *, width: int = 100,
                 t0: Optional[float] = None, t1: Optional[float] = None) -> str:
    """Render an ASCII approximation of the nlv screen.

    Lifeline events print as ``o``, points as ``X`` (Fig. 2's marker),
    loadlines as a 0-9 digit scaled to the series range.
    """
    t0 = data.t_min if t0 is None else t0
    t1 = data.t_max if t1 is None else t1
    span = max(t1 - t0, 1e-9)

    def col(t: float) -> int:
        return min(width - 1, max(0, int((t - t0) / span * (width - 1))))

    label_w = max((len(r) for r in data.y_axis_rows()), default=8) + 1
    lines = []
    for name in reversed(list(data.config.lifeline_events)):
        row = [" "] * width
        for line_obj in data.lifelines():
            for ev in line_obj.events:
                if ev.event == name and t0 <= ev.date <= t1:
                    row[col(ev.date)] = "o"
        lines.append(f"{name:>{label_w}} |" + "".join(row))
    for name, series in data.loadlines.items():
        row = [" "] * width
        vals = [v for t, v in series.samples if t0 <= t <= t1]
        lo, hi = (min(vals), max(vals)) if vals else (0.0, 1.0)
        rng = max(hi - lo, 1e-9)
        for t, v in series.samples:
            if t0 <= t <= t1:
                row[col(t)] = str(int((v - lo) / rng * 9))
        lines.append(f"{name:>{label_w}} |" + "".join(row))
    for name, series in data.points.items():
        row = [" "] * width
        for t, _v in series.samples:
            if t0 <= t <= t1:
                row[col(t)] = "X"
        lines.append(f"{name:>{label_w}} |" + "".join(row))
    axis = f"{'':>{label_w}} +" + "-" * width
    footer = (f"{'':>{label_w}}  t0={t0:.3f}s"
              f"{'':>{max(1, width - 30)}}t1={t1:.3f}s")
    return "\n".join(lines + [axis, footer])
