"""Log collection, merging, and sorting (paper §4.1).

"a set of tools for collecting and sorting log files":

* :class:`NetLogDaemon` — the ``netlogd``-style collector: binds the
  NetLogger port on a host and accumulates events sent by remote
  :class:`~repro.netlogger.api.HostDestination` writers.
* :func:`merge_logs` — merge many per-sensor logs into one
  time-ordered stream, the input format ``nlv`` consumes ("Data from
  many sensors ... is then merged into a file").
* :class:`LogWindow` — a bounded real-time tail for live analysis.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, Optional

from ..ulm import ULMMessage, parse, serialize_stream
from .api import NETLOGD_PORT

__all__ = ["NetLogDaemon", "merge_logs", "iter_merge", "sort_log", "LogWindow"]


class NetLogDaemon:
    """Receives ULM lines on a port and stores the parsed messages."""

    def __init__(self, host, *, port: int = NETLOGD_PORT):
        self.host = host
        self.port = port
        self.messages: list[ULMMessage] = []
        self.malformed = 0
        self._observers: list = []
        host.ports.bind(port, self._handle)

    def _handle(self, msg, _transport) -> None:
        try:
            parsed = parse(msg.payload)
        except Exception:
            self.malformed += 1
            return
        self.messages.append(parsed)
        for observer in self._observers:
            observer(parsed)

    def on_message(self, observer) -> None:
        """Register a live observer (e.g. a real-time nlv feed)."""
        self._observers.append(observer)

    def close(self) -> None:
        self.host.ports.unbind(self.port)

    def text(self) -> str:
        return serialize_stream(self.messages)

    def __len__(self) -> int:
        return len(self.messages)


def sort_log(messages: Iterable[ULMMessage]) -> list[ULMMessage]:
    """Time-order one log (stable for equal timestamps)."""
    return sorted(messages, key=lambda m: m.sort_key())


def iter_merge(*streams: Iterable[ULMMessage]) -> Iterator[ULMMessage]:
    """Lazy heap k-way merge of individually time-ordered streams.

    Holds one message per stream: merging many large per-sensor logs
    (e.g. ``iter_parse`` over collected files) never materializes them.
    Equal timestamps come out in stream order.
    """
    return heapq.merge(*streams, key=ULMMessage.sort_key)


def merge_logs(*logs: Iterable[ULMMessage]) -> list[ULMMessage]:
    """Merge per-sensor logs into one time-ordered stream.

    Each input is sorted first (sensors emit in order, but clock
    adjustments can reorder), then merged by :func:`iter_merge`.
    """
    return list(iter_merge(*(sort_log(log) for log in logs)))


class LogWindow:
    """A bounded tail of the most recent events (real-time mode feed).

    nlv's real-time mode scrolls along the time axis "showing data as
    it arrives in the event log"; this window is its buffer.
    """

    def __init__(self, *, span: float = 60.0, max_events: Optional[int] = None):
        if span <= 0:
            raise ValueError("span must be positive")
        self.span = span
        self.max_events = max_events
        self._events: list[ULMMessage] = []

    def add(self, msg: ULMMessage) -> None:
        self._events.append(msg)
        self._trim(msg.date)

    def _trim(self, now: float) -> None:
        cutoff = now - self.span
        # events arrive roughly in order; drop the expired prefix
        i = 0
        while i < len(self._events) and self._events[i].date < cutoff:
            i += 1
        if i:
            del self._events[:i]
        if self.max_events is not None and len(self._events) > self.max_events:
            del self._events[:len(self._events) - self.max_events]

    def events(self) -> list[ULMMessage]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)
