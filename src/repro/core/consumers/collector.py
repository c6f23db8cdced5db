"""The real-time event collector (paper §2.2).

"This consumer is used to collect monitoring data in real time for use
by real-time analysis tools.  It checks the directory service to see
what data is available, and then 'subscribes', via the event gateway,
to all the sensors it is interested in. ... Data from many sensors, as
well as streams of data from application sensors, is then merged into
a file for use by programs such as nlv."
"""

from __future__ import annotations

from ...netlogger.collect import LogWindow, sort_log
from ...ulm import ULMMessage
from .base import Consumer

__all__ = ["EventCollector"]


class EventCollector(Consumer):
    """Collects subscribed event streams into a merged, time-ordered log."""

    consumer_type = "collector"
    handle_buffer_limit = 0  # events live in self.messages/self.window

    def __init__(self, client, *, window_span: float = 120.0, **kwargs):
        super().__init__(client, **kwargs)
        self.messages: list[ULMMessage] = []
        self.window = LogWindow(span=window_span)

    def on_event(self, event: ULMMessage) -> None:
        self.messages.append(event)
        self.window.add(event)

    # -- outputs for the analysis tools ------------------------------------------

    def merged_log(self) -> list[ULMMessage]:
        """The nlv input: everything collected, time-ordered."""
        return sort_log(self.messages)

    def events_named(self, *names: str) -> list[ULMMessage]:
        wanted = set(names)
        return [m for m in self.merged_log() if m.event in wanted]

    def feed_nlv(self, dataset) -> None:
        """Push the merged log into an NLVDataSet."""
        dataset.add_many(self.merged_log())
