"""The overview monitor (paper §2.2).

"This consumer collects information from sensors on several hosts, and
uses the combined information to make some decision that could not be
made on the basis of data from only one host.  For example, one may
want to trigger a page to a system administrator at 2 A.M. only if
both the primary and backup servers are down."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ...ulm import ULMMessage
from .base import Consumer

__all__ = ["OverviewMonitor", "OverviewRule", "all_hosts_down"]


@dataclass
class OverviewRule:
    """A cross-host predicate with an action.

    ``predicate(state)`` sees the consumer's per-host state dict
    (host -> latest relevant event) and returns True to fire.  The rule
    is edge-triggered: it fires once when the predicate becomes true
    and re-arms when it becomes false again.
    """

    name: str
    predicate: Callable[[dict], bool]
    action: Callable[[dict], None]
    armed: bool = True
    firings: int = 0

    def evaluate(self, state: dict) -> bool:
        satisfied = self.predicate(state)
        if satisfied and self.armed:
            self.armed = False
            self.firings += 1
            self.action(state)
            return True
        if not satisfied:
            self.armed = True
        return False


def all_hosts_down(hosts: Sequence[str], *,
                   down_events: Sequence[str] = ("PROC_CRASH", "PROC_EXIT"),
                   up_events: Sequence[str] = ("PROC_START", "PROC_RESUME")):
    """Predicate factory for the paper's 2 A.M. example: true only when
    *every* listed host's watched process was last seen going down."""
    down = frozenset(down_events)
    up = frozenset(up_events)

    def predicate(state: dict) -> bool:
        for host in hosts:
            event = state.get(host)
            if event is None or event.event in up or event.event not in down:
                return False
        return True

    return predicate


class OverviewMonitor(Consumer):
    """Combines events from several hosts and runs cross-host rules."""

    consumer_type = "overview"
    handle_buffer_limit = 0  # only per-host latest state is kept

    def __init__(self, sim, **kwargs):
        super().__init__(sim, **kwargs)
        #: host name -> most recent event from that host
        self.state: dict[str, ULMMessage] = {}
        self.rules: list[OverviewRule] = []

    def add_rule(self, name: str, predicate: Callable[[dict], bool],
                 action: Callable[[dict], None]) -> OverviewRule:
        rule = OverviewRule(name=name, predicate=predicate, action=action)
        self.rules.append(rule)
        return rule

    def on_event(self, event: ULMMessage) -> None:
        self.state[event.host] = event
        for rule in self.rules:
            rule.evaluate(self.state)
