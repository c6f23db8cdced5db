"""The process monitor consumer (paper §2.2).

"This consumer can be used to trigger an action based on an event from
a server process.  For example, it might run a script to restart the
processes, send email to a system administrator, or call a pager."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...ulm import ULMMessage
from .base import Consumer

__all__ = ["ProcessMonitorConsumer", "RestartAction", "EmailAction",
           "PagerAction", "ActionRecord"]


@dataclass(frozen=True)
class ActionRecord:
    time: float
    action: str
    target: str
    detail: str


class _Action:
    """An action runnable in response to a process event."""

    name = "action"

    def run(self, consumer: "ProcessMonitorConsumer", event: ULMMessage) -> str:
        raise NotImplementedError


class RestartAction(_Action):
    """Restart the dead process on its host ("run a script to restart
    the processes")."""

    name = "restart"

    def __init__(self, host_registry: dict):
        #: host name -> Host object (the consumer may monitor many hosts)
        self.hosts = host_registry
        self.restarted = 0

    def run(self, consumer: "ProcessMonitorConsumer", event: ULMMessage) -> str:
        host = self.hosts.get(event.host)
        if host is None:
            return f"unknown host {event.host}"
        proc_name = event.fields.get("PROC.NAME", "")
        dead = [p for p in host.processes.by_name(proc_name) if not p.alive]
        if not dead:
            return f"no dead process named {proc_name!r}"
        host.processes.restart(dead[-1])
        self.restarted += 1
        return f"restarted {proc_name} on {event.host}"


class EmailAction(_Action):
    """Record an email to the administrator."""

    name = "email"

    def __init__(self, to: str = "admin@lbl.gov"):
        self.to = to
        self.sent: list[str] = []

    def run(self, consumer: "ProcessMonitorConsumer", event: ULMMessage) -> str:
        body = (f"process {event.fields.get('PROC.NAME', '?')} on "
                f"{event.host}: {event.event}")
        self.sent.append(body)
        return f"emailed {self.to}"


class PagerAction(_Action):
    """Record a page ("call a pager")."""

    name = "page"

    def __init__(self, number: str = "555-0100"):
        self.number = number
        self.pages: list[str] = []

    def run(self, consumer: "ProcessMonitorConsumer", event: ULMMessage) -> str:
        self.pages.append(f"{event.host}:{event.event}")
        return f"paged {self.number}"


class ProcessMonitorConsumer(Consumer):
    """Maps process events to actions.

    ``rules`` maps NL.EVNT names (e.g. ``PROC_CRASH``) to actions.
    """

    consumer_type = "procmon"
    handle_buffer_limit = 0  # actions_taken is the record of interest

    def __init__(self, client, *, rules: Optional[dict] = None, **kwargs):
        super().__init__(client, **kwargs)
        self.rules: dict[str, _Action] = dict(rules or {})
        self.actions_taken: list[ActionRecord] = []

    def add_rule(self, event_name: str, action: _Action) -> None:
        self.rules[event_name] = action

    def on_event(self, event: ULMMessage) -> None:
        action = self.rules.get(event.event or "")
        if action is None:
            return
        detail = action.run(self, event)
        self.actions_taken.append(ActionRecord(
            time=self.sim.now, action=action.name,
            target=f"{event.host}/{event.fields.get('PROC.NAME', '?')}",
            detail=detail))

    def actions_of_kind(self, kind: str) -> list[ActionRecord]:
        return [r for r in self.actions_taken if r.action == kind]
