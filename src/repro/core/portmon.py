"""The port monitor agent (paper §2.2).

"This agent monitors traffic on specified ports, and starts sensors
only when network traffic on that port is detected.  Using the port
monitor agent, one is able to customize which sensors are run based on
which applications are currently active, assuming that the
applications use well-known ports. ... The port monitor has proven
itself to be a very useful component, greatly reducing the total
amount of monitoring data that must be collected and managed."

The agent polls the host's per-port traffic counters; when a watched
port shows new bytes or a live connection, the associated sensors are
started through the sensor manager, and stopped again after
``idle_timeout`` seconds of silence.  Sensors started by other actors
(config ``always`` mode, the GUI) are never stopped by the port
monitor.

The GUI surface (§5.0: "reconfigure the type of monitoring to be done
when a port is active, or add a new port of interest") maps to
:meth:`add_rule` / :meth:`remove_rule` / :meth:`set_rules`.
"""

from __future__ import annotations

from typing import Any

from ..simgrid.kernel import Timeout

__all__ = ["PortMonitorAgent"]


class PortMonitorAgent:
    """Watches ports, triggers on-demand sensors."""

    def __init__(self, sim, host, *, manager: Any, poll: float = 1.0,
                 idle_timeout: float = 30.0):
        if poll <= 0 or idle_timeout <= 0:
            raise ValueError("poll and idle_timeout must be positive")
        self.sim = sim
        self.host = host
        self.manager = manager
        self.poll = poll
        self.idle_timeout = idle_timeout
        #: port -> list of sensor names to trigger
        self.rules: dict[int, list[str]] = {}
        self._last_bytes: dict[int, int] = {}
        #: sensors this agent started (and therefore may stop)
        self._triggered: set[str] = set()
        self.triggers = 0
        self.releases = 0
        self.running = False
        self._proc = None

    # -- rule management (port monitor GUI, §5.0) --------------------------------

    def set_rules(self, rules: dict) -> None:
        self.rules = {int(p): list(names) for p, names in rules.items()}

    def add_rule(self, port: int, sensor_names: list) -> None:
        self.rules.setdefault(int(port), [])
        for name in sensor_names:
            if name not in self.rules[int(port)]:
                self.rules[int(port)].append(name)

    def remove_rule(self, port: int) -> None:
        self.rules.pop(int(port), None)

    def watched_ports(self) -> list[int]:
        return sorted(self.rules)

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._proc = self.sim.spawn(self._loop(),
                                    name=f"portmon[{self.host.name}]")

    # -- engine -----------------------------------------------------------------------

    def _port_active(self, port: int) -> bool:
        activity = self.host.ports.activity(port)
        total = activity.total_bytes
        moved = total > self._last_bytes.get(port, 0)
        self._last_bytes[port] = total
        return moved or activity.active_connections > 0

    def _port_idle(self, port: int) -> bool:
        activity = self.host.ports.activity(port)
        if activity.active_connections > 0:
            return False
        return self.host.ports.idle_for(port) >= self.idle_timeout

    def _scan_once(self) -> None:
        wanted_running: set[str] = set()
        for port, sensor_names in self.rules.items():
            if self._port_active(port):
                for name in sensor_names:
                    wanted_running.add(name)
                    if name not in self._triggered:
                        sensor = self.manager.sensors.get(name)
                        if sensor is not None and sensor.running:
                            continue  # running for some other reason
                        try:
                            started = self.manager.start_sensor(
                                name, requested_by=f"portmon:{port}")
                        except Exception:
                            continue
                        if started:
                            self._triggered.add(name)
                            self.triggers += 1
            elif not self._port_idle(port):
                # quiet this instant but within the idle window: keep alive
                for name in sensor_names:
                    if name in self._triggered:
                        wanted_running.add(name)
        # stop sensors we started whose every trigger port has gone idle
        # sorted: set-difference iteration order is hash-seed dependent,
        # and stop_sensor schedules kernel events in this order
        for name in sorted(self._triggered - wanted_running):
            ports = [p for p, names in self.rules.items() if name in names]
            if all(self._port_idle(p) for p in ports):
                self.manager.stop_sensor(name, requested_by="portmon-idle")
                self._triggered.discard(name)
                self.releases += 1

    def _loop(self):
        while self.running:
            self._scan_once()
            yield Timeout(self.poll)

    def info(self) -> dict:
        return {"host": self.host.name,
                "ports": self.watched_ports(),
                "triggered": sorted(self._triggered),
                "triggers": self.triggers,
                "releases": self.releases,
                "running": self.running}
