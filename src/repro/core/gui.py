"""GUI backing surfaces (paper §5.0).

"There are various GUI's to facilitate the use of the JAMM system.
The JAMM Sensor Data GUI lists all sensors stored in a specific LDAP
server, and displays their current status, including such details as
frequency, duration, startup time, current number of consumers, and
last message.  The JAMM Sensor Control GUI facilitates the startup or
re-initialization of any available sensors on any JAMM managed hosts.
The port monitor also has a GUI client ... There are also applets that
make information produced by JAMM available through a browser by means
of tables, charts, and graphs."

This module provides the *data/control* layer those GUIs sit on —
table models and control verbs — plus a text renderer standing in for
the browser applets.  No real widget toolkit is involved (and none is
needed to reproduce the paper's functionality).
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

from .directory import unwrap_directory

__all__ = ["SensorDataGUI", "SensorControlGUI", "PortMonitorGUI",
           "render_table", "ascii_bar_chart"]


def render_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Plain-text table (the applet's <table> equivalent)."""
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), "-+-".join("-" * w for w in widths)]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def ascii_bar_chart(series: Sequence[tuple], *, width: int = 40,
                    label_width: int = 20) -> str:
    """(label, value) pairs as a horizontal bar chart (applet charts)."""
    if not series:
        return "(no data)"
    peak = max(v for _, v in series) or 1.0
    lines = []
    for label, value in series:
        bar = "#" * max(0, int(round(value / peak * width)))
        lines.append(f"{str(label)[:label_width]:>{label_width}} |{bar} {value:g}")
    return "\n".join(lines)


class SensorDataGUI:
    """The Sensor Data GUI model: sensors as listed in one directory.

    Reads the LDAP tree (not the managers directly), exactly as the
    real GUI did — so it shows what any remote user would see.  Accepts
    either a raw directory client or a
    :class:`repro.client.MonitoringClient` facade (``jamm.client()``).
    """

    COLUMNS = ("sensor", "host", "type", "status", "frequency",
               "gateway")

    def __init__(self, directory: Any, *, suffix: Optional[str] = None):
        # suffix=None: the facade's suffix if one is passed, else o=grid
        self.directory, self.suffix = unwrap_directory(directory, suffix)

    def rows(self, filter_text: str = "(objectclass=sensor)") -> list[dict]:
        result = self.directory.search(f"ou=sensors,{self.suffix}",
                                       filter_text)
        out = []
        for entry in result.entries:
            out.append({
                "sensor": entry.first("sensor"),
                "host": entry.first("hostname"),
                "type": entry.first("sensortype"),
                "status": entry.first("status"),
                "frequency": entry.first("frequency"),
                "gateway": entry.first("gateway"),
                "sensorkey": entry.first("sensorkey"),
            })
        out.sort(key=lambda r: (r["host"] or "", r["sensor"] or ""))
        return out

    def detail(self, manager: Any, sensor_name: str) -> Optional[dict]:
        """Live detail for one sensor (duration, startup time, number of
        consumers, last message) — the columns the paper lists."""
        key = manager._resolve_name(sensor_name)
        if key is None:
            return None
        return manager.sensors[key].info()

    def render(self, filter_text: str = "(objectclass=sensor)") -> str:
        rows = self.rows(filter_text)
        return render_table(
            self.COLUMNS,
            [[r[c] for c in self.COLUMNS] for r in rows])


class SensorControlGUI:
    """The Sensor Control GUI model: start/stop/re-init sensors on any
    JAMM-managed host, via the managers' control surface."""

    def __init__(self, managers: dict):
        #: host name -> SensorManager
        self.managers = dict(managers)
        self.actions: list[tuple] = []

    def hosts(self) -> list[str]:
        return sorted(self.managers)

    def sensors_on(self, host: str) -> list[dict]:
        manager = self.managers[host]
        return manager.list_sensors()

    def start(self, host: str, sensor: str) -> bool:
        ok = self.managers[host].start_sensor(sensor, requested_by="gui")
        self.actions.append(("start", host, sensor, ok))
        return ok

    def stop(self, host: str, sensor: str) -> bool:
        ok = self.managers[host].stop_sensor(sensor, requested_by="gui")
        self.actions.append(("stop", host, sensor, ok))
        return ok

    def reinit(self, host: str, sensor: str) -> bool:
        ok = self.managers[host].reinit_sensor(sensor)
        self.actions.append(("reinit", host, sensor, ok))
        return ok

    def render(self) -> str:
        rows = []
        for host in self.hosts():
            for info in self.sensors_on(host):
                rows.append([host, info["name"], info["type"],
                             info["status"], f"{info['consumers']}"])
        return render_table(("host", "sensor", "type", "status", "consumers"),
                            rows)


class PortMonitorGUI:
    """The port monitor's GUI client: "reconfigure the type of
    monitoring to be done when a port is active, or add a new port of
    interest"."""

    def __init__(self, port_monitor: Any):
        self.port_monitor = port_monitor

    def watched(self) -> dict:
        return {port: list(names)
                for port, names in self.port_monitor.rules.items()}

    def add_port(self, port: int, sensor_names: list) -> None:
        self.port_monitor.add_rule(port, sensor_names)

    def set_monitoring(self, port: int, sensor_names: list) -> None:
        """Replace the sensor set triggered by ``port``."""
        self.port_monitor.remove_rule(port)
        self.port_monitor.add_rule(port, sensor_names)

    def render(self) -> str:
        info = self.port_monitor.info()
        rows = [[port, ", ".join(names)]
                for port, names in sorted(self.watched().items())]
        table = render_table(("port", "sensors triggered"), rows)
        return (f"{table}\n\ntriggers={info['triggers']} "
                f"releases={info['releases']} "
                f"active={', '.join(info['triggered']) or '(none)'}")
