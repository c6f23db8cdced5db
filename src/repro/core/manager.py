"""The JAMM sensor manager agent (paper §2.2).

"The sensor manager agent is responsible for starting and stopping the
sensors, and keeping the sensor directory up to date.  Sensors to be
run are specified by a configuration file, which may be local or on a
remote HTTP server. ... There is typically one sensor manager per
host."

And §5.0: "Every few minutes the sensor managers check for updates to
the configuration file, and activate new sensors if necessary,
publishing them in the sensor directory."

The manager also owns the sensor→gateway forwarding switches: data
leaves the monitored host only while the gateway reports at least one
interested consumer (§2.3).

Self-healing: the manager *supervises* its sensors.  Each sensor's
sampling loop stamps a heartbeat (:attr:`Sensor.last_beat`); a
supervision pass every ``supervision_interval`` seconds restarts
sensors whose loop died (killed process) or went silent (wedged), with
per-sensor exponential backoff so a crash-looping sensor cannot hog
the host.  Host crash/restart is handled through the
``on_host_down``/``on_host_up`` service hooks: a restart brings back
exactly the sensors that were running and republishes the directory.
"""

from __future__ import annotations

from typing import Any, Optional

from ..simgrid.kernel import Timeout
from ..simgrid.sockets import ignore_failure
from ..ulm import Frame
from .config import ConfigError, JAMMConfig
from .gateway import EventGateway, INTAKE_PORT
from .portmon import PortMonitorAgent
from .resilience import ResilienceConfig, ResiliencePolicy
from .sensors.registry import create_sensor

__all__ = ["SensorManager", "ManagerError"]


class ManagerError(RuntimeError):
    pass


#: resilience edge names (per-edge counters in ``resilience.stats()``)
_EDGE_RESTART = "manager.restart"
_EDGE_PUBLISH = "manager.publish"


class SensorManager:
    """One per host; config-driven sensor lifecycle + directory upkeep."""

    def __init__(self, sim, host, *, gateway: EventGateway,
                 directory: Any = None, transport: Any = None,
                 config: Optional[JAMMConfig] = None,
                 config_http: Optional[tuple] = None,
                 refresh_interval: float = 120.0,
                 sensor_context: Optional[dict] = None,
                 suffix: str = "o=grid",
                 supervision_interval: Optional[float] = 5.0,
                 resilience: Optional[ResiliencePolicy] = None):
        self.sim = sim
        self.host = host
        self.gateway = gateway
        self.directory = directory
        self.transport = transport
        self.config = config if config is not None else JAMMConfig()
        #: (HTTPServer, path) for remote configuration, or None for local
        self.config_http = config_http
        self.refresh_interval = refresh_interval
        #: per-sensor-type extra constructor kwargs (e.g. snmp manager)
        self.sensor_context = dict(sensor_context or {})
        self.suffix = suffix
        self.sensors: dict[str, Any] = {}
        self.port_monitor: Optional[PortMonitorAgent] = None
        self.running = False
        self.config_version: Optional[str] = None
        self.config_reloads = 0
        self.start_requests: list[tuple] = []
        self._refresher = None
        #: None disables supervision entirely (no process is spawned)
        self.supervision_interval = supervision_interval
        #: supervisor restarts performed (crash-loop visibility)
        self.sensor_restarts = 0
        #: the subset of restarts triggered by sample-quality wedges
        #: (lossy-but-alive sensors), not dead/silent loops
        self.quality_restarts = 0
        self._supervisor = None
        #: restart backoff gates + publish counters live on the policy
        #: (``manager.restart`` / ``manager.publish`` edges), and its
        #: config is the one place the restart backoff is set: 1 s →
        #: ×2 → 60 s without jitter unless the caller supplies a policy
        self.resilience = resilience if resilience is not None else \
            ResiliencePolicy(sim, ResilienceConfig(backoff_base=1.0,
                                                   backoff_max=60.0),
                             name=f"manager[{host.name}]")
        #: sensors that were running when the host crashed
        self._resume_after_crash: list[str] = []
        host.register_service("sensor-manager", self)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        if self.config_http is not None:
            self._fetch_config_now()
        self._apply_config(initial=True)
        self._spawn_loops()

    def stop(self) -> None:
        self.running = False
        self._kill_loops()
        if self.port_monitor is not None:
            self.port_monitor.stop()
        for name in list(self.sensors):
            self.stop_sensor(name)

    def _spawn_loops(self) -> None:
        """The config refresh loop (when configured over HTTP), then the
        supervisor (unless supervision is off)."""
        if self.config_http is not None:
            self._refresher = self.sim.spawn(
                self._refresh_loop(), name=f"mgr-refresh[{self.host.name}]")
        if self.supervision_interval is not None:
            self._supervisor = self.sim.spawn(
                self._supervise_loop(), name=f"mgr-supervise[{self.host.name}]")

    def _kill_loops(self) -> None:
        for proc in (self._refresher, self._supervisor):
            if proc is not None and proc.alive:
                proc.kill()
        self._refresher = None
        self._supervisor = None

    # -- configuration -------------------------------------------------------------

    def _fetch_config_now(self) -> bool:
        """Synchronously load the HTTP config document (a local fetch,
        at start and at every refresh); True if a new version loaded."""
        server, path = self.config_http
        try:
            doc = server.get_local(path)
        except Exception:
            return False
        return self._ingest_config_doc(doc.body, f"v{doc.version}")

    def _ingest_config_doc(self, body: Any, version: str) -> bool:
        if version == self.config_version:
            return False
        try:
            new_config = (body if isinstance(body, JAMMConfig)
                          else JAMMConfig.from_text(str(body)))
        except ConfigError:
            return False  # bad config pushes are ignored, not fatal
        self.config = new_config
        self.config_version = version
        self.config_reloads += 1
        return True

    def _refresh_loop(self):
        while self.running:
            yield Timeout(self.refresh_interval)
            if self._fetch_config_now():
                self._apply_config()

    def _apply_config(self, *, initial: bool = False) -> None:
        wanted = self.config.sensors
        # stop and retire sensors that left the config
        for name in [n for n in self.sensors if n not in wanted]:
            self.stop_sensor(name)
            self.gateway.unregister_sensor(self.sensors[name].name)
            self._directory_delete(name)
            del self.sensors[name]
        # create newly-configured sensors
        for name, spec in wanted.items():
            if name not in self.sensors:
                self._create_sensor(name, spec)
            if spec.mode == "always":
                self.start_sensor(name, requested_by="config")
        # port monitor
        rules = self.config.on_demand_ports()
        if self.config.portmon is not None or rules:
            pm_conf = self.config.portmon
            if self.port_monitor is None:
                self.port_monitor = PortMonitorAgent(
                    self.sim, self.host, manager=self,
                    poll=pm_conf.poll if pm_conf else 1.0,
                    idle_timeout=pm_conf.idle_timeout if pm_conf else 30.0)
            self.port_monitor.set_rules(rules)
            self.port_monitor.start()
        elif self.port_monitor is not None:
            self.port_monitor.stop()

    def _create_sensor(self, name: str, spec) -> Any:
        kwargs = dict(spec.args)
        kwargs.update(self.sensor_context.get(spec.sensor_type, {}))
        if spec.period is not None:
            kwargs["period"] = spec.period
        # the gateway may front sensors from many hosts, so its key (the
        # sensor's full name) is host-qualified; the manager and the
        # directory DN keep the short config name
        sensor = create_sensor(spec.sensor_type, self.host,
                               name=f"{name}@{self.host.name}", **kwargs)
        self.sensors[name] = sensor
        self.gateway.register_sensor(sensor, manager=self)
        self._directory_publish(name, sensor, status="stopped")
        return sensor

    # -- sensor control (GUI / gateway / port monitor entry points) ------------------

    def _resolve_name(self, name: str) -> Optional[str]:
        """Accept either the short config name or the host-qualified
        gateway key."""
        if name in self.sensors:
            return name
        suffix = f"@{self.host.name}"
        if name.endswith(suffix):
            short = name[:-len(suffix)]
            if short in self.sensors:
                return short
        return None

    def start_sensor(self, name: str, *, requested_by: str = "manual") -> bool:
        key = self._resolve_name(name)
        if key is None:
            raise ManagerError(f"no sensor {name!r} on {self.host.name}")
        sensor = self.sensors[key]
        self.start_requests.append((self.sim.now, key, requested_by))
        if sensor.running:
            return False
        sensor.start()
        self._directory_publish(key, sensor, status="running")
        return True

    def stop_sensor(self, name: str, *, requested_by: str = "manual") -> bool:
        key = self._resolve_name(name)
        if key is None:
            return False
        sensor = self.sensors[key]
        if not sensor.running:
            return False
        sensor.stop()
        self._directory_publish(key, sensor, status="stopped")
        return True

    def reinit_sensor(self, name: str) -> bool:
        """Sensor Control GUI 're-initialization' (§5.0)."""
        if self.stop_sensor(name, requested_by="reinit"):
            return self.start_sensor(name, requested_by="reinit")
        return self.start_sensor(name, requested_by="reinit")

    def list_sensors(self) -> list:
        """Sensor Data GUI surface: status of every managed sensor."""
        return [self.sensors[name].info() for name in sorted(self.sensors)]

    # -- supervision (self-healing) ------------------------------------------------

    def _supervise_loop(self):
        while self.running:
            yield Timeout(self.supervision_interval)
            if self.running:
                self.check_sensors()

    def _sensor_dead(self, sensor) -> bool:
        """A sensor that should be running but whose loop died or went
        silent.  The heartbeat tolerance is generous (three periods, or
        one supervision interval if that is longer) so slow sensors are
        never restarted spuriously."""
        proc = getattr(sensor, "_proc", None)
        if proc is None or not proc.alive:
            return True
        beat = sensor.last_beat if sensor.last_beat is not None \
            else sensor.started_at
        tolerance = max(3.0 * sensor.period, self.supervision_interval or 0.0)
        return (self.sim.now - beat) > tolerance

    def _sensor_lossy(self, sensor) -> bool:
        """A lossy-but-alive sensor: the loop beats (so
        :meth:`_sensor_dead` says healthy) but its *samples* went bad —
        corrupt or stale fields, or samples silently vanishing.  Judged
        purely from the quality heartbeats the sensor derives from its
        own output: the last good sample has gone stale while bad
        emissions are fresh.  A legitimately quiet sensor (no emissions
        at all) never trips this — there must be recent evidence of
        badness, not mere silence."""
        good = getattr(sensor, "last_good_beat", None)
        if good is None:
            return False  # never emitted a good sample; nothing to compare
        bad = getattr(sensor, "last_bad_emit", None)
        if bad is None:
            return False
        now = self.sim.now
        tolerance = max(3.0 * sensor.period,
                        self.supervision_interval or 0.0)
        return (now - good) > tolerance and (now - bad) <= tolerance

    def check_sensors(self) -> int:
        """One supervision pass; returns the number of restarts.

        Dead sensors are restarted immediately the first time; a sensor
        that keeps dying waits out an exponentially growing per-sensor
        backoff between attempts (reset when it is seen healthy).
        Lossy-but-alive sensors (wedged output quality, live loop) take
        the same restart path — a fresh sampling process sheds whatever
        was corrupting the old one.
        """
        restarted = 0
        now = self.sim.now
        policy = self.resilience
        for name in sorted(self.sensors):
            sensor = self.sensors[name]
            if not sensor.running:
                continue  # stopped on purpose — not the supervisor's call
            dead = self._sensor_dead(sensor)
            lossy = not dead and self._sensor_lossy(sensor)
            if not dead and not lossy:
                policy.clear_gate(_EDGE_RESTART, name)
                continue
            if not policy.retry_ready(_EDGE_RESTART, name, now=now):
                continue  # backing off after a recent failed restart
            sensor.stop()
            sensor.start()
            sensor.restarts += 1
            self.sensor_restarts += 1
            if lossy:
                self.quality_restarts += 1
            restarted += 1
            # a restart is only proven good when the sensor is later
            # seen healthy (the clear_gate above): until then it backs
            # off like a failure — crash loops cannot hog the host
            policy.gate_failure(_EDGE_RESTART, name, now=now)
            self._directory_publish(name, sensor, status="running")
        return restarted

    # -- host fault hooks (called by Host.crash/restart) ------------------------------

    def on_host_down(self) -> None:
        """The host died: every local loop dies with it.  Sensor state
        is snapshotted so a restart resumes exactly what was running;
        nothing is published (a dead host cannot reach the directory).
        """
        self._resume_after_crash = [n for n in sorted(self.sensors)
                                    if self.sensors[n].running]
        self.running = False
        self._kill_loops()
        if self.port_monitor is not None:
            self.port_monitor.stop()
        for name in self._resume_after_crash:
            self.sensors[name].stop()
        self.resilience.reset_gates(_EDGE_RESTART)

    def on_host_up(self) -> None:
        """Host restart: resume the pre-crash sensor set, restart the
        refresh/supervision loops, and republish directory entries."""
        if self.running:
            return
        self.running = True
        for name in self._resume_after_crash:
            if name in self.sensors:
                self.start_sensor(name, requested_by="host-restart")
        self._resume_after_crash = []
        for name in sorted(self.sensors):
            status = "running" if self.sensors[name].running else "stopped"
            self._directory_publish(name, self.sensors[name], status=status)
        if self.port_monitor is not None:
            self.port_monitor.start()
        self._spawn_loops()

    # -- forwarding switches (called by the gateway) ------------------------------------

    def enable_forwarding(self, sensor_name: str, gateway: EventGateway) -> None:
        key = self._resolve_name(sensor_name)
        if key is None:
            return
        sensor = self.sensors[key]
        if (gateway.host is None or self.transport is None
                or gateway.host is self.host):
            sensor.sink = gateway.make_intake(sensor.name)
        else:
            sensor.sink = self._remote_relay(sensor.name, gateway)

    def disable_forwarding(self, sensor_name: str) -> None:
        key = self._resolve_name(sensor_name)
        if key is not None:
            self.sensors[key].sink = None

    def _remote_relay(self, sensor_name: str, gateway: EventGateway):
        transport = self.transport
        src = self.host
        dst = gateway.host
        src_port = transport.ephemeral_port()   # the stream's one port

        def relay(msg) -> None:
            # the event's one encode: the gateway reads the frame's
            # message and hands this same ULM text to its subscribers
            frame = Frame.of(msg, "ulm")
            transport.send(src, dst, INTAKE_PORT, (sensor_name, frame),
                           size_bytes=frame.size, src_port=src_port,
                           on_fail=ignore_failure)
        return relay

    # -- directory upkeep -------------------------------------------------------------------

    def _sensor_dn(self, name: str) -> str:
        return f"sensor={name},host={self.host.name},ou=sensors,{self.suffix}"

    def _directory_publish(self, name: str, sensor, *, status: str) -> None:
        if self.directory is None:
            return
        attrs = {"objectclass": "sensor",
                 "sensorkey": sensor.name,  # the gateway subscription key
                 "sensortype": sensor.sensor_type,
                 "hostname": self.host.name,
                 "status": status,
                 "frequency": f"{1.0 / sensor.period:.6f}",
                 "gateway": self.gateway.name}
        if self.gateway.host is not None:
            attrs["gatewayhost"] = self.gateway.host.name
        counters = self.resilience.edge(_EDGE_PUBLISH)
        counters["attempts"] += 1
        try:
            self.directory.publish(self._sensor_dn(name), attrs)
        except Exception:
            # directory outage must not take sensors down (§2.2) — but
            # it must not be silent either: the failure lands in the
            # publish edge counters and the directory's health record
            counters["failures"] += 1
            self.resilience.health(("directory", "publish")).record(False)

    def _directory_delete(self, name: str) -> None:
        if self.directory is None:
            return
        try:
            self.directory.delete(self._sensor_dn(name))
        except Exception:
            pass

    # -- RMI export ----------------------------------------------------------------------------

    def bind_rmi(self, daemon, *, name: Optional[str] = None) -> str:
        """Expose the manager's control surface as an RMI object."""
        bound = name or f"sensor-manager/{self.host.name}"
        daemon.bind(bound, self)
        return bound

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<SensorManager {self.host.name} sensors={len(self.sensors)} "
                f"{'running' if self.running else 'stopped'}>")
