"""The JAMM event gateway (paper §2.2).

"Event gateways are responsible for listening for requests from event
consumers.  Event gateways can service 'streaming' or 'query' requests
from consumers.  In streaming mode the consumer opens an event channel
and the events are returned in a stream.  In query mode the consumer
does not open an event channel, but only requests the most recent
event."

The gateway also:

* applies consumer-requested filters (all / change-only / threshold /
  delta — :mod:`repro.core.filters`);
* computes summary data (1/10/60-minute averages —
  :mod:`repro.core.summaries`);
* enforces access control ("The event gateways can also be used to
  provide access control to the sensors, allowing different access to
  different classes of users", e.g. full streams on-site,
  summary-only off-site);
* relays sensor-start requests to sensor managers ("Starting new
  sensors is done by a request to a gateway, which then contacts a
  sensor manager", §7.1), so consumers never talk to managers directly;
* keeps the producer's cost flat in the number of consumers: one event
  crosses from the monitored host to the gateway once, and the gateway
  fans out (§2.3) — and nothing at all flows for sensors nobody
  subscribed to.  The gateway's own cost per consumer stays small: one
  event's unqueued remote deliveries leave as one ``send_burst``, each
  on its subscription's own source port, and ``AllEvents`` never runs.

Events cross both links as :class:`~repro.ulm.Frame` objects.  The
gateway renders each requested format at most once per event, hands its
``ulm`` subscribers the text it received at intake, and every recipient
of an event (remote consumers, callbacks, ``last_event``) holds the
*same* :class:`ULMMessage`, which nobody may mutate.  A malformed
intake wire is dropped and counted (``intake_decode_errors``).

Subscriptions are opened from a typed :class:`SubscriptionSpec` via
:meth:`EventGateway.open`.  The :class:`SubscriptionHandle` it returns
*is* the subscription (see :mod:`repro.core.subscriptions`): the
gateway keeps no record of its own beside it — ``_subs`` and the
per-sensor fan-out lists hold the handles, the outbox, overflow flag
and counters are the handle's slots — and every way a
subscription ends (``handle.close()``, the networked ``unsubscribe``
op, a dead-consumer reap, a host crash, a retired sensor) is
:meth:`EventGateway.unsubscribe`, after which the gateway no longer
touches the handle.  Nothing on the event path counts filtered events:
``filtered`` is derived from one identity on the handle, and
``events_filtered`` is the sum of those.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..simgrid.kernel import Simulator
from ..ulm import Frame, ULMMessage, serialize
from .filters import AllEvents, EventNames
from .subscriptions import (Delivery, SubscriptionHandle, SubscriptionMode,
                            SubscriptionSpec)
from .summaries import SummaryService

__all__ = ["EventGateway", "GatewayError", "GATEWAY_PORT"]

GATEWAY_PORT = 14840
#: port on which gateways accept forwarded events from remote sensor hosts
INTAKE_PORT = 14841


class GatewayError(RuntimeError):
    pass


@dataclass(slots=True)
class _SensorHandle:
    sensor: Any
    manager: Any = None
    #: every open :class:`SubscriptionHandle` on this sensor
    subscriptions: list = field(default_factory=list)
    last_event: Optional[ULMMessage] = None
    events_in: int = 0
    # fan-out index, rebuilt on subscription churn (rare) so the
    # per-event path (hot) never scans non-matching subscriptions:
    #: ``(sub, accept)`` for the stream subs ``ingest`` visits on every
    #: event: the filter's bound ``accept``, or None for ``AllEvents``
    #: (which is not evaluated)
    generic: list = field(default_factory=list)
    #: NL.EVNT -> stream subs whose EventNames filter names it
    by_event: dict = field(default_factory=dict)

    def reindex(self) -> None:
        self.generic = []
        self.by_event = {}
        for sub in self.subscriptions:
            if sub.spec.mode is not SubscriptionMode.STREAM:
                continue
            flt = sub.spec.event_filter
            if type(flt) is EventNames:
                # the index *is* the filter: an event reaches exactly
                # the subs whose name set contains its NL.EVNT, so
                # accept() never runs for these
                for event_name in flt.names:
                    self.by_event.setdefault(event_name, []).append(sub)
            else:
                self.generic.append(
                    (sub, None if flt is None or type(flt) is AllEvents
                     else flt.accept))


class EventGateway:  # repro: noqa[SLOT001] — one per world, not per event
    """One gateway instance (usually on its own host, §2.3)."""

    def __init__(self, sim: Simulator, *, name: str = "gw0",
                 host: Any = None, transport: Any = None,
                 directory: Any = None, authz: Any = None,
                 summary_spans=None, reap_threshold: int = 3):
        self.sim = sim
        self.name = name
        self.host = host
        self.transport = transport
        self.directory = directory
        self.authz = authz
        #: False while the gateway's host is crashed; nothing is
        #: ingested or accepted while down
        self.up = True
        #: undeliverable sends before a subscription is declared dead
        self.reap_threshold = reap_threshold
        self.subs_reaped = 0
        self.subs_dropped_on_crash = 0
        self._handles: dict[str, _SensorHandle] = {}
        self._subs: dict[int, SubscriptionHandle] = {}
        # per-gateway id sequence: ids must not depend on how many
        # gateways (or simulations) ran earlier in the process
        self._sub_ids = itertools.count(1)
        self._summary_specs: dict[str, tuple] = {}  # sensor -> fields
        self.summaries = SummaryService(
            spans=summary_spans or (60.0, 600.0, 3600.0),
            directory=directory)
        self.events_in = 0
        self.events_delivered = 0
        #: what torn-down subscriptions had filtered (see events_filtered)
        self._filtered_closed = 0
        #: malformed wires dropped at the intake port
        self.intake_decode_errors = 0
        # backpressure accounting: every event shed from a full outbox
        # is counted here and on its handle, so drops are never silent
        self.events_shed = 0
        self.outbox_peak = 0
        self.outbox_limit_max = 0
        #: events still queued when their subscription was torn down
        self.outbox_abandoned = 0
        if host is not None and transport is not None:
            host.ports.bind(GATEWAY_PORT, self._handle_request)
            host.ports.bind(INTAKE_PORT, self._handle_intake)
            host.register_service("gateway", self)

    # -- access control ---------------------------------------------------------

    def _authorize(self, principal: Any, action: str) -> None:
        if self.authz is not None:
            self.authz.require(principal, resource=f"gateway:{self.name}",
                               action=action)

    # -- sensor registration (called by sensor managers) ---------------------------

    def register_sensor(self, sensor: Any, *, manager: Any = None) -> None:
        if sensor.name in self._handles:
            raise GatewayError(f"sensor {sensor.name!r} already registered")
        self._handles[sensor.name] = _SensorHandle(sensor=sensor,
                                                   manager=manager)

    def unregister_sensor(self, sensor_name: str) -> None:
        """Retire a sensor; its subscribers are torn down as reaped."""
        handle = self._handles.get(sensor_name)
        if handle is None:
            return
        for sub in list(handle.subscriptions):
            self.unsubscribe(sub.sub_id, reaped=True)
        del self._handles[sensor_name]
        self._set_forwarding(handle, False)

    def sensors(self) -> list[str]:
        return sorted(self._handles)

    def _set_forwarding(self, handle: _SensorHandle, enabled: bool) -> None:
        """Turn the sensor→gateway data path on/off.  'Event data is not
        sent anywhere unless it is requested by a consumer' (§2.3)."""
        sensor = handle.sensor
        if enabled:
            if handle.manager is not None:
                handle.manager.enable_forwarding(sensor.name, self)
            else:
                sensor.sink = self.make_intake(sensor.name)
        else:
            if handle.manager is not None:
                handle.manager.disable_forwarding(sensor.name)
            else:
                sensor.sink = None

    def make_intake(self, sensor_name: str) -> Callable[[ULMMessage], None]:
        """The sink callable installed on a sensor (directly or via its
        manager's forwarding relay)."""
        def intake(msg: ULMMessage) -> None:
            self.ingest(sensor_name, msg)
        return intake

    # -- event path ---------------------------------------------------------------

    def ingest(self, sensor_name: str, msg: ULMMessage,
               frame: Optional[Frame] = None) -> None:
        """One event arrives from a sensor, with the ``frame`` it
        crossed the network in (that format is not rendered again)."""
        if not self.up:
            return  # a crashed gateway commits nothing
        handle = self._handles.get(sensor_name)
        if handle is None:
            return
        self.events_in += 1
        handle.events_in += 1
        handle.last_event = msg
        spec = self._summary_specs.get(sensor_name)
        if spec is not None:
            self.summaries.ingest_event(sensor_name, msg, spec)
        generic = handle.generic
        by_event = handle.by_event
        if not generic and not by_event:
            return  # nobody streams this sensor: no fan-out work at all
        # one render per distinct requested format, shared by every
        # delivery of this event (§2.3: the producer's cost must not
        # grow with the consumer count — neither should the gateway's
        # rendering cost)
        rendered: dict[str, Frame] = \
            {} if frame is None else {frame.fmt: frame}
        # the event's unqueued remote deliveries, in fan-out order: they
        # leave this host at one instant, as one transport operation
        burst: list = []
        for sub, accept in generic:
            if accept is None or accept(msg):
                self._deliver(sub, msg, rendered, burst)
        # the index already proved NL.EVNT membership; accept() is not
        # invoked for these subscriptions
        for sub in by_event.get(msg.event, ()):
            self._deliver(sub, msg, rendered, burst)
        if burst:
            self.transport.send_burst(self.host, burst)

    def _deliver(self, sub: SubscriptionHandle, msg: ULMMessage,
                 rendered: dict, burst: list) -> None:
        if sub.remote is None:
            # in-process: events route through the handle's dispatch, so
            # ``handle.events()`` and attached callbacks observe them
            sub.delivered += 1
            self.events_delivered += 1
            self.sim.call_soon(sub._dispatch, msg)
        elif self.transport is not None and self.host is not None:
            frame = rendered.get(sub.wire_fmt)
            if frame is None:
                frame = rendered[sub.wire_fmt] = Frame.of(msg, sub.wire_fmt)
            if sub.drain_rate is None and not sub.outbox:
                # fast path: unthrottled and nothing queued ahead
                sub.delivered += 1
                self.events_delivered += 1
                burst.append((*sub.remote, (sub.wire_key, frame), frame.size,
                              sub.src_port, sub.fail_cb, sub.ok_cb))
            else:
                self._enqueue(sub, frame)

    # -- backpressure: bounded outboxes + drain pump -----------------------------

    def _enqueue(self, sub: SubscriptionHandle, frame: Frame) -> None:
        """Queue one rendered event for a throttled/backed-up consumer;
        a full outbox sheds its oldest frame to make room."""
        if len(sub.outbox) >= sub.spec.outbox_limit:
            sub.outbox.popleft()
            sub.outbox.append(frame)
            sub.overflow = True
            sub.dropped += 1
            self.events_shed += 1
        else:
            sub.outbox.append(frame)
            depth = len(sub.outbox)
            if depth > sub.outbox_peak:
                sub.outbox_peak = depth
                if depth > self.outbox_peak:
                    self.outbox_peak = depth
        self._ensure_pump(sub)

    def _ensure_pump(self, sub: SubscriptionHandle) -> None:
        if sub.pump is not None or not sub.outbox or not self.up:
            return
        if sub.drain_rate is None:
            sub.pump = self.sim.call_soon(self._pump_one, sub)
        else:
            sub.pump = self.sim.call_in(1.0 / sub.drain_rate,
                                        self._pump_one, sub)

    def _pump_one(self, sub: SubscriptionHandle) -> None:
        """Send the outbox's oldest frame, then schedule the next."""
        sub.pump = None
        if sub.closed or not self.up or not sub.outbox:
            return
        frame = sub.outbox.popleft()
        sub.delivered += 1
        self.events_delivered += 1
        dst_host, dst_port = sub.remote
        self.transport.send(self.host, dst_host, dst_port,
                            (sub.wire_key, frame),
                            size_bytes=frame.size, src_port=sub.src_port,
                            on_fail=sub.fail_cb,
                            on_delivered=sub.ok_cb)
        if sub.closed:
            return  # undeliverable once too often: the send reaped it
        if len(sub.outbox) * 2 <= sub.spec.outbox_limit:
            sub.overflow = False
        self._ensure_pump(sub)

    def throttle_consumer(self, host_name: str,
                          rate: Optional[float]) -> int:
        """Cap (or with ``None``, uncap) the drain rate of every remote
        subscription delivering to ``host_name``.  Returns how many
        subscriptions were touched.  This is the ``slow_consumer``
        fault's hook, and a deliberate knob for staged rollouts."""
        touched = 0
        for sub in self._subs.values():
            if sub.remote is None:
                continue
            dst = sub.remote[0]
            if getattr(dst, "name", dst) != host_name:
                continue
            sub.drain_rate = rate
            touched += 1
            self._ensure_pump(sub)
        return touched

    # -- subscription API ------------------------------------------------------------

    def open(self, spec: SubscriptionSpec) -> SubscriptionHandle:
        """Open a subscription described by ``spec``; the primary API.

        Streaming specs need a resolved delivery path (callback or
        remote address).  Returns the :class:`SubscriptionHandle`.
        """
        if not self.up:
            raise GatewayError(f"gateway {self.name} is down")
        spec.validate()
        streaming = spec.mode is SubscriptionMode.STREAM
        self._authorize(spec.principal,
                        "events.stream" if streaming else "events.query")
        sensor_handle = self._handles.get(spec.sensor)
        if sensor_handle is None:
            raise GatewayError(f"gateway {self.name} fronts no sensor "
                               f"{spec.sensor!r}")
        sub = SubscriptionHandle(self, spec, next(self._sub_ids),
                                 sensor_handle)
        if sub.remote is not None:
            if self.transport is not None:
                sub.src_port = self.transport.ephemeral_port()
            sub.fail_cb = lambda exc, _s=sub: self._note_send_failure(_s)
            sub.ok_cb = lambda _msg, _s=sub: setattr(_s, "fail_count", 0)
            if spec.outbox_limit > self.outbox_limit_max:
                self.outbox_limit_max = spec.outbox_limit
        was_empty = not sensor_handle.subscriptions
        sensor_handle.subscriptions.append(sub)
        sensor_handle.reindex()
        sensor_handle.sensor.consumer_count = len(sensor_handle.subscriptions)
        self._subs[sub.sub_id] = sub
        if was_empty:
            self._set_forwarding(sensor_handle, True)
        if self.sim._sanitize is not None:
            self.sim._sanitize.track_handle(sub)
        return sub

    def unsubscribe(self, sub_id: int, *, reaped: bool = False) -> bool:
        """The one teardown path: ``handle.close()``, the networked
        ``unsubscribe`` op, the dead-consumer reap, a gateway crash and
        a retired sensor (the last three with ``reaped``) all end here."""
        sub = self._subs.pop(sub_id, None)
        if sub is None:
            return False
        if sub.pump is not None:
            sub.pump.cancel()
            sub.pump = None
        sensor_handle = sub._sensor
        # freeze the two live terms of the ``filtered`` identity; every
        # other counter simply stops being written.  Queued events die
        # with the channel — accounted, and recoverable via auto-heal
        # replay since they were committed
        sub._queued_end = len(sub.outbox)
        sub._events_end = sensor_handle.events_in
        self.outbox_abandoned += sub._queued_end
        sub.outbox.clear()
        self._filtered_closed += sub.filtered
        sub.closed = True
        sub.reaped = reaped
        sensor_handle.subscriptions.remove(sub)
        sensor_handle.reindex()
        sensor_handle.sensor.consumer_count = len(sensor_handle.subscriptions)
        if not sensor_handle.subscriptions:
            self._set_forwarding(sensor_handle, False)
        return True

    # -- dead-consumer reaping ---------------------------------------------------

    def _note_send_failure(self, sub: SubscriptionHandle) -> None:
        """One undeliverable event for ``sub`` (down host / dead port /
        no route).  After ``reap_threshold`` *consecutive* failures
        (delivery acks reset the count) the consumer is declared dead
        and the subscription reaped — consumers reconnect and
        resubscribe through :mod:`repro.client`."""
        sub.fail_count += 1
        if sub.fail_count >= self.reap_threshold and not sub.closed:
            self.subs_reaped += 1
            self.unsubscribe(sub.sub_id, reaped=True)

    # -- host fault hooks (called by Host.crash/restart) ----------------------------

    def on_host_down(self) -> None:
        """Gateway host crash: consumer-facing state (subscriptions) is
        ephemeral and dies with the process.  The sensor registry and
        summary specs survive — they are configuration, re-established
        by managers — but every consumer must resubscribe."""
        self.up = False
        for sub_id in list(self._subs):
            self.subs_dropped_on_crash += 1
            self.unsubscribe(sub_id, reaped=True)

    def on_host_up(self) -> None:
        self.up = True

    # -- query mode ----------------------------------------------------------------

    def query(self, sensor_name: str, *, principal: Any = None) -> Optional[ULMMessage]:
        """Query mode: the most recent event (no channel)."""
        self._authorize(principal, "events.query")
        handle = self._handles.get(sensor_name)
        if handle is None:
            raise GatewayError(f"no such sensor {sensor_name!r}")
        return handle.last_event

    # -- summaries ----------------------------------------------------------------------

    def summarize(self, sensor_name: str, fields: tuple) -> None:
        """Enable summary computation over ``fields`` of a sensor; turns
        on forwarding so the windows actually fill."""
        self._summary_specs[sensor_name] = tuple(fields)
        handle = self._handles.get(sensor_name)
        if handle is not None and not handle.subscriptions:
            self._set_forwarding(handle, True)

    def summary(self, sensor_name: str, field_name: str, *,
                principal: Any = None) -> Optional[dict]:
        """Read the 1/10/60-minute summary snapshot for one series.

        Off-site users whose policy denies ``events.stream`` may still
        be allowed ``summary.read`` — the §2.2 policy example.
        """
        self._authorize(principal, "summary.read")
        return self.summaries.snapshot(sensor_name, field_name,
                                       now=self.sim.now)

    # -- manager control relay --------------------------------------------------------------

    def request_sensor_start(self, manager: Any, sensor_name: str, *,
                             principal: Any = None) -> bool:
        """Consumer-initiated sensor start, via the gateway (§7.1)."""
        self._authorize(principal, "sensors.control")
        return manager.start_sensor(sensor_name, requested_by=f"gateway:{self.name}")

    def _handle_intake(self, msg, _transport) -> None:
        """Events forwarded from a remote sensor host (one message per
        event, regardless of consumer count — §2.3)."""
        sensor_name, frame = msg.payload
        try:
            event = frame.message()
        except ValueError:
            self.intake_decode_errors += 1
            return
        self.ingest(sensor_name, event, frame)

    # -- networked request handling ------------------------------------------------------------

    def _handle_request(self, msg, transport) -> None:
        req = msg.payload
        op = req.get("op")
        try:
            if op == "subscribe":
                spec = SubscriptionSpec.from_request(req)
                if "port" in req:
                    spec = spec.replace(
                        delivery=Delivery.remote(msg.src_host, req["port"]))
                handle = self.open(spec)
                transport.reply(msg, {"ok": True, "sub_id": handle.sub_id})
            elif op == "unsubscribe":
                # §7.1: a stream is its consumer's to end — the host it
                # delivers to — not any host that can guess an integer
                sub = self._subs.get(req["sub_id"])
                if sub is not None and (sub.remote is None
                                        or sub.remote[0] is not msg.src_host):
                    raise GatewayError(f"subscription {sub.sub_id} is not "
                                       f"delivered to {msg.src_host.name}")
                transport.reply(msg, {"ok": self.unsubscribe(req["sub_id"])})
            elif op == "query":
                event = self.query(req["sensor"],
                                   principal=req.get("principal"))
                transport.reply(msg, {"ok": True,
                                      "event": serialize(event) if event else None})
            elif op == "summary":
                snap = self.summary(req["sensor"], req["field"],
                                    principal=req.get("principal"))
                transport.reply(msg, {"ok": True, "summary": snap})
            else:
                transport.reply(msg, {"ok": False,
                                      "error": f"unknown op {op!r}"})
        except Exception as exc:  # noqa: BLE001 - marshalled to consumer
            transport.reply(msg, {"ok": False,
                                  "error": f"{type(exc).__name__}: {exc}"})

    # -- diagnostics ---------------------------------------------------------------------------

    @property
    def events_filtered(self) -> int:
        """Nothing counts filtered events: the total is the sum of the
        per-subscription identities (``SubscriptionHandle.filtered``),
        live ones now plus what torn-down ones ended with."""
        return self._filtered_closed + sum(
            sub.filtered for sub in self._subs.values())

    def stats(self) -> dict:
        return {"name": self.name,
                "sensors": len(self._handles),
                "subscriptions": len(self._subs),
                "events_in": self.events_in,
                "events_delivered": self.events_delivered,
                "events_filtered": self.events_filtered,
                "intake_decode_errors": self.intake_decode_errors,
                "events_shed": self.events_shed,
                "outbox_peak": self.outbox_peak,
                "outbox_limit_max": self.outbox_limit_max,
                "outbox_abandoned": self.outbox_abandoned,
                "queued": sum(len(s.outbox) for s in self._subs.values()),
                "subs_reaped": self.subs_reaped,
                "subs_dropped_on_crash": self.subs_dropped_on_crash,
                "up": self.up}

    def __repr__(self) -> str:  # pragma: no cover
        return f"<EventGateway {self.name} sensors={len(self._handles)}>"
