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
:meth:`EventGateway.open`, which returns a first-class
:class:`SubscriptionHandle` (see :mod:`repro.core.subscriptions` and
the :mod:`repro.client` facade).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..simgrid.kernel import Simulator
from ..ulm import Frame, ULMMessage, serialize
from .filters import AllEvents, EventFilter, EventNames
from .subscriptions import (Delivery, SubscriptionHandle, SubscriptionMode,
                            SubscriptionSpec)
from .summaries import SummaryService

__all__ = ["EventGateway", "Subscription", "GatewayError", "GATEWAY_PORT"]

GATEWAY_PORT = 14840
#: port on which gateways accept forwarded events from remote sensor hosts
INTAKE_PORT = 14841


class GatewayError(RuntimeError):
    pass


@dataclass(slots=True)
class Subscription:
    """One consumer's event channel (or query registration)."""

    sub_id: int
    sensor_name: str
    mode: str                      # "stream" | "query"
    event_filter: EventFilter
    fmt: str = "ulm"
    callback: Optional[Callable] = None      # in-process delivery
    remote: Optional[tuple] = None           # (host, port) delivery
    #: ``(gateway name, sub id)``, sent beside every frame: the
    #: consumer's key to the owning handle
    wire_key: Optional[tuple] = None
    #: the stream's one source port on the gateway host, minted at open
    src_port: Optional[int] = None
    principal: Any = None
    delivered: int = 0
    filtered: int = 0
    #: the sensor's events_in when this subscription opened — lets the
    #: index path reconstruct ``filtered`` without touching skipped
    #: subscriptions per event (see _SensorHandle.reconcile_filtered)
    events_at_subscribe: int = 0
    #: True when routed through the NL.EVNT index (EventNames filter):
    #: ``filtered`` is then reconstructed by formula, never counted
    indexed: bool = False
    #: paused subscriptions are dropped from the fan-out structures, so
    #: the per-event hot path never sees them
    paused: bool = False
    #: sensor events_in when the current pause began (missed events are
    #: folded into ``filtered`` on resume / reconcile)
    pause_mark: int = 0
    #: the SubscriptionHandle this subscription was opened as — notified
    #: when the gateway tears the subscription down (reap, crash, or an
    #: out-of-band unsubscribe), so handle state can never go stale
    handle: Any = None
    #: consecutive undeliverable sends (dead-consumer detection; reset
    #: by the transport's delivery ack, so a flapping link that heals
    #: before ``reap_threshold`` failures never reaps a live consumer)
    fail_count: int = 0
    #: per-subscription failure/ack callbacks, built once at open time
    #: so the per-event remote path allocates nothing extra
    fail_cb: Optional[Callable] = None
    ok_cb: Optional[Callable] = None
    # -- backpressure (remote delivery only) --------------------------------
    #: bounded queue of rendered-but-unsent frames; the fast path (no
    #: throttle, empty queue) bypasses it entirely
    outbox: deque = field(default_factory=deque)
    outbox_limit: int = 256
    overflow_policy: str = "drop_oldest"
    #: events/s the drain pump releases; None = unthrottled
    drain_rate: Optional[float] = None
    #: True from the moment the outbox hits its cap until the consumer
    #: drains it to half (hysteresis, so the flag doesn't flap)
    overflow: bool = False
    blocked: bool = False       # block policy engaged (intake shed)
    degraded: bool = False      # degrade policy engaged (summary-only)
    outbox_peak: int = 0
    overflow_events: int = 0    # times the outbox hit its cap
    dropped_oldest: int = 0
    dropped_newest: int = 0
    dropped_blocked: int = 0
    shed_degraded: int = 0
    summaries_sent: int = 0
    #: degrade-window accounting feeding the summary event
    degrade_from: float = 0.0
    degrade_shed_mark: int = 0
    #: the scheduled drain-pump call, if one is pending
    pump: Any = None

    @property
    def shed_total(self) -> int:
        return (self.dropped_oldest + self.dropped_newest
                + self.dropped_blocked + self.shed_degraded)


@dataclass(slots=True)
class _SensorHandle:
    sensor: Any
    manager: Any = None
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
    #: stream subs reached only through ``by_event``
    indexed_subs: list = field(default_factory=list)

    def reindex(self) -> None:
        self.generic = []
        self.by_event = {}
        self.indexed_subs = []
        for sub in self.subscriptions:
            if sub.mode != "stream" or sub.paused:
                continue
            flt = sub.event_filter
            if type(flt) is EventNames:
                # the index *is* the filter: an event reaches exactly
                # the subs whose name set contains its NL.EVNT, so
                # accept() never runs for these
                for event_name in flt.names:
                    self.by_event.setdefault(event_name, []).append(sub)
                self.indexed_subs.append(sub)
            else:
                self.generic.append(
                    (sub, None if type(flt) is AllEvents else flt.accept))

    def reconcile_filtered(self) -> int:
        """Bring subscriptions' ``filtered`` counters current.

        The hot path never touches skipped subscriptions, so indexed
        counters are reconstructed on observation (every event ingested
        since subscribing was either delivered or filtered), and events
        missed by paused subscriptions are folded in.  Returns the
        number of pause-gap events newly accounted, so the gateway can
        keep its aggregate ``events_filtered`` consistent with the sum
        of the per-subscription counters."""
        pause_gap = 0
        for sub in self.subscriptions:
            if sub.mode != "stream":
                continue
            if sub.paused:
                gap = self.events_in - sub.pause_mark
                sub.pause_mark = self.events_in
                pause_gap += gap
                if not sub.indexed:
                    sub.filtered += gap
            if sub.indexed:
                # queued and shed events were routed to the sub but not
                # (or not yet) delivered — they are neither "filtered"
                # nor "delivered", so both subtract out
                sub.filtered = (self.events_in - sub.events_at_subscribe
                                - sub.delivered - sub.shed_total
                                - len(sub.outbox))
        return pause_gap


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
        self._subs: dict[int, Subscription] = {}
        # per-gateway id sequence: ids must not depend on how many
        # gateways (or simulations) ran earlier in the process
        self._sub_ids = itertools.count(1)
        self._summary_specs: dict[str, tuple] = {}  # sensor -> fields
        self.summaries = SummaryService(
            spans=summary_spans or (60.0, 600.0, 3600.0),
            directory=directory)
        self.events_in = 0
        self.events_delivered = 0
        self.events_filtered = 0
        #: malformed wires dropped at the intake port
        self.intake_decode_errors = 0
        # backpressure accounting — every shed event lands in exactly
        # one policy bucket, so drops are never silent
        self.events_shed = 0
        self.shed_by_policy = {"drop_oldest": 0, "drop_newest": 0,
                               "block": 0, "degrade": 0}
        self.sub_overflows = 0
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
        handle = self._handles.pop(sensor_name, None)
        if handle is None:
            return
        for sub in list(handle.subscriptions):
            self._subs.pop(sub.sub_id, None)
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
        indexed = len(handle.indexed_subs)
        if not generic and not indexed:
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
            if accept is not None and not accept(msg):
                sub.filtered += 1
                self.events_filtered += 1
                continue
            self._deliver(sub, msg, rendered, burst)
        if indexed:
            matching = handle.by_event.get(msg.event)
            if matching is not None:
                # the index already proved NL.EVNT membership; accept()
                # is not invoked for these subscriptions
                for sub in matching:
                    self._deliver(sub, msg, rendered, burst)
                self.events_filtered += indexed - len(matching)
            else:
                self.events_filtered += indexed
        if burst:
            self.transport.send_burst(self.host, burst)

    def _deliver(self, sub: Subscription, msg: ULMMessage,
                 rendered: dict, burst: list) -> None:
        if sub.callback is not None:
            sub.delivered += 1
            self.events_delivered += 1
            self.sim.call_in(0.0, sub.callback, msg)
        elif sub.remote is not None and self.transport is not None \
                and self.host is not None:
            frame = rendered.get(sub.fmt)
            if frame is None:
                frame = rendered[sub.fmt] = Frame.of(msg, sub.fmt)
            if sub.drain_rate is None and not sub.outbox \
                    and not sub.blocked and not sub.degraded:
                # fast path: unthrottled and nothing queued ahead
                sub.delivered += 1
                self.events_delivered += 1
                burst.append((*sub.remote, (sub.wire_key, frame), frame.size,
                              sub.src_port, sub.fail_cb, sub.ok_cb))
            else:
                self._enqueue(sub, msg, frame)

    def _send_frame(self, sub: Subscription, frame: Frame) -> None:
        dst_host, dst_port = sub.remote
        self.transport.send(self.host, dst_host, dst_port,
                            (sub.wire_key, frame),
                            size_bytes=frame.size, src_port=sub.src_port,
                            on_fail=sub.fail_cb,
                            on_delivered=sub.ok_cb)

    # -- backpressure: bounded outboxes + drain pump -----------------------------

    def _enqueue(self, sub: Subscription, msg: ULMMessage,
                 frame: Frame) -> None:
        """Queue one rendered event for a throttled/backed-up consumer,
        applying the subscription's overflow policy at the cap."""
        if sub.degraded:
            # summary-only until the queue drains: shed, but remember
            sub.shed_degraded += 1
            self.events_shed += 1
            self.shed_by_policy["degrade"] += 1
            self._ensure_pump(sub)
            return
        if sub.blocked:
            sub.dropped_blocked += 1
            self.events_shed += 1
            self.shed_by_policy["block"] += 1
            self._ensure_pump(sub)
            return
        if len(sub.outbox) >= sub.outbox_limit:
            sub.overflow = True
            sub.overflow_events += 1
            self.sub_overflows += 1
            self.events_shed += 1
            policy = sub.overflow_policy
            if policy == "drop_oldest":
                sub.outbox.popleft()
                sub.outbox.append(frame)
                sub.dropped_oldest += 1
                self.shed_by_policy["drop_oldest"] += 1
            elif policy == "drop_newest":
                sub.dropped_newest += 1
                self.shed_by_policy["drop_newest"] += 1
            elif policy == "block":
                # stop intake until the consumer drains to half the cap
                sub.blocked = True
                sub.dropped_blocked += 1
                self.shed_by_policy["block"] += 1
            else:  # degrade: stream becomes summary-only until drained
                sub.degraded = True
                sub.degrade_from = msg.date
                sub.degrade_shed_mark = sub.shed_degraded
                sub.shed_degraded += 1
                self.shed_by_policy["degrade"] += 1
        else:
            sub.outbox.append(frame)
            depth = len(sub.outbox)
            if depth > sub.outbox_peak:
                sub.outbox_peak = depth
                if depth > self.outbox_peak:
                    self.outbox_peak = depth
        self._ensure_pump(sub)

    def _ensure_pump(self, sub: Subscription) -> None:
        if sub.pump is not None or sub.paused or not self.up:
            return
        if not sub.outbox and not sub.degraded:
            return
        if sub.drain_rate is None:
            sub.pump = self.sim.call_soon(self._pump_one, sub)
        else:
            sub.pump = self.sim.call_in(1.0 / sub.drain_rate,
                                        self._pump_one, sub)

    def _pump_one(self, sub: Subscription) -> None:
        sub.pump = None
        if sub.sub_id not in self._subs or sub.paused or not self.up:
            return
        if sub.outbox:
            frame = sub.outbox.popleft()
            sub.delivered += 1
            self.events_delivered += 1
            self._send_frame(sub, frame)
        depth = len(sub.outbox)
        if depth * 2 <= sub.outbox_limit:
            sub.blocked = False
            sub.overflow = sub.overflow and sub.degraded
        if depth == 0 and sub.degraded:
            self._send_degrade_summary(sub)
            sub.degraded = False
            sub.overflow = False
        if sub.outbox:
            self._ensure_pump(sub)

    def _send_degrade_summary(self, sub: Subscription) -> None:
        """The degrade policy's catch-up event: one synthetic summary
        covering everything shed while the stream was summary-only."""
        shed = sub.shed_degraded - sub.degrade_shed_mark
        now = self.host.timestamp() if self.host is not None else self.sim.now
        summary = ULMMessage(
            date=now, host=self.host.name if self.host else self.name,
            prog=sub.sensor_name, lvl="Warning",
            event="SUB_DEGRADED_SUMMARY",
            fields={"SHED": shed, "FROM": sub.degrade_from, "TO": now})
        sub.summaries_sent += 1
        self._send_frame(sub, Frame.of(summary, sub.fmt))

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
        remote address).  Returns a :class:`SubscriptionHandle`; for
        callback/handle-buffered delivery, events route through the
        handle's dispatch so ``handle.events()`` and attached callbacks
        observe the stream.
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
        event_filter = spec.event_filter or AllEvents()
        sub = Subscription(sub_id=next(self._sub_ids),
                           sensor_name=spec.sensor,
                           mode=spec.mode.value,
                           event_filter=event_filter,
                           fmt=spec.fmt.value,
                           principal=spec.principal,
                           events_at_subscribe=sensor_handle.events_in,
                           indexed=(streaming
                                    and type(event_filter) is EventNames),
                           outbox_limit=spec.outbox_limit,
                           overflow_policy=spec.overflow)
        handle = SubscriptionHandle(self, spec, sub.sub_id)
        sub.handle = handle
        delivery = spec.delivery or Delivery.none()
        if delivery.kind == "callback":
            sub.callback = handle._dispatch
        elif delivery.kind == "remote":
            sub.remote = delivery.address
            sub.wire_key = (self.name, sub.sub_id)
            if self.transport is not None:
                sub.src_port = self.transport.ephemeral_port()
            sub.fail_cb = lambda exc, _s=sub: self._note_send_failure(_s)
            sub.ok_cb = lambda _msg, _s=sub: setattr(_s, "fail_count", 0)
            if sub.outbox_limit > self.outbox_limit_max:
                self.outbox_limit_max = sub.outbox_limit
        was_empty = not sensor_handle.subscriptions
        sensor_handle.subscriptions.append(sub)
        sensor_handle.reindex()
        sensor_handle.sensor.consumer_count = len(sensor_handle.subscriptions)
        self._subs[sub.sub_id] = sub
        if was_empty:
            self._set_forwarding(sensor_handle, True)
        if self.sim._sanitize is not None:
            self.sim._sanitize.track_handle(handle)
        return handle

    def unsubscribe(self, sub_id: int) -> bool:
        sub = self._subs.get(sub_id)
        if sub is None:
            return False
        final_stats = self.sub_stats(sub_id)
        del self._subs[sub_id]
        if sub.pump is not None:
            sub.pump.cancel()
            sub.pump = None
        if sub.outbox:
            # queued events die with the channel — accounted, and
            # recoverable via auto-heal replay since they were committed
            self.outbox_abandoned += len(sub.outbox)
            sub.outbox.clear()
        handle = self._handles.get(sub.sensor_name)
        if handle is not None:
            self.events_filtered += handle.reconcile_filtered()
            handle.subscriptions = [s for s in handle.subscriptions
                                    if s.sub_id != sub_id]
            handle.reindex()
            handle.sensor.consumer_count = len(handle.subscriptions)
            if not handle.subscriptions:
                self._set_forwarding(handle, False)
        if sub.handle is not None:
            # whatever tore the subscription down (handle.close, a reap,
            # an out-of-band unsubscribe), the handle ends consistent:
            # closed, with its final counters frozen
            sub.handle._mark_detached(final_stats)
        return True

    # -- dead-consumer reaping ---------------------------------------------------

    def _note_send_failure(self, sub: Subscription) -> None:
        """One undeliverable event for ``sub`` (down host / dead port /
        no route).  After ``reap_threshold`` *consecutive* failures
        (delivery acks reset the count) the consumer is declared dead
        and the subscription reaped — consumers reconnect and
        resubscribe through :mod:`repro.client`."""
        sub.fail_count += 1
        if sub.fail_count >= self.reap_threshold \
                and sub.sub_id in self._subs:
            self._reap(sub)

    def _reap(self, sub: Subscription) -> None:
        self.subs_reaped += 1
        handle = sub.handle
        self.unsubscribe(sub.sub_id)
        if handle is not None:
            handle.reaped = True

    # -- host fault hooks (called by Host.crash/restart) ----------------------------

    def on_host_down(self) -> None:
        """Gateway host crash: consumer-facing state (subscriptions) is
        ephemeral and dies with the process.  The sensor registry and
        summary specs survive — they are configuration, re-established
        by managers — but every consumer must resubscribe."""
        self.up = False
        for sub_id in list(self._subs):
            sub = self._subs[sub_id]
            self.subs_dropped_on_crash += 1
            handle = sub.handle
            self.unsubscribe(sub_id)
            if handle is not None:
                handle.reaped = True

    def on_host_up(self) -> None:
        self.up = True

    # -- flow control --------------------------------------------------------------

    def pause(self, sub_id: int) -> bool:
        """Stop deliveries for one subscription, keeping it registered.

        Paused subscriptions are dropped from the fan-out index, so the
        per-event hot path pays nothing for them; events missed while
        paused count as filtered."""
        sub = self._subs.get(sub_id)
        if sub is None or sub.mode != "stream" or sub.paused:
            return False
        handle = self._handles.get(sub.sensor_name)
        sub.paused = True
        sub.pause_mark = handle.events_in if handle is not None else 0
        if sub.pump is not None:
            # the outbox holds its contents across the pause; the pump
            # restarts on resume
            sub.pump.cancel()
            sub.pump = None
        if handle is not None:
            handle.reindex()
        return True

    def resume(self, sub_id: int) -> bool:
        sub = self._subs.get(sub_id)
        if sub is None or not sub.paused:
            return False
        handle = self._handles.get(sub.sensor_name)
        if handle is not None:
            # fold the pause gap into the counters: per-sub for generic
            # subs (indexed ones reconstruct by formula) and aggregate
            # for both, since ingest() never saw the paused sub
            gap = handle.events_in - sub.pause_mark
            self.events_filtered += gap
            if not sub.indexed:
                sub.filtered += gap
            sub.pause_mark = handle.events_in
        sub.paused = False
        if handle is not None:
            handle.reindex()
        self._ensure_pump(sub)
        return True

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
                transport.reply(msg, {"ok": self.unsubscribe(req["sub_id"])})
            elif op == "pause":
                transport.reply(msg, {"ok": self.pause(req["sub_id"])})
            elif op == "resume":
                transport.reply(msg, {"ok": self.resume(req["sub_id"])})
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

    def sub_stats(self, sub_id: int) -> Optional[dict]:
        """Current counters for one subscription (handles' ``.stats()``)."""
        sub = self._subs.get(sub_id)
        if sub is None:
            return None
        handle = self._handles.get(sub.sensor_name)
        if handle is not None:
            self.events_filtered += handle.reconcile_filtered()
        return {"sub_id": sub.sub_id, "sensor": sub.sensor_name,
                "mode": sub.mode, "fmt": sub.fmt,
                "delivered": sub.delivered, "filtered": sub.filtered,
                "paused": sub.paused,
                # backpressure surface (zeros for in-process delivery)
                "queued": len(sub.outbox),
                "outbox_limit": sub.outbox_limit,
                "outbox_peak": sub.outbox_peak,
                "overflow_policy": sub.overflow_policy,
                "overflow": (sub.overflow or sub.blocked or sub.degraded),
                "blocked": sub.blocked,
                "degraded": sub.degraded,
                "drain_rate": sub.drain_rate,
                "dropped": sub.shed_total,
                "dropped_oldest": sub.dropped_oldest,
                "dropped_newest": sub.dropped_newest,
                "dropped_blocked": sub.dropped_blocked,
                "shed_degraded": sub.shed_degraded,
                "summaries_sent": sub.summaries_sent}

    def stats(self) -> dict:
        for handle in self._handles.values():
            self.events_filtered += handle.reconcile_filtered()
        return {"name": self.name,
                "sensors": len(self._handles),
                "subscriptions": len(self._subs),
                "events_in": self.events_in,
                "events_delivered": self.events_delivered,
                "events_filtered": self.events_filtered,
                "intake_decode_errors": self.intake_decode_errors,
                "events_shed": self.events_shed,
                "shed_by_policy": dict(self.shed_by_policy),
                "sub_overflows": self.sub_overflows,
                "outbox_peak": self.outbox_peak,
                "outbox_limit_max": self.outbox_limit_max,
                "outbox_abandoned": self.outbox_abandoned,
                "queued": sum(len(s.outbox) for s in self._subs.values()),
                "subs_reaped": self.subs_reaped,
                "subs_dropped_on_crash": self.subs_dropped_on_crash,
                "up": self.up}

    def __repr__(self) -> str:  # pragma: no cover
        return f"<EventGateway {self.name} sensors={len(self._handles)}>"
