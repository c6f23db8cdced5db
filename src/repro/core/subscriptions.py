"""Typed subscription specs and first-class subscription handles.

The paper's consumer flow (§2.2) — directory lookup → gateway subscribe
→ event stream / query — used to be spread over stringly-typed kwargs
(``mode="stream"``, ``fmt="ulm"``) returning bare integer ids that
consumers hand-tracked as ``(gateway, sub_id)`` tuples.  This module is
the typed substrate both the gateway and the ``repro.client`` facade
build on:

* :class:`SubscriptionSpec` — a declarative description of one
  subscription (sensor, mode, wire format, event filter, delivery
  path, principal), validated before it touches a gateway;
* :class:`SubscriptionHandle` — the object a subscription *is*, for
  the consumer (iterate received events, query the latest one, read
  the counters, pause/resume the stream, close) and for the gateway,
  which keeps its per-subscription state — delivery target, outbox,
  backpressure flags, counters — in the handle's slots and nowhere
  else.  ``filtered`` is derived, not counted: one identity, stated on
  the class.

Specs serialize to plain dicts (:meth:`SubscriptionSpec.to_request`) so
the networked consumer path can ship them over the wire unchanged.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterator, Optional

from .filters import EventFilter, filter_from_dict

__all__ = ["SubscriptionMode", "WireFormat", "Delivery", "SubscriptionSpec",
           "SubscriptionHandle", "SpecError", "DEFAULT_BUFFER_LIMIT",
           "DEFAULT_OUTBOX_LIMIT", "OVERFLOW_POLICIES", "sensor_key_for"]

#: how many delivered events a handle retains for ``.events()``
DEFAULT_BUFFER_LIMIT = 256

#: gateway-side outbox cap for remote subscriptions (events queued for
#: a consumer that drains slower than the sensor produces)
DEFAULT_OUTBOX_LIMIT = 256

#: what a gateway does when a remote subscription's outbox is full:
#: ``drop_oldest``/``drop_newest`` shed one event (auto-heal replay
#: recovers committed ones), ``block`` stops intake until the consumer
#: drains to half the cap, ``degrade`` flips the stream to summary-only
#: until the queue empties.  All four account every shed event.
OVERFLOW_POLICIES = ("block", "drop_oldest", "drop_newest", "degrade")


def sensor_key_for(entry: Any) -> str:
    """The gateway subscription key a directory entry describes.

    The single source of truth for the ``sensorkey`` → ``sensor`` →
    RDN-value fallback used by consumers and the client facade alike.
    """
    return (entry.first("sensorkey") or entry.first("sensor")
            or entry.dn.rdn[1])


class SpecError(ValueError):
    """A subscription spec is malformed (bad mode/format, missing
    delivery path, empty sensor name, ...)."""


class SubscriptionMode(str, Enum):
    """§2.2: gateways service "streaming" or "query" requests."""

    STREAM = "stream"
    QUERY = "query"


class WireFormat(str, Enum):
    """The three event encodings a gateway can render (§3.0)."""

    ULM = "ulm"
    XML = "xml"
    BINARY = "binary"


@dataclass(frozen=True, slots=True)
class Delivery:
    """Where a streaming subscription's events go.

    Exactly one of the three shapes:

    * ``Delivery.callback(fn)`` — in-process; ``fn`` may be ``None``
      when the handle's buffer / attached callbacks are the consumer;
    * ``Delivery.remote(host, port)`` — events pushed over the simulated
      network to a bound port as ``((gateway, sub id), Frame)`` pairs;
    * ``Delivery.none()`` — no event channel (query mode).
    """

    kind: str = "none"                      # "callback" | "remote" | "none"
    fn: Optional[Callable] = None
    address: Optional[tuple] = None         # (host, port)

    @classmethod
    def callback(cls, fn: Optional[Callable] = None) -> "Delivery":
        return cls(kind="callback", fn=fn)

    @classmethod
    def remote(cls, host: Any, port: int) -> "Delivery":
        return cls(kind="remote", address=(host, port))

    @classmethod
    def none(cls) -> "Delivery":
        return cls(kind="none")

    def validate(self) -> None:
        if self.kind not in ("callback", "remote", "none"):
            raise SpecError(f"unknown delivery kind {self.kind!r}")
        if self.kind == "remote":
            if (not isinstance(self.address, tuple)
                    or len(self.address) != 2):
                raise SpecError("remote delivery needs a (host, port) pair")


@dataclass(slots=True)
class SubscriptionSpec:
    """Declarative description of one subscription.

    ``mode`` and ``fmt`` accept the enum or its string value; strings
    are coerced on construction, raising :class:`SpecError` on junk.
    """

    sensor: str
    mode: SubscriptionMode = SubscriptionMode.STREAM
    fmt: WireFormat = WireFormat.ULM
    event_filter: Optional[EventFilter] = None
    #: ``None`` means "the opener decides" — consumers inject their own
    #: callback / receive-port delivery before handing the spec to a
    #: gateway; :meth:`EventGateway.open` requires it resolved.
    delivery: Optional[Delivery] = None
    principal: Any = None
    buffer_limit: int = DEFAULT_BUFFER_LIMIT
    #: gateway-side queue cap for remote delivery (backpressure)
    outbox_limit: int = DEFAULT_OUTBOX_LIMIT
    #: one of :data:`OVERFLOW_POLICIES`
    overflow: str = "drop_oldest"

    def __post_init__(self) -> None:
        if not self.sensor or not isinstance(self.sensor, str):
            raise SpecError("spec needs a non-empty sensor name")
        try:
            self.mode = SubscriptionMode(self.mode)
        except ValueError:
            raise SpecError(f"bad mode {self.mode!r}") from None
        try:
            self.fmt = WireFormat(self.fmt)
        except ValueError:
            raise SpecError(f"unknown event format {self.fmt!r}") from None
        if self.event_filter is not None and \
                not isinstance(self.event_filter, EventFilter):
            raise SpecError("event_filter must be an EventFilter")
        if self.buffer_limit < 0:
            raise SpecError("buffer_limit must be >= 0")
        if not isinstance(self.outbox_limit, int) or self.outbox_limit < 1:
            raise SpecError("outbox_limit must be an int >= 1")
        if self.overflow not in OVERFLOW_POLICIES:
            raise SpecError(f"unknown overflow policy {self.overflow!r}")

    # -- shaping -------------------------------------------------------------

    def replace(self, **changes: Any) -> "SubscriptionSpec":
        return dataclasses.replace(self, **changes)

    def clone(self) -> "SubscriptionSpec":
        """A copy safe to open as a second subscription: stateful
        filters (change/threshold detection) are re-instantiated."""
        flt = self.event_filter.clone() if self.event_filter is not None \
            else None
        return self.replace(event_filter=flt)

    # -- validation ------------------------------------------------------------

    def validate(self, *, require_delivery: bool = True) -> None:
        """Raise :class:`SpecError` unless the spec is openable."""
        if self.delivery is not None:
            self.delivery.validate()
        if self.mode is SubscriptionMode.STREAM and require_delivery:
            if self.delivery is None or self.delivery.kind == "none":
                raise SpecError("streaming subscription needs a delivery path")

    # -- wire form --------------------------------------------------------------

    def to_request(self) -> dict:
        """The networked-subscribe payload (gateway ``op=subscribe``)."""
        req: dict = {"op": "subscribe", "sensor": self.sensor,
                     "mode": self.mode.value, "fmt": self.fmt.value,
                     "outbox_limit": self.outbox_limit,
                     "overflow": self.overflow}
        if self.event_filter is not None:
            req["filter"] = self.event_filter.to_dict()
        if self.principal is not None:
            req["principal"] = self.principal
        if self.delivery is not None and self.delivery.kind == "remote":
            req["port"] = self.delivery.address[1]
        return req

    @classmethod
    def from_request(cls, req: dict) -> "SubscriptionSpec":
        flt = filter_from_dict(req["filter"]) if req.get("filter") else None
        return cls(sensor=req["sensor"], mode=req.get("mode", "stream"),
                   fmt=req.get("fmt", "ulm"), event_filter=flt,
                   principal=req.get("principal"),
                   outbox_limit=req.get("outbox_limit", DEFAULT_OUTBOX_LIMIT),
                   overflow=req.get("overflow", "drop_oldest"))


class SubscriptionHandle:
    """One subscription: what the consumer holds *and* what the gateway
    fans out to.

    Created by :meth:`EventGateway.open`; self-describing (carries its
    spec) and self-contained (knows its gateway, so teardown needs no
    side tables).  The consumer's half buffers the last
    ``spec.buffer_limit`` delivered events for :meth:`events` and fans
    each one out to every :meth:`attach`-ed callback.  The gateway's
    half is the rest of the slots — delivery target, outbox and
    backpressure flags, the ``delivered`` and per-policy shed counters
    — which only the owning gateway writes, and stops writing at
    teardown: a closed handle simply keeps its last values.

    ``filtered`` is not counted anywhere.  Every event the sensor sent
    while a stream subscription was open was delivered, shed, is still
    queued, or was filtered (by its filter, or by being paused), so::

        filtered = events_in(now, or at teardown) - events_in(at open)
                   - delivered - dropped - queued
    """

    # handles ride the per-event delivery path; __weakref__ lets the
    # sanitizer track them without keeping them alive
    __slots__ = ("gateway", "spec", "sub_id", "closed", "reaped",
                 "superseded", "paused", "_admit", "_callbacks", "_buffer",
                 "_heal_tracker", "_sensor", "_events_open", "_events_end",
                 "_queued_end", "delivered", "remote", "wire_key",
                 "wire_fmt", "src_port", "fail_count", "fail_cb", "ok_cb",
                 "outbox", "drain_rate", "overflow", "blocked", "degraded",
                 "outbox_peak", "dropped_oldest", "dropped_newest",
                 "dropped_blocked", "shed_degraded", "summaries_sent",
                 "degrade_from", "degrade_shed_mark", "pump", "__weakref__")

    def __init__(self, gateway: Any, spec: SubscriptionSpec, sub_id: int,
                 sensor_record: Any):
        self.gateway = gateway
        self.spec = spec
        self.sub_id = sub_id
        self.closed = False
        #: True once a self-healing session replaced this (reaped)
        #: handle with a fresh subscription — the watchdog skips it
        self.superseded = False
        #: set by ClientSession.enable_auto_heal (resubscribe bookkeeping)
        self._heal_tracker: Any = None
        #: True when the *gateway* tore the subscription down (dead
        #: consumer reap, gateway-host crash, sensor retired) rather
        #: than the consumer closing it — the signal self-healing
        #: sessions resubscribe on
        self.reaped = False
        #: paused subscriptions are dropped from the gateway's fan-out
        #: structures, so the per-event hot path never sees them
        self.paused = False
        #: optional admission predicate installed by self-healing
        #: sessions (watermark/dup suppression); None costs one check
        self._admit: Optional[Callable] = None
        self._callbacks: list[Callable] = []
        # buffer_limit == 0 keeps nothing (callback-only consumption)
        self._buffer: deque = deque(maxlen=spec.buffer_limit)
        delivery = spec.delivery
        if delivery is not None and delivery.fn is not None:
            self._callbacks.append(delivery.fn)
        # -- the gateway's half ----------------------------------------------
        #: the gateway's per-sensor record: its ``events_in`` is "now"
        #: for the ``filtered`` identity until teardown freezes it
        self._sensor = sensor_record
        self._events_open: int = sensor_record.events_in
        #: the sensor's events_in and the outbox depth at teardown
        self._events_end: Optional[int] = None
        self._queued_end = 0
        self.delivered = 0
        #: ``(host, port)`` for remote delivery; None = in-process, the
        #: gateway schedules :meth:`_dispatch` itself
        self.remote: Optional[tuple] = \
            delivery.address if delivery is not None else None
        #: sent beside every frame: the consumer's key to this handle
        self.wire_key = (gateway.name, sub_id)
        self.wire_fmt: str = spec.fmt.value
        #: the stream's one source port on the gateway host
        self.src_port: Optional[int] = None
        #: consecutive undeliverable sends (dead-consumer detection; reset
        #: by the transport's delivery ack, so a flapping link that heals
        #: before ``reap_threshold`` failures never reaps a live consumer)
        self.fail_count = 0
        #: failure/ack callbacks, built once at open so the per-event
        #: remote path allocates nothing extra
        self.fail_cb: Optional[Callable] = None
        self.ok_cb: Optional[Callable] = None
        # backpressure (remote delivery only): a bounded queue of
        # rendered-but-unsent frames; the fast path (no throttle, empty
        # queue) bypasses it entirely
        self.outbox: deque = deque()
        #: events/s the drain pump releases; None = unthrottled
        self.drain_rate: Optional[float] = None
        #: True while the gateway is shedding or holding this
        #: subscription's events: from the moment the outbox hits its
        #: cap until the consumer drains it to half (hysteresis), and
        #: for as long as ``blocked`` / ``degraded`` last
        self.overflow = False
        self.blocked = False        # block policy engaged (intake shed)
        self.degraded = False       # degrade policy engaged (summary-only)
        self.outbox_peak = 0
        self.dropped_oldest = 0
        self.dropped_newest = 0
        self.dropped_blocked = 0
        self.shed_degraded = 0
        self.summaries_sent = 0
        #: degrade-window accounting feeding the summary event
        self.degrade_from = 0.0
        self.degrade_shed_mark = 0
        #: the scheduled drain-pump call, if one is pending
        self.pump: Any = None

    # -- description ---------------------------------------------------------

    @property
    def sensor(self) -> str:
        return self.spec.sensor

    @property
    def mode(self) -> SubscriptionMode:
        return self.spec.mode

    @property
    def fmt(self) -> WireFormat:
        return self.spec.fmt

    @property
    def dropped(self) -> int:
        """Events the gateway shed for this subscription (all overflow
        policies combined); every drop is accounted, never silent."""
        return (self.dropped_oldest + self.dropped_newest
                + self.dropped_blocked + self.shed_degraded)

    @property
    def queued(self) -> int:
        """Outbox depth — at teardown, once the channel is gone."""
        return len(self.outbox) if self._events_end is None \
            else self._queued_end

    @property
    def filtered(self) -> int:
        """The accounting identity in the class docstring."""
        if self.spec.mode is not SubscriptionMode.STREAM:
            return 0
        events_in = self._sensor.events_in if self._events_end is None \
            else self._events_end
        return (events_in - self._events_open - self.delivered
                - self.dropped - self.queued)

    # -- event intake (called by the gateway / consumer demux) ------------------

    def _dispatch(self, event: Any) -> None:
        if self.closed:
            return
        if self._admit is not None and not self._admit(event):
            return
        self._buffer.append(event)
        for callback in self._callbacks:
            callback(event)

    # -- consumer surface -----------------------------------------------------------

    def attach(self, callback: Callable) -> "SubscriptionHandle":
        """Add a per-event callback; returns self for chaining."""
        self._callbacks.append(callback)
        return self

    def events(self, *, drain: bool = False) -> Iterator:
        """Iterate the buffered events (oldest first).  ``drain=True``
        also empties the buffer."""
        snapshot = list(self._buffer)
        if drain:
            self._buffer.clear()
        return iter(snapshot)

    def latest(self) -> Any:
        """Query mode on demand: the sensor's most recent event."""
        return self.gateway.query(self.spec.sensor,
                                  principal=self.spec.principal)

    def stats(self) -> dict:
        """This subscription's counters and flags, plus local
        buffer/lifecycle state.  After teardown they are the values the
        channel ended with — not zeros."""
        spec = self.spec
        return {"sub_id": self.sub_id, "sensor": spec.sensor,
                "mode": spec.mode.value, "fmt": self.wire_fmt,
                "delivered": self.delivered, "filtered": self.filtered,
                "paused": self.paused,
                # backpressure surface (zeros for in-process delivery)
                "queued": self.queued,
                "outbox_limit": spec.outbox_limit,
                "outbox_peak": self.outbox_peak,
                "overflow_policy": spec.overflow,
                "overflow": self.overflow,
                "blocked": self.blocked,
                "degraded": self.degraded,
                "drain_rate": self.drain_rate,
                "dropped": self.dropped,
                "dropped_oldest": self.dropped_oldest,
                "dropped_newest": self.dropped_newest,
                "dropped_blocked": self.dropped_blocked,
                "shed_degraded": self.shed_degraded,
                "summaries_sent": self.summaries_sent,
                "buffered": len(self._buffer), "closed": self.closed}

    # -- flow control -------------------------------------------------------------

    def pause(self) -> bool:
        """Stop deliveries without giving up the subscription.  False
        once the subscription is closed or was reaped."""
        return not self.closed and self.gateway.pause(self.sub_id)

    def resume(self) -> bool:
        return not self.closed and self.gateway.resume(self.sub_id)

    def close(self) -> bool:
        """Tear the subscription down.  Idempotent: the second and
        later calls — and calls racing a gateway-side reap — return
        False and do nothing."""
        return not self.closed and self.gateway.unsubscribe(self.sub_id)

    # -- context manager / repr --------------------------------------------------------

    def __enter__(self) -> "SubscriptionHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover
        state = ("reaped" if self.reaped else
                 "closed" if self.closed else
                 "paused" if self.paused else "open")
        return (f"<SubscriptionHandle #{self.sub_id} {self.spec.sensor!r} "
                f"{self.spec.mode.value}/{self.spec.fmt.value} {state}>")
