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
* :class:`SubscriptionHandle` — the object a subscription *is* from the
  consumer's point of view: iterate received events, query the latest
  one, read delivery/filter counters, pause/resume the stream, close.

Specs serialize to plain dicts (:meth:`SubscriptionSpec.to_request`) so
the networked consumer path can ship them over the wire unchanged.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field
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
        if self.outbox_limit < 1:
            raise SpecError("outbox_limit must be >= 1")
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
                     "mode": self.mode.value, "fmt": self.fmt.value}
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
                   principal=req.get("principal"))


class SubscriptionHandle:
    """A live subscription, as the consumer sees it.

    Created by :meth:`EventGateway.open`; self-describing (carries its
    spec) and self-contained (knows its gateway, so teardown needs no
    side tables).  Handles buffer the last ``spec.buffer_limit``
    delivered events for :meth:`events` iteration and fan each event
    out to every :meth:`attach`-ed callback.
    """

    # handles ride the per-event delivery path; __weakref__ lets the
    # sanitizer track them without keeping them alive
    __slots__ = ("gateway", "spec", "sub_id", "closed", "reaped",
                 "superseded", "_admit", "_final_stats", "_callbacks",
                 "_buffer", "_heal_tracker", "__weakref__")

    def __init__(self, gateway: Any, spec: SubscriptionSpec, sub_id: int):
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
        #: consumer reap, gateway-host crash) rather than the consumer
        #: closing it — the signal self-healing sessions resubscribe on
        self.reaped = False
        #: optional admission predicate installed by self-healing
        #: sessions (watermark/dup suppression); None costs one check
        self._admit: Optional[Callable] = None
        self._final_stats: Optional[dict] = None
        self._callbacks: list[Callable] = []
        # buffer_limit == 0 keeps nothing (callback-only consumption)
        self._buffer: deque = deque(maxlen=spec.buffer_limit)
        if spec.delivery is not None and spec.delivery.fn is not None:
            self._callbacks.append(spec.delivery.fn)

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
    def paused(self) -> bool:
        record = self.gateway._subs.get(self.sub_id)
        return bool(record is not None and record.paused)

    @property
    def overflow(self) -> bool:
        """True while the gateway is shedding or holding this
        subscription's events (full outbox, block, or degrade state) —
        the signal auto-heal replay uses to know there is catching up
        to do beyond reaps."""
        record = self.gateway._subs.get(self.sub_id)
        return bool(record is not None
                    and (record.overflow or record.blocked
                         or record.degraded))

    @property
    def dropped(self) -> int:
        """Events the gateway shed for this subscription (all overflow
        policies combined); every drop is accounted, never silent."""
        record = self.gateway._subs.get(self.sub_id)
        if record is not None:
            return record.shed_total
        stats = self._final_stats or {}
        return int(stats.get("dropped", 0))

    # -- event intake (called by the gateway / consumer demux) ------------------

    def _dispatch(self, event: Any) -> None:
        if self.closed:
            return
        if self._admit is not None and not self._admit(event):
            return
        self._buffer.append(event)
        for callback in self._callbacks:
            callback(event)

    def _mark_detached(self, final_stats: Optional[dict]) -> None:
        """The gateway removed this subscription (any teardown path).

        Idempotent; freezes the final counters so :meth:`stats` stays
        truthful after the registration is gone."""
        if self._final_stats is None and final_stats is not None:
            self._final_stats = final_stats
        self.closed = True

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
        """Delivered/filtered counters from the gateway, plus local
        buffer/lifecycle state.  After :meth:`close`, the counters are
        the snapshot taken at close time — not zeros."""
        stats = (self._final_stats or self.gateway.sub_stats(self.sub_id)
                 or {"sub_id": self.sub_id, "sensor": self.spec.sensor,
                     "mode": self.spec.mode.value,
                     "fmt": self.spec.fmt.value,
                     "delivered": 0, "filtered": 0, "paused": False,
                     "queued": 0, "dropped": 0, "overflow": False})
        stats = dict(stats)
        stats["buffered"] = len(self._buffer)
        stats["closed"] = self.closed
        return stats

    # -- flow control -------------------------------------------------------------

    def pause(self) -> bool:
        """Stop deliveries without giving up the subscription.  False
        once the subscription is closed or was reaped."""
        if self.closed:
            return False
        return self.gateway.pause(self.sub_id)

    def resume(self) -> bool:
        if self.closed:
            return False
        return self.gateway.resume(self.sub_id)

    def close(self) -> bool:
        """Tear the subscription down.  Idempotent: the second and
        later calls — and calls racing a gateway-side reap — return
        False and do nothing."""
        if self.closed:
            return False
        self.closed = True
        # keep the final counters readable after teardown
        self._final_stats = self.gateway.sub_stats(self.sub_id)
        return self.gateway.unsubscribe(self.sub_id)

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
