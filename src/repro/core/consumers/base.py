"""Event consumer base (paper §2.2).

"An event consumer is any program that requests data from a sensor."
The flow every consumer follows: look sensors up in the directory
("checks the directory service to see what data is available"),
subscribe via each sensor's event gateway, and receive the event
stream.

Subscriptions are declarative: each one is a
:class:`~repro.core.subscriptions.SubscriptionSpec` opened against the
sensor's gateway, and the consumer holds the resulting
:class:`~repro.core.subscriptions.SubscriptionHandle` objects
(``self.handles``) — no hand-tracked ``(gateway, sub_id)`` tuples.

Delivery paths:

* in-process callback, when the gateway has no network identity;
* a bound receive port on the consumer's host, when both sides are on
  the simulated network — the gateway pushes each event as a
  ``((gateway name, sub id), Frame)`` pair, and the consumer routes
  the message the frame carries to the owning handle.  Only a frame
  that arrives without one (foreign input) is decoded; a malformed
  wire is counted in ``decode_errors``.

A delivered event is shared — every recipient, the gateway and the
archive hold the same :class:`ULMMessage` — so handlers must not mutate
it (``copy()`` first).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Union

from ...ulm import ULMMessage
from ..subscriptions import (DEFAULT_BUFFER_LIMIT, Delivery,
                             SubscriptionHandle, SubscriptionSpec,
                             sensor_key_for)

__all__ = ["Consumer", "ConsumerError", "TeardownError"]

#: receive ports are ``base + per-sim serial`` so they never depend on
#: how many consumers earlier simulations in the same process created
RECV_PORT_BASE = 20000


class ConsumerError(RuntimeError):
    pass


class TeardownError(ConsumerError):
    """One or more handles failed to close during bulk teardown.

    Raised *after* every handle has been attempted, so a single broken
    gateway cannot strand the rest of the subscriptions.  ``failures``
    holds ``(handle, exception)`` pairs.
    """

    def __init__(self, failures: list):
        self.failures = list(failures)
        detail = "; ".join(f"sub #{h.sub_id} ({h.sensor}): "
                           f"{type(e).__name__}: {e}"
                           for h, e in self.failures)
        super().__init__(f"{len(self.failures)} subscription(s) failed "
                         f"to close: {detail}")


class Consumer:
    """Base class for the four JAMM consumer types."""

    consumer_type = "consumer"
    #: events each handle buffers for ``.events()`` when the consumer
    #: builds the spec itself.  Consumer types that keep their own
    #: event store (collector, archiver, ...) set this to 0 so the
    #: delivery hot path never fills buffers nobody reads; an
    #: explicitly passed spec always keeps its own ``buffer_limit``.
    handle_buffer_limit = DEFAULT_BUFFER_LIMIT

    def __init__(self, sim, *, name: str = "", host: Any = None,
                 directory: Any = None, resolve_gateway: Optional[Callable] = None,
                 principal: Any = None, suffix: str = "o=grid"):
        self.sim = sim
        self.name = name or (f"{self.consumer_type}"
                             f"{sim.serial(f'consumer:{self.consumer_type}')}")
        self.host = host
        self.directory = directory
        self.resolve_gateway = resolve_gateway
        self.principal = principal
        self.suffix = suffix
        self.received = 0
        self.decode_errors = 0
        #: live SubscriptionHandle objects, in open order
        self.handles: list[SubscriptionHandle] = []
        #: (gateway name, sub id) -> handle, for network-delivery demux
        self._wire_handles: dict[tuple, SubscriptionHandle] = {}
        self._recv_port: Optional[int] = None

    # -- discovery -----------------------------------------------------------

    def discover(self, filter_text: str = "(objectclass=sensor)", *,
                 base: Optional[str] = None) -> list:
        """Directory lookup: which sensors exist, and via which gateway."""
        if self.directory is None:
            raise ConsumerError(f"{self.name}: no directory client")
        base = base or f"ou=sensors,{self.suffix}"
        return self.directory.search(base, filter_text).entries

    # -- subscription -------------------------------------------------------------

    def _gateway_for(self, entry) -> Any:
        if self.resolve_gateway is None:
            raise ConsumerError(f"{self.name}: no gateway resolver")
        gateway = self.resolve_gateway(entry.first("gateway"),
                                       entry.first("gatewayhost"))
        if gateway is None:
            raise ConsumerError(
                f"{self.name}: unknown gateway {entry.first('gateway')!r}")
        return gateway

    def _ensure_recv_port(self) -> int:
        if self._recv_port is None:
            self._recv_port = (RECV_PORT_BASE
                               + self.sim.serial("consumer-recv-port"))
            self.host.ports.bind(self._recv_port, self._handle_delivery)
        return self._recv_port

    def subscribe_entry(self, entry, *, spec: Optional[SubscriptionSpec] = None,
                        event_filter: Any = None, mode: str = "stream",
                        fmt: str = "ulm") -> SubscriptionHandle:
        """Subscribe to the sensor a directory entry (or a
        ``repro.client`` SensorInfo wrapping one) describes."""
        entry = getattr(entry, "entry", entry)
        gateway = self._gateway_for(entry)
        sensor_name = sensor_key_for(entry)
        if spec is not None:
            spec = spec.replace(sensor=sensor_name)
        return self.subscribe(gateway, sensor_name, spec=spec,
                              event_filter=event_filter, mode=mode, fmt=fmt)

    def subscribe_all(self, selection: Union[str, Iterable] =
                      "(objectclass=sensor)", *,
                      spec: Optional[SubscriptionSpec] = None,
                      event_filter: Any = None, mode: str = "stream",
                      fmt: str = "ulm", base: Optional[str] = None) -> int:
        """Subscribe to every sensor in ``selection``.

        ``selection`` is either LDAP filter text (resolved through the
        directory) or an iterable of directory entries / SensorInfo
        objects — e.g. a ``repro.client`` ``client.sensors(...)``
        selection.  Stateful specs/filters are cloned per subscription
        so change/threshold detection stays independent per sensor.
        Returns the number of subscriptions opened.
        """
        if isinstance(selection, str):
            entries = self.discover(selection, base=base)
        else:
            entries = list(selection)
        for entry in entries:
            per_spec = spec.clone() if spec is not None else None
            flt = event_filter.clone() if event_filter is not None else None
            self.subscribe_entry(entry, spec=per_spec, event_filter=flt,
                                 mode=mode, fmt=fmt)
        return len(entries)

    def subscribe(self, gateway, sensor_name: Optional[str] = None, *,
                  spec: Optional[SubscriptionSpec] = None,
                  event_filter: Any = None, mode: str = "stream",
                  fmt: str = "ulm") -> SubscriptionHandle:
        """Open one subscription on ``gateway`` and return its handle.

        Builds a :class:`SubscriptionSpec` from the kwargs unless one is
        passed explicitly; the consumer supplies the delivery path
        (receive port when both sides are networked, in-process
        otherwise) and its principal.
        """
        if spec is None:
            if sensor_name is None:
                raise ConsumerError(f"{self.name}: need a sensor name or spec")
            spec = SubscriptionSpec(sensor=sensor_name, mode=mode, fmt=fmt,
                                    event_filter=event_filter,
                                    buffer_limit=self.handle_buffer_limit)
        elif sensor_name is not None and spec.sensor != sensor_name:
            spec = spec.replace(sensor=sensor_name)
        if spec.principal is None and self.principal is not None:
            spec = spec.replace(principal=self.principal)
        use_network = (self.host is not None and gateway.host is not None
                       and gateway.host is not self.host
                       and gateway.transport is not None)
        if spec.delivery is None or spec.delivery.kind == "none":
            if spec.mode.value == "stream":
                delivery = (Delivery.remote(self.host, self._ensure_recv_port())
                            if use_network else Delivery.callback())
                spec = spec.replace(delivery=delivery)
        handle = gateway.open(spec)
        handle.attach(self._accept)
        self.handles.append(handle)
        if handle.remote is not None:
            self._wire_handles[handle.wire_key] = handle
        return handle

    def unsubscribe_all(self) -> None:
        """Close every open handle.  Idempotent; a handle that fails to
        close does not stop the rest — failures are collected and
        raised together as :class:`TeardownError`."""
        handles, self.handles = self.handles, []
        self._wire_handles.clear()
        failures = []
        for handle in handles:
            try:
                handle.close()
            except Exception as exc:  # noqa: BLE001 - aggregated below
                failures.append((handle, exc))
        if failures:
            raise TeardownError(failures)

    # -- delivery ---------------------------------------------------------------------

    def _handle_delivery(self, msg, _transport) -> None:
        wire_key, frame = msg.payload
        try:
            event = frame.message()
        except ValueError:
            self.decode_errors += 1
            return
        handle = self._wire_handles.get(wire_key)
        if handle is not None:
            # the handle buffers the event and fans out to attached
            # callbacks — self._accept among them
            handle._dispatch(event)
        else:
            self._accept(event)

    def _accept(self, event: ULMMessage) -> None:
        self.received += 1
        self.on_event(event)

    def on_event(self, event: ULMMessage) -> None:
        """Subclass hook."""

    def close(self) -> None:
        try:
            self.unsubscribe_all()
        finally:
            if self._recv_port is not None and self.host is not None:
                self.host.ports.unbind(self._recv_port)
                self._recv_port = None
