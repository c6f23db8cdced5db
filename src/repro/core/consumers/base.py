"""Event consumer base (paper §2.2).

"An event consumer is any program that requests data from a sensor."
The flow every consumer follows: look sensors up in the directory
("checks the directory service to see what data is available"),
subscribe via each sensor's event gateway, and receive the event
stream.

A consumer is built from one :class:`repro.client.MonitoringClient`,
which does the looking up: ``client.sensors`` is the discovery and
``client.gateway_for`` the gateway lookup, for every consumer type and
for :class:`~repro.client.ClientSession` alike.  The consumer itself
only subscribes:

* ``subscribe(target)`` opens one subscription to a sensor — a
  ``SensorInfo``, a directory entry or a sensor key;
* ``subscribe_all(selection)`` opens one per sensor in a selection,
  filter text or discovery keywords, cloning a stateful spec or
  filter per sensor;
* ``open(gateway, spec)`` is the gateway-level step both end in.

Each returns the :class:`~repro.core.subscriptions.SubscriptionHandle`
objects it opened, and the consumer holds them (``self.handles``).

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

from typing import Any, Iterable, Optional, Union

from ...ulm import ULMMessage
from ..subscriptions import (DEFAULT_BUFFER_LIMIT, Delivery,
                             SubscriptionHandle, SubscriptionSpec)

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
    """Base class for the JAMM consumer types and client sessions."""

    consumer_type = "consumer"
    #: events each handle buffers for ``.events()`` when the consumer
    #: builds the spec itself.  Consumer types that keep their own
    #: event store (collector, archiver, ...) set this to 0 so the
    #: delivery hot path never fills buffers nobody reads; an
    #: explicitly passed spec always keeps its own ``buffer_limit``.
    handle_buffer_limit = DEFAULT_BUFFER_LIMIT

    def __init__(self, client: Any, *, name: str = "",
                 principal: Any = None):
        #: the :class:`repro.client.MonitoringClient` this consumer
        #: discovers sensors and resolves gateways through
        self.client = client
        self.sim = client.sim
        self.host = client.host
        self.name = name or (f"{self.consumer_type}"
                             f"{self.sim.serial(f'consumer:{self.consumer_type}')}")
        self.principal = principal if principal is not None \
            else client.principal
        self.received = 0
        self.decode_errors = 0
        #: live SubscriptionHandle objects, in open order
        self.handles: list[SubscriptionHandle] = []
        #: (gateway name, sub id) -> handle, for network-delivery demux
        self._wire_handles: dict[tuple, SubscriptionHandle] = {}
        self._recv_port: Optional[int] = None

    # -- subscription -------------------------------------------------------------

    def _ensure_recv_port(self) -> int:
        if self._recv_port is None:
            self._recv_port = (RECV_PORT_BASE
                               + self.sim.serial("consumer-recv-port"))
            self.host.ports.bind(self._recv_port, self._handle_delivery)
        return self._recv_port

    def subscribe(self, target: Any, *,
                  spec: Optional[SubscriptionSpec] = None,
                  on_event: Any = None, event_filter: Any = None,
                  mode: str = "stream", fmt: str = "ulm") -> SubscriptionHandle:
        """Open one subscription to ``target`` — a ``SensorInfo``, a
        directory entry or a sensor key — through its gateway.

        Builds a :class:`SubscriptionSpec` from the keywords unless one
        is passed (its sensor is set to the target's); ``on_event`` is
        attached to the new handle.
        """
        info = self.client._resolve(target)
        if spec is None:
            spec = SubscriptionSpec(sensor=info.key, mode=mode, fmt=fmt,
                                    event_filter=event_filter,
                                    buffer_limit=self.handle_buffer_limit)
        else:
            spec = spec.replace(sensor=info.key)
        handle = self.open(self.client.gateway_for(info), spec)
        if on_event is not None:
            handle.attach(on_event)
        return handle

    def subscribe_all(self, selection: Union[None, str, Iterable] = None, *,
                      spec: Optional[SubscriptionSpec] = None,
                      on_event: Any = None, event_filter: Any = None,
                      mode: str = "stream", fmt: str = "ulm",
                      **criteria: Any) -> list[SubscriptionHandle]:
        """Open a subscription per sensor and return the handles.

        ``selection`` is a ``client.sensors(...)`` selection (or any
        iterable of sensors), LDAP filter text, or None — in which case
        the keyword ``criteria`` run through fluent discovery
        (``subscribe_all(type="cpu")``).  Stateful specs/filters are
        cloned per subscription so change/threshold detection stays
        independent per sensor.
        """
        if selection is None:
            selection = self.client.sensors(**criteria)
        elif criteria:
            raise ConsumerError("pass either a selection or criteria, not both")
        if isinstance(selection, str):
            selection = self.client.sensors(filter_text=selection)
        handles = []
        for info in selection:
            per_spec = spec.clone() if spec is not None else None
            per_flt = event_filter.clone() if event_filter is not None else None
            handles.append(self.subscribe(info, spec=per_spec,
                                          on_event=on_event,
                                          event_filter=per_flt,
                                          mode=mode, fmt=fmt))
        return handles

    def open(self, gateway: Any, spec: SubscriptionSpec) -> SubscriptionHandle:
        """Open ``spec`` on ``gateway`` and hold the handle.

        The consumer supplies its principal and, for a stream spec
        without one, the delivery path: its receive port when both
        sides are networked, an in-process callback otherwise.
        """
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
