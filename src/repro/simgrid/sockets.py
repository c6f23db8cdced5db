"""Control-plane message transport.

RMI invocations, LDAP operations, and gateway event streams are
request/response or stream-of-small-messages traffic.  We model them as
reliable datagrams: a message from host A to host B on port P arrives
after path propagation latency plus serialization at the bottleneck
link, updating per-port traffic counters on both ends (feeding the port
monitor) and SNMP interface counters on every transited node.

There is one send routine, :meth:`MessageTransport.send_burst`: the
datagrams one host emits at one instant (a gateway's fan-out of one
event), in order; :meth:`MessageTransport.send` is a burst of one.  A
stream owns one source port: long-lived senders mint it once
(:meth:`MessageTransport.ephemeral_port`), not per message.  The work a
delivery does is its own: a message id, the up check of both ends, the
charge to every hop.  What a route gives a send is kept per host pair
for as long as the network's epoch stands (``Network._epoch``), and a
:class:`Message` object exists only for a datagram that will arrive —
a send returns its message id.

A datagram to a port bound to :func:`discard` (the sink background
traffic aims at) ends at the send: every hop is charged, both port
tables and all counters updated, the loss and flaky draws made, and no
arrival is scheduled — neither ``on_delivered`` nor an arrival-time
``on_fail`` can fire for it.  Since such a datagram schedules nothing,
a storm sends all its packets due before the kernel's next dispatch at
once, as a train (:meth:`MessageTransport.send_train`).

Bulk data transfers (DPSS reads, iperf) do NOT use this module — they
use the congestion-controlled :mod:`repro.simgrid.tcp` model.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .host import Host
from .kernel import EventFlag, Simulator
from .network import NoRouteError

__all__ = ["Message", "MessageTransport", "DeliveryError", "ignore_failure",
           "discard"]


class DeliveryError(RuntimeError):
    """Message could not be delivered (no route / no listener / host down)."""


def ignore_failure(exc: Exception) -> None:
    """The ``on_fail`` of a fire-and-forget send: an undeliverable
    message is dropped rather than raised.  One shared function, so such
    senders allocate no closure per message."""


def discard(msg: "Message", transport: "MessageTransport") -> None:
    """The discard service's listener.  :meth:`MessageTransport.send_burst`
    knows it by identity and schedules no arrival for a datagram bound
    to it: bind *this*, not a look-alike."""


def _lose_in_flight(plan, size: int, npackets: int) -> None:
    """A datagram dies in flight on ``plan``'s first lossy hop: the hops
    up to it count it, only that hop's interface discards notice."""
    for _link, direction, _rate, out, inn in plan:
        out.out_octets += size
        out.out_packets += npackets
        inn.in_octets += size
        inn.in_packets += npackets
        if direction.loss > 0.0:
            inn.discards += npackets
            break


@dataclass(slots=True)
class Message:
    """A delivered control-plane message.

    ``msg_id`` is allocated by the sending transport (per-world), never
    from process-global state: two worlds in one process must mint
    identical id sequences for identical runs.
    """

    src_host: Host
    dst_host: Host
    src_port: int
    dst_port: int
    payload: Any
    size_bytes: int
    msg_id: int = 0
    sent_at: float = 0.0
    delivered_at: float = 0.0


class MessageTransport:  # repro: noqa[SLOT001] — one per world, not per event
    """Reliable small-message delivery over a :class:`Network`.

    ``handler(message, transport)`` bound via ``host.ports.bind`` is
    invoked on arrival.  :meth:`request` provides an RPC-style helper
    returning an :class:`EventFlag` triggered with the response payload.
    """

    #: fixed per-message protocol overhead (headers), bytes
    HEADER_BYTES = 64
    #: approximate packetization for counter purposes
    MTU = 1500

    def __init__(self, sim: Simulator, network, *,
                 rng: Optional[random.Random] = None):
        self.sim = sim
        self.network = network
        self.messages_sent = 0
        self.messages_dropped = 0
        #: messages silently lost in flight to link loss.  Unlike
        #: ``messages_dropped`` (sender-visible failures that fire
        #: ``on_fail``), lost messages invoke NEITHER callback: the
        #: sender believes the send worked — the gray-failure case.
        self.messages_lost = 0
        #: messages silently lost to link-queue overflow (congestion).
        #: Same gray semantics as ``messages_lost``: neither callback
        #: fires — a router dropping a datagram tells nobody.
        self.messages_lost_congestion = 0
        #: cumulative queuing delay experienced by delivered messages
        self.queue_delay_s = 0.0
        #: transient-RPC fault state (``flaky_rpc``): host name ->
        #: {"rate", "latency_s", "rng"}.  Unlike the silent loss kinds,
        #: a flaky failure is sender-VISIBLE — the request crossed the
        #: wire (bytes charged to every hop) but the endpoint errored,
        #: and ``on_fail`` fires after the one-way delay.  This is the
        #: retryable failure class a resilience policy budgets.
        self._flaky_hosts: dict[str, dict] = {}
        self.messages_flaky_failed = 0
        self.flaky_delay_s = 0.0
        #: bytes offered to the network per traffic class
        self.class_bytes: dict[str, int] = {}
        #: loss draws are per flow, each stream seeded from this salt:
        #: whether a given flow's Nth message dies depends only on that
        #: flow's own history, never on how unrelated flows' sends
        #: happened to interleave with it (timing changes elsewhere
        #: must not reshuffle which messages a lossy link eats)
        self._loss_salt = rng.getrandbits(64) if rng is not None else 1905
        self._loss_rngs: dict[tuple[str, str, int], random.Random] = {}
        #: per-source-host message counters — used to measure the
        #: monitoring load a host bears (paper §2.3 scalability claims)
        self.per_host_sent: dict[str, int] = {}
        self._ephemeral = itertools.count(32768)
        self._msg_ids = itertools.count(1)
        #: arrival-time -> [(msg, on_fail, on_delivered)] — messages due
        #: at the same instant share one scheduled wakeup that drains
        #: the burst FIFO, instead of one kernel event per message.
        #: Delivery model: a same-instant burst lands atomically in send
        #: order at the first sender's event slot (deterministic; other
        #: kernel events scheduled for exactly that instant no longer
        #: interleave inside the burst)
        self._arrivals: dict[float, list] = {}
        #: per-(src, dst, dst_port) in-order watermark: a send never
        #: overtakes an earlier in-flight one on the same flow, even
        #: when a path's latency drops between the two sends (TCP-like
        #: per-connection ordering — live event streams must not
        #: reorder).  Keyed per destination port so independent flows
        #: between the same host pair (a bulk transfer vs a monitoring
        #: stream) don't serialize behind each other.
        self._flow_clock: dict[tuple[str, str, int], float] = {}
        #: messages_sent count at which the next watermark sweep runs.
        #: Entries whose watermark has passed order nothing (no message
        #: of that flow is still in flight), so they are dropped; the
        #: sweep is amortized so flow-state stays bounded over a soak
        #: without a per-send scan.
        self._prune_at = 256
        #: delivery wakeups scheduled (vs messages_sent: batching ratio)
        self.delivery_wakeups = 0
        #: src host -> dst host -> what the route gives a send (see
        #: :meth:`send_burst`), valid while ``network._epoch`` equals
        #: ``_routes_epoch``
        self._routes: dict[Host, dict] = {}
        self._routes_epoch = -1

    # -- transient-RPC faults (flaky_rpc) -----------------------------------

    def set_flaky_host(self, name: str, *, rate: float = 0.3,
                       latency_s: float = 0.0, seed: int = 0) -> None:
        """Make RPCs *to* ``name`` transiently fail/slow (``flaky_rpc``).

        Each send toward the host draws from a dedicated RNG seeded
        from ``(loss salt, host, seed)`` — whether a given message dies
        depends only on this host's own arrival history, and the other
        transport streams are unperturbed (seed-replay safe)."""
        digest = hashlib.sha256(
            f"flaky:{self._loss_salt}:{name}:{seed}".encode()).digest()
        self._flaky_hosts[name] = {
            "rate": float(rate), "latency_s": float(latency_s),
            "rng": random.Random(int.from_bytes(digest[:8], "big"))}

    def clear_flaky_host(self, name: str) -> None:
        """Steady the named host again (``steady_rpc`` / ``heal``)."""
        self._flaky_hosts.pop(name, None)

    # -- raw send -----------------------------------------------------------

    def send(self, src: Host, dst: Host, dst_port: int, payload: Any, *,
             size_bytes: int = 256, src_port: Optional[int] = None,
             traffic_class: str = "monitoring",
             on_fail: Optional[Callable[[Exception], None]] = None,
             on_delivered: Optional[Callable[["Message"], None]] = None,
             oneshot: bool = False) -> Optional[int]:
        """Send one message: a :meth:`send_burst` of one delivery."""
        return self.send_burst(src, ((dst, dst_port, payload, size_bytes,
                                      src_port, on_fail, on_delivered),),
                               traffic_class=traffic_class, oneshot=oneshot)

    def ephemeral_port(self) -> int:
        """A fresh source port (from the counter :meth:`request` draws
        reply ports from).  A stream owns one source port: a long-lived
        sender mints it once and passes it on every send, so a host's
        :class:`PortTable` grows with its flows, not its messages."""
        return next(self._ephemeral)

    def send_burst(self, src: Host, deliveries, *,
                   traffic_class: str = "monitoring",
                   oneshot: bool = False) -> Optional[int]:
        """Send the messages one host emits at one instant, in order,
        each ``(dst, dst_port, payload, size_bytes, src_port, on_fail,
        on_delivered)``; a ``src_port`` of None mints one.  Returns the
        last delivery's message id, or None if that one failed visibly
        (an end down, no route) and went to its ``on_fail``; with
        ``on_fail=None`` such a delivery raises :class:`DeliveryError`
        and ends the burst.  ``on_delivered`` fires when a message
        reaches a live listener.

        ``traffic_class`` tags the bytes for per-class link accounting
        (see :data:`repro.simgrid.network.TRAFFIC_CLASSES`).  ``oneshot``
        marks flows that carry exactly one message ever (RPC reply
        ports): they skip the per-flow ordering watermark and share a
        per-host-pair loss stream instead of minting permanent per-port
        state.

        Every delivery draws its message id and checks that both ends
        are up; what its route gives a send is kept per host pair until
        the network's epoch moves, which a synchronous ``on_fail`` may
        make it do.  A :class:`Message` is built only for an arrival,
        and a visible failure whose ``on_fail`` is
        :func:`ignore_failure` builds no :class:`DeliveryError`."""
        sim, now = self.sim, self.sim.now
        header, mtu = self.HEADER_BYTES, self.MTU
        msg_ids, arrivals, flow_clock = \
            self._msg_ids, self._arrivals, self._flow_clock
        flaky_hosts, network = self._flaky_hosts, self.network
        src_name, src_ports = src.name, src.ports
        epoch = network._epoch
        routes = self._routes.get(src) if self._routes_epoch == epoch \
            else None
        if routes is None:
            routes = self._routes_from(src)
        per_host_sent, class_bytes = self.per_host_sent, self.class_bytes
        msg_id = None
        for dst, dst_port, payload, size_bytes, src_port, on_fail, \
                on_delivered in deliveries:
            size = size_bytes + header
            if src_port is None:
                src_port = next(self._ephemeral)
            msg_id = next(msg_ids)
            route = cause = None
            if src.up and dst.up:
                route = routes.get(dst)
                if route is None:
                    try:
                        route = self._resolve(routes, src, dst)
                    except NoRouteError as exc:
                        cause = exc
            if route is None:
                self.messages_dropped += 1
                msg_id = None
                if on_fail is ignore_failure:
                    continue
                down = dst.name if src.up else src.name
                exc = DeliveryError(f"host {down} is down" if cause is None
                                    else str(cause))
                if on_fail is None:
                    raise exc from cause
                on_fail(exc)
                if network._epoch != epoch:
                    epoch = network._epoch
                    routes = self._routes_from(src)
                continue
            charge, latency_s, bottleneck_bps, dst_name, dst_ports, plan, \
                loss = route
            npackets = max(1, (size + mtu - 1) // mtu)
            self.messages_sent += 1
            per_host_sent[src_name] = per_host_sent.get(src_name, 0) + 1
            class_bytes[traffic_class] = class_bytes.get(traffic_class, 0) + size
            act = src_ports._activity.get(src_port) \
                or src_ports.activity(src_port)
            act.bytes_out += size
            act.packets_out += npackets
            act.last_activity = now
            if loss > 0.0 and self._loss_stream(
                    (src_name, dst_name, -1 if oneshot else dst_port)
            ).random() < loss:
                # the gray case: the sender saw a successful send, so
                # NEITHER callback fires
                _lose_in_flight(plan, size, npackets)
                self.messages_lost += 1
                continue
            # every hop's queue and counters, in one pass over the plan
            qdelay = charge(size, npackets, now, traffic_class)
            if qdelay is None:
                self.messages_lost_congestion += 1
                continue
            self.queue_delay_s += qdelay
            act = dst_ports._activity.get(dst_port) \
                or dst_ports.activity(dst_port)
            act.bytes_in += size
            act.packets_in += npackets
            act.last_activity = now
            delay = (latency_s + (size * 8.0) / bottleneck_bps + qdelay) \
                if plan else 1e-6       # no plan: a host to itself
            if flaky_hosts:
                flaky = flaky_hosts.get(dst_name)
                if flaky is not None:
                    if flaky["latency_s"] > 0.0:
                        # endpoint-side slowness: it still arrives, late
                        delay += flaky["latency_s"]
                        self.flaky_delay_s += flaky["latency_s"]
                    if flaky["rate"] > 0.0 \
                            and flaky["rng"].random() < flaky["rate"]:
                        # the bytes crossed every hop, but the service
                        # errors out: sender-visible after the one-way
                        # delay, a gray drop with on_fail=None
                        self.messages_flaky_failed += 1
                        if on_fail is not None \
                                and on_fail is not ignore_failure:
                            sim.call_at(now + delay, on_fail, DeliveryError(
                                f"transient rpc failure at {dst_name}"))
                        continue
            if dst_ports._listeners.get(dst_port) is discard:
                # the wire and both hosts have seen all of it; the rest
                # only a handler could observe, and this one observes
                # nothing
                continue
            when = now + delay
            if not oneshot:
                # a one-shot flow has nothing to order, and each reply
                # port would leak one watermark entry
                flow = (src_name, dst_name, dst_port)
                prev = flow_clock.get(flow)
                if prev is not None and when < prev:
                    when = prev
                flow_clock[flow] = when
            if self.messages_sent >= self._prune_at:
                self._prune_flow_state()
            batch = arrivals.get(when)
            if batch is None:
                # first message due at this instant: the one wakeup
                arrivals[when] = batch = []
                self.delivery_wakeups += 1
                sim.call_at(when, self._deliver_batch, when)
            batch.append((Message(src, dst, src_port, dst_port, payload, size,
                                  msg_id, now), on_fail, on_delivered))
        return msg_id

    def send_train(self, src: Host, dst: Host, dst_port: int,
                   size_bytes: int, src_port: int, times, *,
                   traffic_class: str) -> int:
        """Send a fire-and-forget datagram from ``src_port`` to
        ``dst_port`` (bound to :func:`discard`) at each of the ascending
        ``times``, all before the kernel's next dispatch
        (:meth:`Simulator.run_ahead_limit`); return how many went out.
        The outcome is a one-delivery :meth:`send_burst` per time with
        :func:`ignore_failure`: each packet's message id, loss and flaky
        draws, charge and delay sums in time order; the route, the up
        checks and the integer counters once a train."""
        n = len(times)
        msg_ids = self._msg_ids
        route = None
        if src.up and dst.up:
            routes = self._routes_from(src)
            route = routes.get(dst)
            if route is None:
                try:
                    route = self._resolve(routes, src, dst)
                except NoRouteError:
                    pass
        if route is None:
            for _ in times:
                next(msg_ids)
            self.messages_dropped += n
            return 0
        charge, _latency, _bps, dst_name, dst_ports, plan, loss = route
        size = size_bytes + self.HEADER_BYTES
        npackets = max(1, (size + self.MTU - 1) // self.MTU)
        lossy = self._loss_stream((src.name, dst_name, dst_port)).random \
            if loss > 0.0 else None
        flaky = self._flaky_hosts.get(dst_name)
        qsum = self.queue_delay_s
        lost = congested = failed = arrived = 0
        last = None
        for when in times:
            next(msg_ids)
            if lossy is not None and lossy() < loss:
                _lose_in_flight(plan, size, npackets)
                lost += 1
                continue
            qdelay = charge(size, npackets, when, traffic_class)
            if qdelay is None:
                congested += 1
                continue
            qsum += qdelay
            arrived += 1
            last = when
            if flaky is not None:
                if flaky["latency_s"] > 0.0:
                    self.flaky_delay_s += flaky["latency_s"]
                if flaky["rate"] > 0.0 \
                        and flaky["rng"].random() < flaky["rate"]:
                    failed += 1
        self.queue_delay_s = qsum
        self.messages_sent += n
        self.messages_lost += lost
        self.messages_lost_congestion += congested
        self.messages_flaky_failed += failed
        per_host_sent, class_bytes = self.per_host_sent, self.class_bytes
        per_host_sent[src.name] = per_host_sent.get(src.name, 0) + n
        class_bytes[traffic_class] = \
            class_bytes.get(traffic_class, 0) + size * n
        ports = src.ports
        act = ports._activity.get(src_port) or ports.activity(src_port)
        act.bytes_out += size * n
        act.packets_out += npackets * n
        act.last_activity = times[-1]
        if arrived:
            act = dst_ports._activity.get(dst_port) \
                or dst_ports.activity(dst_port)
            act.bytes_in += size * arrived
            act.packets_in += npackets * arrived
            act.last_activity = last
        return n

    def _resolve(self, routes: dict, src: Host, dst: Host) -> tuple:
        """What the route to ``dst`` gives a send, resolved into ``src``'s
        kept ``routes``; raises :class:`NoRouteError`."""
        path = self.network.route(src.node, dst.node)
        routes[dst] = route = (path.charge, path.latency_s,
                               path.bottleneck_bps, dst.name, dst.ports,
                               path.plan, path.loss_rate)
        return route

    def _loss_stream(self, flow: tuple) -> random.Random:
        """The loss draws of one flow, ``(src, dst, dst port)`` (a
        one-shot flow's port is -1), seeded from the salt."""
        rng = self._loss_rngs.get(flow)
        if rng is None:
            digest = hashlib.sha256(
                f"{self._loss_salt}:{flow}".encode()).digest()
            rng = self._loss_rngs[flow] = random.Random(
                int.from_bytes(digest[:8], "big"))
        return rng

    def _routes_from(self, src: Host) -> dict:
        """What each destination's route gives a send from ``src``, kept
        for the network's current epoch: a move of it drops every
        host's."""
        epoch = self.network._epoch
        if self._routes_epoch != epoch:
            self._routes_epoch = epoch
            self._routes = {}
        routes = self._routes.get(src)
        if routes is None:
            routes = self._routes[src] = {}
        return routes

    def _prune_flow_state(self) -> None:
        """Drop ordering watermarks that have passed: once a flow's
        watermark is behind ``now`` no in-flight message can be
        overtaken, so the entry orders nothing.  Loss RNGs are *not*
        pruned — dropping one would restart that flow's loss stream —
        but they are bounded by construction: non-oneshot flows key on
        long-lived service ports, oneshot replies share one per-host-
        pair stream."""
        now = self.sim.now
        stale = [flow for flow, when in self._flow_clock.items() if when <= now]
        for flow in stale:
            del self._flow_clock[flow]
        # next sweep after ~one live set's worth of sends (amortized O(1))
        self._prune_at = self.messages_sent + max(256, 4 * len(self._flow_clock))

    def _deliver_batch(self, when: float) -> None:
        now = self.sim.now
        # pop before delivering: a handler may send a message that lands
        # at this exact instant, which must start a fresh batch
        for msg, on_fail, on_delivered in self._arrivals.pop(when):
            msg.delivered_at = now
            dst = msg.dst_host
            if not dst.up:
                # the destination crashed while the message was in flight
                self.messages_dropped += 1
                if on_fail is not None:
                    on_fail(DeliveryError(f"host {dst.name} is down"))
                continue
            handler = dst.ports._listeners.get(msg.dst_port)
            if handler is None:
                self.messages_dropped += 1
                if on_fail is not None:
                    on_fail(DeliveryError(
                        f"no listener on {dst.name}:{msg.dst_port}"))
                continue
            if on_delivered is not None:
                on_delivered(msg)
            handler(msg, self)

    # -- RPC helper ---------------------------------------------------------

    def request(self, src: Host, dst: Host, dst_port: int, payload: Any, *,
                size_bytes: int = 256, timeout: Optional[float] = 5.0) -> EventFlag:
        """RPC: send and return a flag triggered with the reply payload.

        On timeout or delivery failure the flag triggers with a
        :class:`DeliveryError` instance — callers check the type.
        The server handler replies via :meth:`reply`.
        """
        done = EventFlag(self.sim, name=f"rpc:{dst.name}:{dst_port}")
        reply_port = next(self._ephemeral)

        timer = None
        if timeout is not None:
            def expire() -> None:
                src.ports.unbind(reply_port)
                if not done.triggered:
                    done.trigger(DeliveryError(
                        f"request to {dst.name}:{dst_port} timed out"))
            timer = self.sim.call_in(timeout, expire)

        def on_reply(msg: Message, _transport: "MessageTransport") -> None:
            src.ports.unbind(reply_port)
            if timer is not None:
                timer.cancel()
            if not done.triggered:
                done.trigger(msg.payload)

        src.ports.bind(reply_port, on_reply)

        def fail(exc: Exception) -> None:
            src.ports.unbind(reply_port)
            if timer is not None:
                timer.cancel()
            if not done.triggered:
                done.trigger(exc)

        self.send(src, dst, dst_port, payload, size_bytes=size_bytes,
                  src_port=reply_port, on_fail=fail)
        return done

    def reply(self, original: Message, payload: Any, *, size_bytes: int = 256) -> None:
        """Reply to an RPC message (sends back to its source port).

        Reply ports are minted fresh per request, so the reply is sent
        ``oneshot``: no per-port watermark or loss-RNG entry is created
        (each would be permanent — the flow-state leak)."""
        self.send(original.dst_host, original.src_host, original.src_port,
                  payload, size_bytes=size_bytes, oneshot=True,
                  on_fail=ignore_failure)
