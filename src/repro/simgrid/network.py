"""Network topology: nodes, links, routers/switches, routing.

The Matisse testbed (paper Fig. 5) is a handful of hosts, two site LANs
(1000BT), and a WAN path (OC-12 into the OC-48 DARPA Supernet).  We
model the topology as an undirected graph of :class:`NetNode`\\ s joined
by :class:`Link`\\ s with bandwidth, propagation latency, and an
optional random-loss rate.  Each direction of a link is one
:class:`LinkDirection`: its loss rate and its output queue.  Routing is
shortest-path by hop count; the resolved :class:`Path` stores its
aggregates and a per-hop charging plan, and the whole cache is dropped
by any topology change or link mutation (one epoch — see
:meth:`Network._invalidate`).

Routers and switches keep SNMP-visible interface counters (octets,
unicast packets, errors, CRC errors, discards) — the statistics the
JAMM network sensors poll (§2.2 "network sensors") and which §6 used to
rule the network out ("SNMP errors on the end switches and routers were
also monitored ... but no errors were reported").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

__all__ = ["NetNode", "RouterNode", "SwitchNode", "Link", "LinkDirection",
           "Network", "NoRouteError", "InterfaceCounters", "Path",
           "TRAFFIC_CLASSES"]

#: traffic classes every transport send is tagged with (rotorsim-style
#: flow tagging): control-plane/monitoring messages, bulk data, and
#: injected background cross-traffic.  Links account carried bytes per
#: class so scenarios can see *who* filled a congested queue.
TRAFFIC_CLASSES = ("monitoring", "bulk", "background")


class NoRouteError(RuntimeError):
    """No usable path between two nodes."""


@dataclass(slots=True)
class InterfaceCounters:
    """MIB-II-style interface counters for one (node, link) interface."""

    in_octets: int = 0
    out_octets: int = 0
    in_packets: int = 0
    out_packets: int = 0
    in_errors: int = 0
    crc_errors: int = 0
    discards: int = 0

    def as_dict(self) -> dict:
        return {
            "ifInOctets": self.in_octets,
            "ifOutOctets": self.out_octets,
            "ifInUcastPkts": self.in_packets,
            "ifOutUcastPkts": self.out_packets,
            "ifInErrors": self.in_errors,
            "ifCrcErrors": self.crc_errors,
            "ifInDiscards": self.discards,
        }


class NetNode:
    """A vertex in the topology (host attachment point, router, switch)."""

    kind = "node"

    def __init__(self, name: str):
        self.name = name
        self.links: list["Link"] = []
        #: per-link interface counters, keyed by the link object
        self.interfaces: dict["Link", InterfaceCounters] = {}

    def interface(self, link: "Link") -> InterfaceCounters:
        ctr = self.interfaces.get(link)
        if ctr is None:
            ctr = InterfaceCounters()
            self.interfaces[link] = ctr
        return ctr

    def totals(self) -> InterfaceCounters:
        """Aggregate counters across all interfaces."""
        total = InterfaceCounters()
        for ctr in self.interfaces.values():
            total.in_octets += ctr.in_octets
            total.out_octets += ctr.out_octets
            total.in_packets += ctr.in_packets
            total.out_packets += ctr.out_packets
            total.in_errors += ctr.in_errors
            total.crc_errors += ctr.crc_errors
            total.discards += ctr.discards
        return total

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r}>"


class RouterNode(NetNode):
    kind = "router"


class SwitchNode(NetNode):
    kind = "switch"


@dataclass(slots=True, eq=False)
class LinkDirection:
    """One direction of a :class:`Link`: its random-loss rate and its
    output FIFO.

    The queue is virtual: only the time the transmitter is busy until
    is kept, so the idle fast path is a compare and an add.  Beside it
    are the queue's observables and a sliding window of carried bytes,
    the utilization observable.  The depth is the link's
    ``queue_bytes``, read where it is needed, never copied here."""

    #: random-loss rate.  1.0 is a true blackhole — packets die but the
    #: link stays "up", so routing still uses it (the gray-failure case,
    #: as opposed to ``Link.set_up(False)``, which reroutes around the
    #: link).  Set it through the link's loss mutators, which drop
    #: cached routes.
    loss: float
    busy_until: float = 0.0
    #: overflow events (an enqueue that lost bytes)
    drops: int = 0
    #: bytes lost to queue overflow
    dropped_bytes: int = 0
    #: worst backlog ever seen at enqueue time, seconds
    peak_s: float = 0.0
    #: cumulative queuing delay charged to accepted traffic, seconds
    delay_total_s: float = 0.0
    win_start: float = 0.0
    win_bytes: int = 0
    win_rate_bps: float = 0.0


class Link:
    """A bidirectional link with bandwidth and latency, and in each
    direction (one :class:`LinkDirection` apiece) a loss rate and a FIFO
    output queue.

    The queue makes the link a genuinely *shared* resource: every
    transport (control-plane messages, TCP rounds, background traffic)
    enqueues its bytes behind whatever is already draining at line rate,
    sees the backlog as queuing delay, and loses what overflows
    ``queue_bytes`` — the congestion signal the paper's monitoring path
    exists to observe (§6, §7).
    """

    #: default queue depth, in seconds of line rate (a quarter-second of
    #: buffering — generous router-class queues, so an uncongested flow
    #: never drops but a storm builds visible delay before loss)
    QUEUE_SECONDS = 0.25
    #: width of the utilization accounting window, seconds
    UTIL_WINDOW_S = 1.0

    def __init__(self, a: NetNode, b: NetNode, *, bandwidth_bps: float,
                 latency_s: float, loss_rate: float = 0.0, name: str = "",
                 queue_bytes: Optional[float] = None):
        #: the :class:`Network` whose routes cross this link (set by
        #: :meth:`Network.link`): every mutator tells it, so no cached
        #: :class:`Path` outlives the values it was built from
        self._network: Optional["Network"] = None
        self.bandwidth_bps = bandwidth_bps
        self.latency_s = latency_s
        if not (0.0 <= loss_rate <= 1.0):
            raise ValueError("loss rate must be in [0, 1]")
        if queue_bytes is not None and queue_bytes <= 0:
            raise ValueError("queue depth must be positive")
        self.a = a
        self.b = b
        #: the two directions, (toward b, toward a): loss and queue
        self.directions = (LinkDirection(float(loss_rate)),
                           LinkDirection(float(loss_rate)))
        self.name = name or f"{a.name}--{b.name}"
        self._up = True
        #: queue depth in bytes (per direction)
        self.queue_bytes = (float(queue_bytes) if queue_bytes is not None
                            else self.QUEUE_SECONDS * self.bandwidth_bps / 8.0)
        #: carried bytes per traffic class (both directions combined)
        self.class_bytes: dict[str, int] = {}
        a.links.append(self)
        b.links.append(self)

    def other(self, node: NetNode) -> NetNode:
        if node is self.a:
            return self.b
        if node is self.b:
            return self.a
        raise ValueError(f"{node!r} not an endpoint of {self!r}")

    # -- mutable properties: every change invalidates cached routes ----------

    def _changed(self) -> None:
        if self._network is not None:
            self._network._invalidate()

    @property
    def bandwidth_bps(self) -> float:
        return self._bandwidth_bps

    @bandwidth_bps.setter
    def bandwidth_bps(self, bps: float) -> None:
        if bps <= 0:
            raise ValueError("bandwidth must be positive")
        self._bandwidth_bps = float(bps)
        self._changed()

    @property
    def latency_s(self) -> float:
        return self._latency_s

    @latency_s.setter
    def latency_s(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("latency must be non-negative")
        self._latency_s = float(seconds)
        self._changed()

    @property
    def up(self) -> bool:
        """Whether routing may use the link; change it with :meth:`set_up`."""
        return self._up

    def set_up(self, up: bool) -> None:
        self._up = up
        self._changed()

    # -- loss ----------------------------------------------------------------

    @property
    def loss_rate(self) -> float:
        """Worst-direction loss rate (the only rate, for symmetric links)."""
        fwd, back = self.directions
        return max(fwd.loss, back.loss)

    @loss_rate.setter
    def loss_rate(self, rate: float) -> None:
        self.set_loss(rate)

    def toward(self, node: NetNode) -> LinkDirection:
        """The direction carrying traffic toward endpoint ``node``."""
        if node is self.b:
            return self.directions[0]
        if node is self.a:
            return self.directions[1]
        raise ValueError(f"{node!r} not an endpoint of {self!r}")

    def loss_toward(self, dst: NetNode) -> float:
        """Loss rate for traffic flowing toward endpoint ``dst``."""
        return self.toward(dst).loss

    def set_loss(self, rate: float, *, toward: Optional[NetNode] = None) -> None:
        """Set the loss rate — both directions, or only ``toward`` one
        endpoint (asymmetric faults: A->B black, B->A clean)."""
        rate = float(rate)
        if not (0.0 <= rate <= 1.0):
            raise ValueError("loss rate must be in [0, 1]")
        if toward is None:
            for direction in self.directions:
                direction.loss = rate
        else:
            self.toward(toward).loss = rate
        self._changed()

    def loss_state(self) -> tuple:
        """Opaque snapshot of both directions (pair with :meth:`restore_loss`)."""
        fwd, back = self.directions
        return (fwd.loss, back.loss)

    def restore_loss(self, state: tuple) -> None:
        fwd, back = self.directions
        fwd.loss, back.loss = float(state[0]), float(state[1])
        self._changed()

    # -- shared FIFO queue ---------------------------------------------------

    def queue_backlog_s(self, toward: NetNode, now: float) -> float:
        """Seconds of traffic queued ahead of a new arrival heading
        ``toward`` the given endpoint at time ``now``."""
        busy = self.toward(toward).busy_until
        return busy - now if busy > now else 0.0

    def queue_offer(self, src: NetNode, nbytes: int, now: float,
                    traffic_class: Optional[str] = None,
                    *, atomic: bool = False) -> tuple[int, float]:
        """Offer ``nbytes`` for transmission from ``src`` toward the
        other endpoint.  Returns ``(accepted_bytes, queue_delay_s)``.

        Accepted bytes join the per-direction FIFO behind the current
        backlog and drain at line rate; the caller adds the returned
        delay to its delivery time.  Bytes beyond the free queue space
        overflow — with ``atomic=True`` (whole datagrams) an overflow
        rejects the entire offer, otherwise the head that fits is
        accepted and the tail is the caller's loss to model.
        """
        q = self.toward(self.other(src))
        rate = self._bandwidth_bps / 8.0    # bytes/s drain rate
        busy = q.busy_until
        if busy <= now:
            # idle fast path: empty queue, nothing can overflow
            delay = 0.0
            accepted = nbytes
            q.busy_until = now + nbytes / rate
        else:
            delay = busy - now
            free = self.queue_bytes - delay * rate
            if nbytes <= free:
                accepted = nbytes
            elif atomic:
                accepted = 0
            else:
                accepted = int(free) if free > 0 else 0
            dropped = nbytes - accepted
            if dropped:
                q.drops += 1
                q.dropped_bytes += dropped
            if accepted:
                q.busy_until = busy + accepted / rate
                q.delay_total_s += delay
            if delay > q.peak_s:
                q.peak_s = delay
        if accepted:
            # sliding-window utilization accounting (carried bytes only)
            if now - q.win_start >= self.UTIL_WINDOW_S:
                elapsed = now - q.win_start
                q.win_rate_bps = q.win_bytes * 8.0 / elapsed
                q.win_start = now
                q.win_bytes = accepted
            else:
                q.win_bytes += accepted
            if traffic_class is not None:
                self.class_bytes[traffic_class] = \
                    self.class_bytes.get(traffic_class, 0) + accepted
        return accepted, delay

    def utilization(self, toward: NetNode, now: float) -> float:
        """Fraction of line rate carried toward ``toward`` over the
        current sliding window (what an SNMP poller would compute from
        octet deltas)."""
        q = self.toward(toward)
        elapsed = now - q.win_start
        if elapsed >= self.UTIL_WINDOW_S:
            rate = q.win_bytes * 8.0 / elapsed
        else:
            # partial window: never *under*-report a hot link just
            # because the window recently rolled — blend with the last
            # completed window's rate
            rate = max(q.win_rate_bps, q.win_bytes * 8.0 / self.UTIL_WINDOW_S)
        util = rate / self.bandwidth_bps
        return util if util < 1.0 else 1.0

    def queue_stats(self) -> dict:
        """Snapshot of the queue observables, each a ``(toward b,
        toward a)`` pair but ``queue_bytes`` and ``class_bytes``."""
        fwd, back = self.directions
        return {
            "queue_bytes": self.queue_bytes,
            "drops": (fwd.drops, back.drops),
            "dropped_bytes": (fwd.dropped_bytes, back.dropped_bytes),
            "peak_backlog_s": (fwd.peak_s, back.peak_s),
            "delay_total_s": (fwd.delay_total_s, back.delay_total_s),
            "class_bytes": dict(self.class_bytes),
        }

    def record_transit(self, src: NetNode, nbytes: int, npackets: int = 1,
                       *, errors: int = 0, crc: int = 0) -> None:
        """Update interface counters for ``npackets``/``nbytes`` crossing
        from ``src`` toward the other endpoint."""
        dst = self.other(src)
        out = src.interface(self)
        out.out_octets += nbytes
        out.out_packets += npackets
        inn = dst.interface(self)
        inn.in_octets += nbytes
        inn.in_packets += npackets
        inn.in_errors += errors
        inn.crc_errors += crc

    def __repr__(self) -> str:  # pragma: no cover
        state = "up" if self.up else "DOWN"
        return f"<Link {self.name} {self.bandwidth_bps/1e6:.0f}Mbps {state}>"


class Path:
    """A resolved route, src -> dst, and everything a sender derives
    from it, computed once when the route is resolved:

    * ``nodes`` / ``links`` — ``links[i]`` is crossed from ``nodes[i]``
      toward ``nodes[i + 1]``; ``hops``, ``router_hops``;
    * ``latency_s`` / ``rtt_s`` — summed one-way propagation, and twice it;
    * ``bottleneck_hop`` / ``bottleneck_bps`` — index and rate of the
      narrowest link (the first, on a tie); ``None`` / ``inf`` on the
      zero-hop path;
    * ``loss_rate`` — combined *directional* loss: an asymmetric fault
      on a link only affects paths crossing it the lossy way;
    * ``plan`` — per hop ``(link, the direction crossed, drain rate in
      bytes/s, the sending node's interface counters, the receiving
      node's)``: what :meth:`charge` walks for ``MessageTransport``.
      The queue depth is not in it: :meth:`charge` reads the link's
      ``queue_bytes``, which no epoch guards.

    :class:`Network` drops every cached ``Path`` when any link changes
    (see ``Network._epoch``), so what ``route()`` returns is always
    live; a ``Path`` kept across a link mutation describes the network
    as it was — ``route()`` again."""

    __slots__ = ("nodes", "links", "hops", "router_hops", "latency_s",
                 "rtt_s", "bottleneck_hop", "bottleneck_bps", "loss_rate",
                 "plan")

    def __init__(self, nodes: tuple, links: tuple):
        self.nodes = nodes
        self.links = links
        self.hops = len(links)
        self.router_hops = sum(1 for n in nodes[1:-1] if n.kind == "router")
        self.latency_s = sum(l.latency_s for l in links)
        self.rtt_s = 2.0 * self.latency_s
        self.bottleneck_hop: Optional[int] = None
        self.bottleneck_bps = float("inf")
        plan = []
        keep = 1.0
        for i, link in enumerate(links):
            node, far = nodes[i], nodes[i + 1]
            q = link.toward(far)
            plan.append((link, q, link.bandwidth_bps / 8.0,
                         node.interface(link), far.interface(link)))
            keep *= 1.0 - q.loss
            if link.bandwidth_bps < self.bottleneck_bps:
                self.bottleneck_hop, self.bottleneck_bps = i, link.bandwidth_bps
        self.plan = tuple(plan)
        self.loss_rate = 1.0 - keep

    def charge(self, size: int, npackets: int, now: float,
               traffic_class: str) -> Optional[float]:
        """Charge one datagram sent at ``now`` to every hop: its output
        queue (single-timestamp approximation: backlog ahead of the
        message becomes delivery delay), utilization window, per-class
        bytes and both interfaces' counters.  Returns the queuing delay
        summed over the hops, or None when a full queue ate the datagram
        whole — a congestion drop at that hop, silent like link loss:
        the sender saw a successful send, only the discard counters
        (which the monitoring path polls) notice.  One pass, no call per
        hop; the arithmetic is :meth:`Link.queue_offer`'s with
        ``atomic=True``, addition for addition."""
        qdelay = 0.0
        window_s = Link.UTIL_WINDOW_S
        for link, q, rate, out, inn in self.plan:
            ahead = q.busy_until
            if ahead <= now:    # transmitter free: nothing can overflow
                q.busy_until = now + size / rate
            else:
                waited = ahead - now
                if waited > q.peak_s:
                    q.peak_s = waited
                if size > link.queue_bytes - waited * rate:
                    q.drops += 1
                    q.dropped_bytes += size
                    inn.discards += npackets
                    return None
                q.busy_until = ahead + size / rate
                q.delay_total_s += waited
                qdelay += waited
            if now - q.win_start >= window_s:
                elapsed = now - q.win_start
                q.win_rate_bps = q.win_bytes * 8.0 / elapsed
                q.win_start = now
                q.win_bytes = size
            else:
                q.win_bytes += size
            carried = link.class_bytes
            carried[traffic_class] = carried.get(traffic_class, 0) + size
            out.out_octets += size
            out.out_packets += npackets
            inn.in_octets += size
            inn.in_packets += npackets
        return qdelay


class Network:
    """The topology container + routing."""

    def __init__(self):
        self._nodes: dict[str, NetNode] = {}
        self._links: list[Link] = []
        self._route_cache: dict[tuple, Path] = {}
        #: bumped, and the route cache dropped, by every change a cached
        #: :class:`Path` could have read: a node or link added, and each
        #: :class:`Link` mutator (``set_up``, ``set_loss`` /
        #: ``restore_loss`` / ``loss_rate =``, ``latency_s =``,
        #: ``bandwidth_bps =``)
        self._epoch = 0

    # -- construction -------------------------------------------------------

    def add_node(self, node: NetNode) -> NetNode:
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._invalidate()
        return node

    def node(self, name: str) -> NetNode:
        """Create-or-get a plain attachment node by name."""
        existing = self._nodes.get(name)
        if existing is not None:
            return existing
        return self.add_node(NetNode(name))

    def router(self, name: str) -> RouterNode:
        existing = self._nodes.get(name)
        if existing is not None:
            if not isinstance(existing, RouterNode):
                raise ValueError(f"{name!r} exists and is not a router")
            return existing
        return self.add_node(RouterNode(name))  # type: ignore[return-value]

    def switch(self, name: str) -> SwitchNode:
        existing = self._nodes.get(name)
        if existing is not None:
            if not isinstance(existing, SwitchNode):
                raise ValueError(f"{name!r} exists and is not a switch")
            return existing
        return self.add_node(SwitchNode(name))  # type: ignore[return-value]

    def link(self, a: NetNode | str, b: NetNode | str, *, bandwidth_bps: float,
             latency_s: float, loss_rate: float = 0.0, name: str = "",
             queue_bytes: Optional[float] = None) -> Link:
        node_a = self.node(a) if isinstance(a, str) else a
        node_b = self.node(b) if isinstance(b, str) else b
        lk = Link(node_a, node_b, bandwidth_bps=bandwidth_bps,
                  latency_s=latency_s, loss_rate=loss_rate, name=name,
                  queue_bytes=queue_bytes)
        lk._network = self
        self._links.append(lk)
        self._invalidate()
        return lk

    # -- state --------------------------------------------------------------

    def links(self) -> list[Link]:
        return list(self._links)

    def routers(self) -> list[RouterNode]:
        return [n for n in self._nodes.values() if isinstance(n, RouterNode)]

    def switches(self) -> list[SwitchNode]:
        return [n for n in self._nodes.values() if isinstance(n, SwitchNode)]

    def get(self, name: str) -> Optional[NetNode]:
        return self._nodes.get(name)

    def set_link_state(self, link: Link, up: bool) -> None:
        link.set_up(up)

    def _invalidate(self) -> None:
        self._route_cache.clear()
        self._epoch += 1

    # -- routing ------------------------------------------------------------

    def route(self, src: NetNode | str, dst: NetNode | str) -> Path:
        """Shortest usable path by hop count (BFS), cached under the
        endpoints as the caller named them (node or node name)."""
        cached = self._route_cache.get((src, dst))
        if cached is not None:
            return cached
        src_node = self._nodes[src] if isinstance(src, str) else src
        dst_node = self._nodes[dst] if isinstance(dst, str) else dst
        path = self._bfs(src_node, dst_node)
        if path is None:
            raise NoRouteError(f"no route {src_node.name} -> {dst_node.name}")
        self._route_cache[src, dst] = path
        return path

    def _bfs(self, src: NetNode, dst: NetNode) -> Optional[Path]:
        if src is dst:
            return Path(nodes=(src,), links=())
        prev: dict[NetNode, tuple[NetNode, Link]] = {}
        seen = {src}
        queue = deque([src])
        while queue:
            node = queue.popleft()
            for link in node.links:
                if not link._up:
                    continue
                neighbor = link.other(node)
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                prev[neighbor] = (node, link)
                if neighbor is dst:
                    return self._unwind(src, dst, prev)
                queue.append(neighbor)
        return None

    @staticmethod
    def _unwind(src: NetNode, dst: NetNode,
                prev: dict) -> Path:
        nodes = [dst]
        links = []
        node = dst
        while node is not src:
            parent, link = prev[node]
            nodes.append(parent)
            links.append(link)
            node = parent
        nodes.reverse()
        links.reverse()
        return Path(nodes=tuple(nodes), links=tuple(links))
