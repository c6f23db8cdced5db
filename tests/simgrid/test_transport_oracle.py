"""Reference-model oracle for the transport's one send routine (ROADMAP
aim 3).

``MessageTransport.send_burst`` — ``send`` is a burst of one — charges
every hop of a route in one pass over the stored per-route plan
(``Path.charge``), reads the path's latency / bottleneck / loss as
stored values, and keeps them per host pair across bursts for as long
as the network's epoch stands; it builds a ``Message`` only for an
arrival and returns message ids.  The trivially-correct version — one
message at a time, up check and route resolved afresh, ``Message``
built for every send, resolve
the route from scratch, re-derive every aggregate from the links as
they are *now*, and walk ``queue_offer`` -> ``record_transit`` one hop
at a time — is kept here as :class:`ModelTransport`, whose burst is k
of its sends.  Hypothesis drives it and the real transport, on twin
worlds built from one seed, through one random interleaving of sends,
bursts (some one-shot, some with deliveries nobody hears of, which
raise) and link mutations, a crashed host, an unbound port and a flaky
endpoint, and every observable — what each call returned or raised
included, compared as message ids — must come out equal with exact
float equality.

Checked against these mutations of ``send_burst``, each of which fails
the fixed burst script at the bottom of this file: skipping the flow
watermark for bursts of more than one, keeping the per-destination
route across a synchronous ``on_fail`` (which slowed the trunk),
skipping a deaf delivery instead of raising there, returning a
visibly failed delivery's message, keying a one-shot flow's loss draws
by its port, never running the watermark sweep, summing the delay in
another order, skipping the destination port record, and a zero-hop
delay other than 1e-6.  One run of the random tests (100 examples)
found all but the stale route, which needs an ``on_fail`` that changes
the network — only the fixed script's ``arm`` op makes one.  Of the
routes kept across bursts, each killed by the kept-routes script
below: the kept routes not dropped when the epoch moves, the up check
of the destination made only where a route is resolved (hoisted out of
the per-delivery path), the message id drawn after the up check and
route instead of before, and the ``ignore_failure`` shortcut taken for
any ``on_fail``.  And of
``Path.charge``: adding a hop's ``delay_total_s`` after the loop,
leaving its ``peak_s`` alone on an overflowing offer, refusing a
datagram that fills the queue exactly.

The model also states the discard rule — a datagram whose destination
port is bound to :func:`repro.simgrid.sockets.discard` schedules no
arrival — and the sink-twin tests at the bottom check that the rule
hides nothing: two worlds on the *real* transport, alike but for what
the discard port is bound to (``discard`` or a plain no-op lambda, which
takes the full delivery path), must agree on everything but the two
counters that count arrivals.  Checked against taking the early return
above the flaky-host block, which fails the fixed sink script.
"""

from __future__ import annotations

import hashlib
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simgrid import DeliveryError, GridWorld
from repro.simgrid.network import TRAFFIC_CLASSES
from repro.simgrid.sockets import (Message, MessageTransport, discard,
                                   ignore_failure)
from repro.simgrid.traffic import TRAFFIC_PORT

PORTS = (5000, 5001)
UNBOUND = 5002      # nobody listens: fails on arrival, not at the send
#: a burst item ``(dst, port, size, src_port, tag, DEAF)`` has no
#: callbacks: undeliverable at the send, it raises and ends the burst
DEAF = "deaf"
HOSTS = ("a1", "a2", "b1")
#: every link of the twin topology, by name (order = index in an op)
LINKS = ("a1--swA", "a2--swA", "b1--swB", "swA--r1", "r1--swB",
         "swA--r2", "r2--r3", "r3--swB")
WAN_BPS = 8e6       # 1e6 bytes/s: a storm backlogs it in milliseconds


class ModelTransport(MessageTransport):
    """The per-hop send this repository had before routes carried a
    plan: nothing cached, nothing stored, one call chain per hop."""

    def send(self, src, dst, dst_port, payload, *, size_bytes=256,
             src_port=None, traffic_class="monitoring", on_fail=None,
             on_delivered=None, oneshot=False):
        size = size_bytes + self.HEADER_BYTES
        if src_port is None:
            src_port = next(self._ephemeral)
        msg = Message(src_host=src, dst_host=dst, src_port=src_port,
                      dst_port=dst_port, payload=payload, size_bytes=size,
                      msg_id=next(self._msg_ids), sent_at=self.sim.now)
        if not src.up or not dst.up:
            self.messages_dropped += 1
            exc = DeliveryError(
                f"host {src.name if not src.up else dst.name} is down")
            if on_fail is not None:
                on_fail(exc)
                return None
            raise exc
        # no route cache: breadth-first search over the links that are up
        path = self.network._bfs(src.node, dst.node)
        if path is None:
            self.messages_dropped += 1
            exc = DeliveryError(f"no route {src.name} -> {dst.name}")
            if on_fail is not None:
                on_fail(exc)
                return None
            raise exc
        hops = list(zip(path.nodes[:-1], path.links))
        npackets = max(1, (size + self.MTU - 1) // self.MTU)
        self.messages_sent += 1
        self.per_host_sent[src.name] = self.per_host_sent.get(src.name, 0) + 1
        self.class_bytes[traffic_class] = \
            self.class_bytes.get(traffic_class, 0) + size
        act = src.ports.activity(src_port)
        act.bytes_out += size
        act.packets_out += npackets
        act.last_activity = self.sim.now
        keep = 1.0
        for node, link in hops:
            keep *= 1.0 - link.loss_toward(link.other(node))
        loss = 1.0 - keep
        if loss > 0.0:
            flow = (src.name, dst.name, -1 if oneshot else dst_port)
            rng = self._loss_rngs.get(flow)
            if rng is None:
                digest = hashlib.sha256(
                    f"{self._loss_salt}:{flow}".encode()).digest()
                rng = self._loss_rngs[flow] = random.Random(
                    int.from_bytes(digest[:8], "big"))
            if rng.random() < loss:
                for node, link in hops:
                    link.record_transit(node, size, npackets)
                    receiver = link.other(node)
                    if link.loss_toward(receiver) > 0.0:
                        receiver.interface(link).discards += npackets
                        break
                self.messages_lost += 1
                return msg.msg_id
        qdelay = 0.0
        now = self.sim.now
        for node, link in hops:
            accepted, delay = link.queue_offer(node, size, now, traffic_class,
                                               atomic=True)
            if not accepted:
                link.other(node).interface(link).discards += npackets
                self.messages_lost_congestion += 1
                return msg.msg_id
            qdelay += delay
            link.record_transit(node, size, npackets)
        if hops:
            self.queue_delay_s += qdelay
        act = dst.ports.activity(dst_port)
        act.bytes_in += size
        act.packets_in += npackets
        act.last_activity = self.sim.now
        if hops:
            delay = sum(l.latency_s for l in path.links) \
                + (size * 8.0) / min(l.bandwidth_bps for l in path.links) \
                + qdelay
        else:
            delay = 1e-6
        # the endpoint's transient faults are not the route's business:
        # the same decisions as the real send, on the same streams
        flaky = self._flaky_hosts.get(dst.name)
        if flaky is not None:
            if flaky["latency_s"] > 0.0:
                delay += flaky["latency_s"]
                self.flaky_delay_s += flaky["latency_s"]
            if flaky["rate"] > 0.0 and flaky["rng"].random() < flaky["rate"]:
                self.messages_flaky_failed += 1
                if on_fail is not None:
                    self.sim.call_at(
                        self.sim.now + delay, on_fail, DeliveryError(
                            f"transient rpc failure at {dst.name}"))
                return msg.msg_id
        # a datagram whose destination port is bound to the discard
        # handler schedules no arrival
        if dst.ports.listener(dst_port) is discard:
            return msg.msg_id
        when = self.sim.now + delay
        if not oneshot:
            flow = (src.name, dst.name, dst_port)
            prev = self._flow_clock.get(flow)
            if prev is not None and when < prev:
                when = prev
            self._flow_clock[flow] = when
        if self.messages_sent >= self._prune_at:
            self._prune_flow_state()
        batch = self._arrivals.get(when)
        if batch is None:
            self._arrivals[when] = batch = []
            self.delivery_wakeups += 1
            self.sim.call_at(when, self._deliver_batch, when)
        batch.append((msg, on_fail, on_delivered))
        return msg.msg_id

    def send_burst(self, src, deliveries, *, traffic_class="monitoring",
                   oneshot=False):
        """What a burst is defined to be: k sends, in order; the last
        one's result is the burst's."""
        msg_id = None
        for dst, dst_port, payload, size_bytes, src_port, on_fail, \
                on_delivered in deliveries:
            msg_id = self.send(src, dst, dst_port, payload,
                            size_bytes=size_bytes, src_port=src_port,
                            traffic_class=traffic_class, on_fail=on_fail,
                            on_delivered=on_delivered, oneshot=oneshot)
        return msg_id


class Twin:
    """One world of the pair: two site LANs joined by a short WAN path
    (one router) and a longer detour (two routers), so downing a trunk
    reroutes and downing both partitions."""

    def __init__(self, seed: int, *, model: bool, sink=None):
        world = self.world = GridWorld(seed=seed)
        if model:
            salt = world.transport._loss_salt
            world.transport = ModelTransport(world.sim, world.network)
            world.transport._loss_salt = salt
        hosts = [world.add_host(name) for name in HOSTS]
        world.lan(hosts[:2], switch="swA")
        world.lan(hosts[2:], switch="swB")
        world.wan_path("swA", "swB", routers=["r1"], bandwidth_bps=WAN_BPS,
                       latency_s=5e-3)
        world.wan_path("swA", "swB", routers=["r2", "r3"],
                       bandwidth_bps=WAN_BPS, latency_s=5e-3)
        self.links = {l.name: l for l in world.network.links()}
        assert tuple(self.links) == LINKS
        self.arrivals: list = []
        #: every ``on_fail`` / ``on_delivered`` call and every raised
        #: ``DeliveryError``, in the order made
        self.callbacks: list = []
        #: what each send / burst returned: a message id, or None
        self.returns: list = []
        #: ops the next ``on_fail`` applies from inside the send ("arm")
        self.armed: list = []
        self.storms: list = []
        for host in hosts:
            for port in PORTS:
                host.ports.bind(port, self._arrived)
            if sink is not None:
                # a storm's generator leaves a port that is bound alone
                host.ports.bind(TRAFFIC_PORT, sink)

    def _arrived(self, msg, _transport) -> None:
        self.arrivals.append((msg.payload, msg.sent_at, self.world.now,
                              msg.msg_id, msg.dst_host.name, msg.dst_port))

    def _failed(self, exc) -> None:
        self.callbacks.append(("fail", self.world.now, str(exc)))
        while self.armed:
            self.apply(self.armed.pop(0))

    def _delivered(self, msg) -> None:
        self.callbacks.append(("ok", self.world.now, msg.msg_id))

    def _callbacks(self, port: int) -> tuple:
        """``(on_fail, on_delivered)`` of a delivery: the discard port's
        are blind, as a storm's are — what they would hear of an arrival
        is the one thing the sink twins are allowed to differ in."""
        if port == TRAFFIC_PORT:
            return ignore_failure, None
        return self._failed, self._delivered

    def apply(self, op: tuple) -> None:
        world, kind = self.world, op[0]
        if kind == "send":
            _, src, dst, port, size, cls, oneshot, tag = op
            on_fail, on_delivered = self._callbacks(port)
            self.returns.append(world.transport.send(
                world.hosts[src], world.hosts[dst], port, tag,
                size_bytes=size, traffic_class=cls, oneshot=oneshot,
                src_port=4000, on_fail=on_fail, on_delivered=on_delivered))
        elif kind == "burst":
            _, src, cls, oneshot, items = op
            try:
                self.returns.append(world.transport.send_burst(
                    world.hosts[src], [
                        (world.hosts[dst], port, tag, size, src_port,
                         *((None, None) if deaf else self._callbacks(port)))
                        for dst, port, size, src_port, tag, *deaf in items],
                    traffic_class=cls, oneshot=oneshot))
            except DeliveryError as exc:
                self.callbacks.append(("raise", world.now, str(exc)))
        elif kind == "arm":
            self.armed.append(op[1])
        elif kind == "host":
            host = world.hosts[op[1]]
            if op[2]:
                host.restart()
            else:
                host.crash()
        elif kind == "flaky":
            _, name, rate, latency_s = op
            if rate is None:
                world.transport.clear_flaky_host(name)
            else:
                world.transport.set_flaky_host(name, rate=rate,
                                               latency_s=latency_s, seed=1)
        elif kind == "loss":
            _, name, rate, toward = op
            link = self.links[name]
            link.set_loss(rate, toward=(None, link.a, link.b)[toward])
        elif kind == "latency":
            self.links[op[1]].latency_s = op[2]
        elif kind == "bandwidth":
            self.links[op[1]].bandwidth_bps = op[2]
        elif kind == "updown":
            self.links[op[1]].set_up(op[2])
        elif kind == "storm":
            _, src, dst, rate_bps, packet_bytes, duration, seed = op
            self.storms.append(world.start_traffic({
                "src": src, "dst": dst, "rate_bps": rate_bps,
                "packet_bytes": packet_bytes, "duration": duration,
                "jitter": 0.2, "seed": seed}))
        elif kind == "at":
            # an op applied by a kernel call at an absolute instant
            world.sim.call_at(op[1], self.apply, op[2])
        elif kind == "run_to":
            world.run(until=op[1])
        else:
            assert kind == "wait"
            world.run(until=world.now + op[1])

    def observables(self) -> dict:
        world, tr = self.world, self.world.transport
        now = world.now
        out = {
            "arrivals": self.arrivals,
            "callbacks": self.callbacks,
            "returns": self.returns,
            "transport": {name: getattr(tr, name) for name in (
                "messages_sent", "messages_lost",
                "messages_lost_congestion", "messages_dropped",
                "messages_flaky_failed", "flaky_delay_s",
                "queue_delay_s", "delivery_wakeups", "class_bytes",
                "per_host_sent", "_flow_clock",
                "_prune_at")},
            "storms": [(g.packets_sent, g.send_failures)
                       for g in self.storms],
        }
        for name, link in self.links.items():
            out[f"link:{name}"] = (
                link.queue_stats(),
                link.utilization(link.a, now), link.utilization(link.b, now),
                link.queue_backlog_s(link.a, now),
                link.queue_backlog_s(link.b, now),
                link.a.interface(link).as_dict(),
                link.b.interface(link).as_dict())
        for name in HOSTS:
            ports = world.hosts[name].ports
            out[f"ports:{name}"] = {
                port: (act.bytes_in, act.bytes_out, act.packets_in,
                       act.packets_out, act.last_activity)
                for port, act in sorted(ports._activity.items())}
        return out


sizes = st.sampled_from([1, 200, 1436, 1437, 9000, 60_000])
link_names = st.sampled_from(LINKS)
trunks = st.sampled_from(LINKS[3:])
tags = st.integers(0, 10**6)

sends = st.tuples(
    st.just("send"), st.sampled_from(HOSTS), st.sampled_from(HOSTS),
    st.sampled_from(PORTS), sizes, st.sampled_from(TRAFFIC_CLASSES),
    st.booleans(), tags)

def burst_ops(items):
    """Bursts of 1..12 ``items``, one in four of them deaf."""
    item = st.one_of(items, items, items, items.map(lambda i: i + (DEAF,)))
    return st.tuples(
        st.just("burst"), st.sampled_from(HOSTS),
        st.sampled_from(TRAFFIC_CLASSES), st.booleans(),
        st.lists(item, min_size=1, max_size=12))


# one host's deliveries of one instant: up to a dozen, to any host
# (itself included) and port, on a stream's own source port or a minted
# one; twelve jumbo ones overflow the trunk queue half-way through
bursts = burst_ops(st.tuples(
    st.sampled_from(HOSTS), st.sampled_from(PORTS + (UNBOUND,)),
    st.one_of(sizes, st.integers(1, 60_000)),
    st.sampled_from([4000, 4001, None]), tags))
waits = st.tuples(st.just("wait"),
                  st.sampled_from([0.0, 1e-4, 0.01, 0.3, 1.0, 2.5]))
mutations = st.one_of(
    st.tuples(st.just("loss"), link_names,
              st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.integers(0, 2)),
    st.tuples(st.just("latency"), link_names,
              st.sampled_from([0.0, 1e-4, 5e-3, 0.2])),
    st.tuples(st.just("bandwidth"), link_names,
              st.sampled_from([1e6, WAN_BPS, 1e9])),
    st.tuples(st.just("updown"), trunks, st.booleans()),
    # a generator offering several times the WAN's line rate: backlogs
    # the trunk hop past its queue depth, so sends behind it see
    # queuing delay, then overflow
    st.tuples(st.just("storm"), st.sampled_from(["a1", "a2"]), st.just("b1"),
              st.sampled_from([2 * WAN_BPS, 6 * WAN_BPS]),
              st.sampled_from([1500, 8192]),
              st.sampled_from([0.2, 1.5]), st.integers(0, 3)),
    st.tuples(st.just("host"), st.sampled_from(HOSTS), st.booleans()),
    st.tuples(st.just("flaky"), st.sampled_from(HOSTS),
              st.sampled_from([None, 0.0, 0.5]),
              st.sampled_from([0.0, 0.05])),
)
# mostly sends: any mutation drops every cached route, so a stale plan
# only shows when the same pair sends on both sides of one mutation
ops = st.one_of(sends, sends, sends, bursts, bursts, bursts, waits, waits,
                mutations)


def run_pair(first: Twin, second: Twin, script: list) -> tuple[Twin, Twin]:
    for twin in (first, second):
        for op in script:
            twin.apply(op)
        twin.world.run(until=twin.world.now + 5.0)
        twin.world.stop_traffic()
    return first, second


def run_twins(seed: int, script: list) -> tuple[Twin, Twin]:
    return run_pair(Twin(seed, model=False), Twin(seed, model=True), script)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), script=st.lists(ops, max_size=60))
def test_planned_send_matches_per_hop_model(seed, script):
    real, model = run_twins(seed, script)
    got, want = real.observables(), model.observables()
    for key in want:
        assert got[key] == want[key], key


def test_each_mutator_between_two_sends_of_one_pair():
    """The oracle on one fixed script that sends a1 -> b1 on both sides
    of every kind of link mutation (so a plan that outlived any of them
    would show), through a storm that backlogs and then overflows the
    trunk, a one-way blackhole, a detour and a partition — and checks
    the script really reached those states."""
    def send(tag, size=200, src="a1", dst="b1", cls="monitoring"):
        return ("send", src, dst, 5000, size, cls, False, tag)
    script = [
        send(1), send(2, dst="a1"),
        ("latency", "r1--swB", 0.2), send(3), ("latency", "r1--swB", 5e-3),
        ("bandwidth", "swA--r1", 1e6), send(4, 60_000),
        ("bandwidth", "swA--r1", WAN_BPS), ("wait", 2.5),
        ("storm", "a2", "b1", 6 * WAN_BPS, 8192, 1.5, 0), ("wait", 0.01),
        send(5, cls="bulk"), ("wait", 1.0), send(11, 9000, cls="bulk"),
        ("wait", 2.5),
        ("loss", "swA--r1", 1.0, 2), send(6), send(7, src="b1", dst="a1"),
        ("loss", "swA--r1", 0.0, 0), send(8),
        ("updown", "r1--swB", False), send(9),
        ("updown", "r2--r3", False), send(10), ("wait", 1.0),
    ]
    real, model = run_twins(11, script)
    got = real.observables()
    assert got == model.observables()
    tr = real.world.transport
    assert tr.messages_lost == 1                    # 6: black toward r1
    assert tr.messages_lost_congestion > 0          # 11, and storm packets
    assert tr.messages_dropped == 1                 # 10: partitioned
    took = {a[0]: a[2] - a[1] for a in got["arrivals"] if a[0] is not None}
    assert set(took) == {1, 2, 3, 4, 5, 7, 8, 9}
    assert took[2] == 1e-6                          # same host
    assert took[1] < 0.02 < 0.2 < took[3]           # the latency spike
    assert took[5] > took[1] + 5e-3                 # queued behind the storm
    assert took[4] > 60_000 * 8 / 1e6               # the narrowed trunk
    assert took[9] - took[8] > 4e-3                 # one more WAN segment


def test_burst_is_k_sends_through_overflow_and_every_fallback():
    """The burst oracle on one fixed script: a mixed burst (two hosts,
    the sender itself, an unbound port, a minted source port), a dozen
    jumbo messages that overflow the trunk queue half-way through, a
    crashed destination (heard of, then deaf: the burst raises there),
    a flaky one, a blackholed and then a partitioned trunk between two
    items' hosts, one-shot flows, and enough small bursts for the
    watermark sweep to fall inside one — and checks the script really
    reached those states."""
    def burst(src, items, cls="monitoring", oneshot=False):
        return ("burst", src, cls, oneshot, items)
    mixed = [("b1", 5000, 200, 4000, 1), ("a2", 5001, 1436, 4001, 2),
             ("a1", 5000, 1, None, 3), ("b1", UNBOUND, 200, 4000, 4),
             ("b1", 5000, 9000, None, 5)]
    jumbo = [("b1", 5000 + i % 2, 60_000, 4000 + i % 2, 100 + i)
             for i in range(12)]
    pair = [("b1", 5000, 200, 4000, 0), ("a2", 5000, 200, 4000, 0),
            ("b1", 5001, 9000, 4001, 0)]
    script = [
        burst("a1", mixed), burst("a1", jumbo, "bulk"), ("wait", 1.0),
        # the crashed host's on_fail slows the trunk: the rest of the
        # burst is on the network as it is now
        ("host", "a2", False), ("arm", ("latency", "r1--swB", 0.2)),
        burst("a1", pair),
        # nobody to tell: the burst raises at its second item, after
        # charging the first and before minting the third
        burst("a1", [("b1", 5000, 200, 4000, 40),
                     ("a2", 5000, 200, 4000, 41, DEAF),
                     ("b1", 5000, 200, 4000, 42)]),
        ("host", "a2", True),
        ("latency", "r1--swB", 5e-3), ("wait", 1.0),
        burst("a1", mixed, oneshot=True), ("wait", 1.0),
        # 125 kB behind 125 kB on an idle 250 kB queue: exactly full
        burst("a2", [("b1", 5000, 125_000 - 64, 4000, 60 + i)
                     for i in range(2)]),
        ("wait", 1.0),
        ("flaky", "b1", 0.5, 0.05),
        burst("a2", [("b1", 5000, 200, 4000, 30 + i) for i in range(8)]),
        ("flaky", "b1", None, 0.0),
        # one flow's loss draws, split over two streams by oneshot
        ("loss", "swA--r1", 0.5, 0),
        burst("a1", [("b1", 5000, 200, 4000, 70 + i) for i in range(6)],
              oneshot=True),
        burst("a1", [("b1", 5000, 200, 4000, 76 + i) for i in range(6)]),
        ("loss", "swA--r1", 1.0, 2), burst("a1", pair),
        ("loss", "swA--r1", 0.0, 0),
        ("updown", "r1--swB", False), burst("a1", pair),
        ("updown", "r2--r3", False), burst("a1", pair),
        ("updown", "r1--swB", True), ("wait", 1.0),
    ]
    for i in range(24):
        script += [burst("a1", [(("b1", "a2")[j % 2], 5000 + j % 2, 200,
                                 4000, 1000 + 12 * i + j)
                                for j in range(12)]), ("wait", 0.3)]
    real, model = run_twins(11, script)
    got = real.observables()
    assert got == model.observables()
    tr = real.world.transport
    arrived = {a[0] for a in got["arrivals"]}
    assert {1, 2, 3, 5, 40, 60, 61} <= arrived
    assert not arrived & {4, 41, 42}
    took = [a[2] - a[1] for a in got["arrivals"] if a[0] == 0]
    assert took[1] > 0.2 > took[0]      # 3rd of the pair: slowed mid-burst
    assert 0 < len(arrived & set(range(100, 112))) < 12     # overflowed
    assert tr.messages_lost_congestion == 12 - len(arrived & set(range(100, 112)))
    halved = arrived & set(range(70, 82))
    assert 0 < len(halved) < 12
    # the blackholed pair to b1, and half a lossy trunk's dozen
    assert tr.messages_lost == 2 + 12 - len(halved)
    # unbound twice, crashed twice (heard of, deaf), no route
    assert tr.messages_dropped == 2 + 2 + 2
    assert 0 < tr.messages_flaky_failed < 8
    assert tr.flaky_delay_s > 0.0
    assert tr._prune_at == 512      # swept at send 256: 10th of a burst
    assert ("raise", 1.0, "host a2 is down") in got["callbacks"]
    # 42 was never minted: 41's id is the only one between 40's and the
    # next burst's first (tag 1 again)
    ids = {a[0]: a[3] for a in got["arrivals"] if a[0] != 1}
    assert ids[40] + 2 in {a[3] for a in got["arrivals"] if a[0] == 1}
    fails = [text for kind, _, text in got["callbacks"] if kind == "fail"]
    # the unbound port fails on arrival, the crashed host inside the burst
    assert [text.split()[0] for text in fails[:2]] == ["no", "host"]
    assert sum(text.startswith("transient") for text in fails) \
        == tr.messages_flaky_failed
    # the partitioned pair returns None: its last item failed visibly
    assert None in got["returns"] and len(got["returns"]) == len(
        [op for op in script if op[0] == "burst"]) - 1


def test_kept_routes_across_bursts_epochs_and_a_crash_mid_burst():
    """The oracle on one fixed script for the routes the transport keeps
    from one burst to the next: one host pair's bursts on both sides of
    a link mutation, a destination crashed by a synchronous ``on_fail``
    in the middle of a burst (no link moved, so its route is still
    kept), and a pair whose kept route a later burst's ``on_fail``
    dropped by downing a trunk — and checks the script really reached
    those states."""
    def burst(src, *items):
        return ("burst", src, "monitoring", False,
                [(dst, 5000, 200, 4000, tag) for dst, tag in items])
    script = [
        burst("a1", ("b1", 1), ("b1", 2)), ("wait", 1.0),
        ("latency", "r1--swB", 0.2),
        burst("a1", ("b1", 3), ("b1", 4)), ("wait", 1.0),
        ("latency", "r1--swB", 5e-3),
        ("host", "a2", False), ("arm", ("host", "b1", False)),
        burst("a1", ("b1", 5), ("a2", 6), ("b1", 7)),
        ("host", "b1", True), ("wait", 1.0),
        burst("a1", ("b1", 8)), ("wait", 1.0),
        ("arm", ("updown", "r1--swB", False)),
        burst("b1", ("a2", 9)),
        burst("a1", ("b1", 10)),
        ("host", "a2", True), ("wait", 1.0),
    ]
    real, model = run_twins(11, script)
    got = real.observables()
    assert got == model.observables()
    took = {a[0]: a[2] - a[1] for a in got["arrivals"]}
    assert set(took) == {1, 2, 3, 4, 5, 8, 10}
    assert took[1] < took[2] < 0.02 < 0.2 < took[3] < took[4]
    assert took[10] - took[8] > 4e-3                # the detour
    fails = [text for kind, _, text in got["callbacks"] if kind == "fail"]
    assert fails == ["host a2 is down", "host b1 is down",
                     "host a2 is down"]
    # a message id for every delivery, failed or not: 7 is 5's plus two
    ids = {a[0]: a[3] for a in got["arrivals"]}
    assert ids[8] == ids[5] + 3
    assert got["returns"] == [ids[2], ids[4], None, ids[8], None, ids[10]]


# -- sink twins: the discard rule hides nothing ------------------------------

#: what an arrival at a no-op listener still moves: its wakeup, and the
#: drop if the host died under it; the watermark and the sweep it
#: skipped order and free nothing anybody can see
ARRIVAL_ONLY = ("delivery_wakeups", "messages_dropped", "_flow_clock",
                "_prune_at")

# the ops of the model twins, plus sends and bursts aimed at the discard
# port itself, and storms as often as everything else that mutates
to_sink = st.tuples(
    st.just("send"), st.sampled_from(HOSTS), st.sampled_from(HOSTS),
    st.just(TRAFFIC_PORT), sizes, st.sampled_from(TRAFFIC_CLASSES),
    st.booleans(), tags)
sink_bursts = burst_ops(st.tuples(
    st.sampled_from(HOSTS), st.sampled_from(PORTS + (TRAFFIC_PORT,)), sizes,
    st.sampled_from([4000, 4001, None]), tags))
sink_ops = st.one_of(sends, sends, to_sink, bursts, sink_bursts, waits, waits,
                     mutations, mutations)


def run_sink_twins(seed: int, script: list) -> tuple[Twin, Twin]:
    """One script through two real-transport worlds: the discard port
    bound to ``discard`` in one and to a look-alike in the other."""
    return run_pair(
        Twin(seed, model=False, sink=discard),
        Twin(seed, model=False, sink=lambda msg, transport: None), script)


def assert_sink_twins_agree(fast: Twin, full: Twin) -> None:
    got, want = fast.observables(), full.observables()
    for name in ARRIVAL_ONLY:
        del got["transport"][name], want["transport"][name]
    # "arrivals" is every non-storm message's (msg_id, delivered_at)
    for key in want:
        assert got[key] == want[key], key


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), script=st.lists(sink_ops, max_size=60))
def test_discard_sink_changes_nothing_but_arrival_counters(seed, script):
    assert_sink_twins_agree(*run_sink_twins(seed, script))


def test_sink_twins_through_a_flaky_crashing_congested_destination():
    """The sink twins on one fixed script: storms toward a host that is
    flaky, then slow, then crashes with packets in flight, across a
    trunk they overflow, a blackhole and a partition, with monitoring
    sends and bursts (some to the discard port itself) in between — and
    checks the script really reached those states."""
    def send(tag, port=5000, size=200, src="a1", dst="b1"):
        return ("send", src, dst, port, size, "monitoring", False, tag)

    def storm(src, rate=6 * WAN_BPS, duration=1.5, seed=0):
        return ("storm", src, "b1", rate, 8192, duration, seed)
    mixed = ("burst", "a1", "monitoring", False, [
        ("b1", 5000, 200, 4000, 20), ("b1", TRAFFIC_PORT, 9000, 4001, 21),
        ("a2", TRAFFIC_PORT, 200, None, 22), ("b1", 5001, 1436, 4001, 23),
        ("a1", TRAFFIC_PORT, 1, 4000, 24)])
    script = [
        send(1), send(2, TRAFFIC_PORT), mixed, ("wait", 0.3),
        ("flaky", "b1", 0.5, 0.05), storm("a2"), ("wait", 0.01),
        send(3), send(4), mixed, ("wait", 0.5), send(5), send(6),
        ("flaky", "b1", None, 0.0), ("wait", 2.5),
        storm("a1", 2 * WAN_BPS, seed=1), storm("a2", seed=2), ("wait", 0.2),
        send(7), ("host", "b1", False), send(8), ("wait", 0.2),
        ("host", "b1", True), send(9), mixed, ("wait", 2.5),
        storm("a2", duration=0.2, seed=3),
        ("loss", "swA--r1", 1.0, 2), ("wait", 0.05), send(10),
        ("loss", "swA--r1", 0.0, 0), send(11),
        ("updown", "r1--swB", False), send(12), mixed,
        ("updown", "r2--r3", False), send(13, TRAFFIC_PORT), ("wait", 1.0),
    ]
    fast, full = run_sink_twins(11, script)
    assert_sink_twins_agree(fast, full)
    tr, slow = fast.world.transport, full.world.transport
    sent = sum(g.packets_sent for g in fast.storms)
    assert sent > 1000 and tr.messages_lost_congestion > 0
    assert 0 < tr.messages_flaky_failed and tr.flaky_delay_s > 0.0
    assert tr.messages_lost > 0                     # blackholed storm packets
    # a storm packet or discard-port datagram that got through was one
    # more wakeup in the full world, and a drop if b1 died under it
    assert slow.delivery_wakeups - tr.delivery_wakeups > 300
    assert slow.messages_dropped - tr.messages_dropped > 5
    assert sum(g.send_failures for g in fast.storms) > 100     # b1 was down
    assert {a[0] for a in fast.arrivals} >= {1, 7, 9, 11, 12, 20, 23}
    assert not tr._arrivals and not slow._arrivals


def storm_packet_times(seed: int, storms: list) -> list:
    """When the ``storms`` ops' packets leave, from a probe twin whose
    discard port is a recording look-alike: a storm's timeline is its
    own (the network never moves it), so a packet of it leaves at one of
    these instants in any script that starts the same storms."""
    times: list = []
    probe = Twin(seed, model=False,
                 sink=lambda msg, transport: times.append(msg.sent_at))
    run_pair(probe, probe, storms)
    return sorted(set(times))


def test_storm_trains_are_storm_packets():
    """The sink twins on one fixed script built to end trains in every
    way: two overlapping storms from one host (one uplink, two
    timelines that bound each other's trains) toward a trunk they
    overflow, a monitoring send queued for the instant of a storm
    packet, a run that ends on a packet's instant, and a destination
    crash and a trunk going down (a route change) between trains.  In
    the discard twin the storms go out in trains, in the look-alike
    twin one packet a dispatch, and everything but arrivals agrees.

    Checked against these mutations of ``send_train``, each of which
    fails it: the destination port's ``last_activity`` taken from the
    train's last packet sent rather than its last one that got through,
    ``queue_delay_s`` summed after the train instead of per packet, and
    the route kept across a move of the network's epoch."""
    def send(tag, src="a2", dst="b1"):
        return ("send", src, dst, 5000, 1436, "monitoring", False, tag)

    def back(tag):      # against the storms: its queue is idle
        return send(tag, "b1", "a2")
    storms = [("storm", "a1", "b1", 2 * WAN_BPS, 8192, 1.5, 1),
              ("storm", "a1", "b1", 6 * WAN_BPS, 1500, 1.5, 2)]
    times = storm_packet_times(11, storms)
    after = [next(t for t in times if t > at) for at in (0.25, 0.3, 0.6)]
    script = storms + [
        # the first: a storm's next tick, already queued; the second
        # is queued ahead of its packet's tick
        ("wait", 0.25), ("at", after[0], send(1)), ("at", after[1], send(2)),
        ("run_to", after[2]), back(3),
        ("host", "b1", False), ("wait", 0.1), ("host", "b1", True),
        ("wait", 0.1), back(4),
        ("updown", "swA--r1", False), ("wait", 0.2), back(5),
        ("updown", "swA--r1", True), ("wait", 0.2), back(6),
    ]
    fast, full = run_sink_twins(11, script)
    assert_sink_twins_agree(fast, full)
    tr = fast.world.transport
    arrivals = {a[0]: a for a in fast.arrivals}
    assert set(arrivals) == {1, 2, 3, 4, 5, 6}
    assert [arrivals[tag][1] for tag in (1, 2, 3)] == after
    assert tr.messages_lost_congestion > 100 and tr.queue_delay_s > 0.0
    assert sum(g.send_failures for g in fast.storms) > 10     # b1 was down
    # the detour's links carried storm packets while the trunk was down
    assert fast.links["r2--r3"].class_bytes.get("background", 0) > 0
    assert fast.world.sim.events_executed \
        < full.world.sim.events_executed / 2
