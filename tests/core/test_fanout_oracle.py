"""Reference-model oracle for the gateway's fan-out index (ROADMAP aim 3).

``EventGateway.ingest`` never scans its subscriptions: stream
subscriptions with an ``EventNames`` filter are reached through a
NL.EVNT index, nobody counts ``filtered`` (every subscription derives
it from one identity when somebody looks), and each requested wire
format is rendered once per event.  The trivially-correct version is the one ``wide_fanout`` carries in
``benchmarks/e2e/workloads.py``: keep every event that was ingested and
ask *every* subscription's filter — a plain closure over
``(event name, VALUE)`` — about *every* one of them.

Hypothesis drives one gateway through open / close / throttle / emit,
a retired sensor and a gateway crash, over in-process callbacks and remote consumers in all
three wire formats, fed by a sensor host across the network and by an
in-process sensor, and holds it to the model:

* a subscription nobody throttles receives exactly the events the model
  accepts for it, in ingest order;
* a throttled one receives a subsequence of them, and the rest is
  accounted: ``delivered + shed + queued`` is the model's accepted
  count, ``filtered`` is everything else ingested while it was open;
* a full outbox sheds its oldest frame, so whatever is queued is
  always the newest accepted events, in order.

A subscription is one object, so nothing copies its counters when the
channel goes: every teardown — ``handle.close()``, a dead-consumer reap,
a gateway crash, a retired sensor — passes through
``EventGateway.unsubscribe``, which this file wraps to read
``handle.stats()`` immediately before and after.  The two reads must
agree on every key but ``closed``, and every later read must agree with
them however many events the sensor sends afterwards.

A pass-everything subscription is not evaluated at all: every test in
this file runs with ``AllEvents.accept`` replaced by a function that
raises, while ``EventNames`` (indexed), ``OnChange`` and ``Threshold``
(stateful, evaluated on every event, in subscription order) share the
fan-out with them.

Checked against two mutations of ``core/gateway.py`` — ``reindex``
entering only the first name of an ``EventNames`` set fails the fixed
script below and the random runs; a full outbox shedding the arriving
frame instead of its oldest fails the outbox check in the fixed script
and in all four teardown cases, and the random runs (every one of them
starts with a throttled one-frame outbox that sheds) at their teardown
check, where the newest accepted event must arrive — and three of the
``filtered`` identity in ``core/subscriptions.py`` (see
``test_every_teardown_freezes_the_handle_as_it_read_just_before``).
Which *format* a recipient's frame is in is not this oracle's business
(receivers read the message whatever the wire): the codec budget in
``tests/scenarios/test_throughput_floor.py`` fails when the render memo
hands a subscriber another format's frame.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 precondition, rule)

from repro.client import MonitoringClient
from repro.core import EventGateway, JAMMConfig
from repro.core.consumers.base import Consumer
from repro.core.filters import AllEvents, EventNames, OnChange, Threshold
from repro.core.manager import SensorManager
from repro.core.subscriptions import Delivery, SubscriptionSpec
from repro.simgrid import GridWorld
from repro.ulm import ULMMessage

NAMES = ("CPU_USAGE", "NET_IO", "DISK_IO")
VALUES = (None, "0", "3", "3", "7", "41", "60.5")
REMOTE, LOCAL = "probe@s0", "local"
SENSORS = (REMOTE, LOCAL)
#: the consumer host the throttle rule slows down, and the one it never does
SLOW, FAST = "c1", "c0"
#: long enough for a LAN hop to land, short against the throttled rates
STEP = 0.02


@pytest.fixture(autouse=True)
def all_events_is_never_evaluated(monkeypatch):
    def accept(self, msg):
        raise AssertionError("ingest evaluated an AllEvents filter")
    monkeypatch.setattr(AllEvents, "accept", accept)


kinds = st.one_of(
    st.just(("all",)), st.just(("all", "explicit")),
    st.tuples(st.just("names"),
              st.frozensets(st.sampled_from(NAMES), min_size=1, max_size=2)),
    st.just(("on-change",)),
    st.tuples(st.just("threshold"), st.sampled_from([2.0, 5.0, 50.0])))


def bursts(min_size: int):
    return st.lists(st.tuples(st.sampled_from(SENSORS),
                              st.sampled_from(NAMES), st.sampled_from(VALUES)),
                    min_size=min_size, max_size=4)


def reference_filter(kind: tuple):
    """One subscription's filter as a closure with its own state:
    ``(event name, VALUE) -> delivered?``"""
    if kind[0] == "all":
        return lambda name, value: True
    if kind[0] == "names":
        return lambda name, value: name in kind[1]
    if kind[0] == "on-change":
        last = [None]

        def changed(name, value):
            if value is None or value == last[0]:
                return False
            last[0] = value
            return True
        return changed
    limit = kind[1]
    above = [False]

    def crossed(name, value):
        if value is None:
            return False
        was, above[0] = above[0], float(value) > limit
        return above[0] and not was
    return crossed


def make_filter(kind: tuple):
    if kind[0] == "all":
        # the spec's default, or the same filter spelled out
        return AllEvents() if len(kind) > 1 else None
    if kind[0] == "names":
        return EventNames(sorted(kind[1]))
    if kind[0] == "on-change":
        return OnChange("VALUE")
    return Threshold("VALUE", ">", kind[1])


class ModelSub:
    """What the brute-force reference knows about one subscription."""

    def __init__(self, handle, sensor: str, kind: tuple, where: str,
                 opened_at: int):
        self.handle = handle
        self.sensor = sensor
        self.where = where              # "callback" | FAST | SLOW
        self.accept = reference_filter(kind)
        self.opened_at = opened_at      # events the sensor had ingested
        self.closed_at = None
        #: ``handle.stats()`` as read right after the teardown
        self.final = None
        #: the N field of every event the reference filter passed
        self.accepted: list = []
        #: N of every event that arrived
        self.received: list = []
        handle.attach(lambda msg: self.received.append(msg.fields["N"]))


def is_subsequence(short: list, long: list) -> bool:
    it = iter(long)
    return all(item in it for item in short)


class FanoutMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 2**16),
                slow=st.sampled_from([5.0, 40.0]), burst=bursts(3))
    def build(self, seed, slow=None, burst=()):
        world = self.world = GridWorld(seed=seed)
        sensor_host = world.add_host("s0")
        gw_host = world.add_host("gw")
        consumer_hosts = [world.add_host(name) for name in (FAST, SLOW)]
        world.lan([sensor_host, gw_host] + consumer_hosts, switch="sw")
        gw = self.gw = EventGateway(world.sim, name="gw0", host=gw_host,
                                    transport=world.transport)
        config = JAMMConfig()
        # manual and never started: it does not sample on its own, so
        # the only events are the ones the emit rule asks for
        config.add_sensor("probe", "cpu", mode="manual", period=1.0)
        manager = SensorManager(world.sim, sensor_host, gateway=gw,
                                transport=world.transport, config=config,
                                supervision_interval=None)
        manager.start()
        self.remote_sensor = manager.sensors["probe"]
        self.local_sensor = SimpleNamespace(name=LOCAL, sink=None,
                                            consumer_count=0)
        gw.register_sensor(self.local_sensor)
        self.sensor_objects = {REMOTE: (self.remote_sensor, manager),
                               LOCAL: (self.local_sensor, None)}
        self.consumers = {host.name: Consumer(MonitoringClient(
            world.sim, directory=None, resolve_gateway=None, host=host))
            for host in consumer_hosts}
        self._watch_teardowns()
        self.serial = 0
        self.ingested = {name: 0 for name in SENSORS}
        self.subs: list[ModelSub] = []
        # an in-process tap per sensor keeps forwarding on for the whole
        # run, and is itself the simplest subscription to hold to the model
        for sensor in SENSORS:
            self._open(sensor, ("all",), "ulm", "callback", 4)
        if slow is not None:
            # the random runs start with the slow consumer throttled
            # behind a one-frame outbox on each sensor, and a first
            # burst puts two events on one of them: every random run
            # sheds.  The fixed scripts below start without
            for sensor in SENSORS:
                self._open(sensor, ("all",), "ulm", SLOW, 1)
            self.throttle(slow)
            self.emit(burst)
            assert self.gw.events_shed > 0

    def _open(self, sensor, kind, fmt, where, limit):
        spec = SubscriptionSpec(sensor=sensor, fmt=fmt, buffer_limit=0,
                                event_filter=make_filter(kind),
                                outbox_limit=limit)
        if where == "callback":
            handle = self.gw.open(spec.replace(delivery=Delivery.callback()))
        else:
            handle = self.consumers[where].open(self.gw, spec)
            assert handle.spec.delivery.kind == "remote"
        self.subs.append(ModelSub(handle, sensor, kind, where,
                                  self.ingested[sensor]))

    def _watch_teardowns(self) -> None:
        """Every teardown ends in ``gw.unsubscribe``: hold the handle's
        stats to the read taken immediately before, whoever called."""
        gw, teardown = self.gw, self.gw.unsubscribe

        def unsubscribe(sub_id, **kwargs):
            handle = gw._subs.get(sub_id)
            before = handle.stats() if handle is not None else None
            done = teardown(sub_id, **kwargs)
            if handle is not None:
                sub = next(s for s in self.subs if s.handle is handle)
                sub.closed_at = self.ingested[sub.sensor]
                sub.final = handle.stats()
                assert done and sub.final == {**before, "closed": True}
                assert handle.reaped == kwargs.get("reaped", False)
            return done
        gw.unsubscribe = unsubscribe

    def _reopen_taps(self) -> None:
        for sensor in SENSORS:
            if not any(sub.sensor == sensor and sub.closed_at is None
                       for sub in self.subs):
                self._open(sensor, ("all",), "ulm", "callback", 4)

    def _settle(self, seconds: float = STEP) -> None:
        self.world.run(until=self.world.now + seconds)

    def _live(self, index: int):
        """The open subscription ``index`` picks, if it is one a rule may
        touch — the two taps stay as they are."""
        index %= len(self.subs)
        sub = self.subs[index]
        return sub if index >= len(SENSORS) and sub.closed_at is None else None

    # -- rules ------------------------------------------------------------------

    @rule(sensor=st.sampled_from(SENSORS), kind=kinds,
          fmt=st.sampled_from(["ulm", "xml", "binary"]),
          where=st.sampled_from(["callback", FAST, SLOW]),
          limit=st.integers(1, 4))
    def open(self, sensor, kind, fmt, where, limit):
        self._open(sensor, kind, fmt, where, limit)

    @rule(index=st.integers(0, 63))
    def close(self, index):
        sub = self._live(index)
        if sub is not None:
            assert sub.handle.close() is True
            assert sub.closed_at is not None and not sub.handle.reaped

    @rule(sensor=st.sampled_from(SENSORS))
    def retire(self, sensor):
        """A config push drops the sensor, the next one brings it back:
        every subscriber it had is torn down as reaped."""
        had = [sub for sub in self.subs
               if sub.sensor == sensor and sub.closed_at is None]
        sensor_object, manager = self.sensor_objects[sensor]
        self.gw.unregister_sensor(sensor)
        assert all(sub.handle.reaped and sub.closed_at is not None
                   for sub in had)
        assert sensor_object.sink is None and sensor not in self.gw.sensors()
        self.gw.register_sensor(sensor_object, manager=manager)
        self._reopen_taps()

    @rule()
    def crash(self):
        """The gateway host goes down and comes back: the sensors stay
        registered, every subscription dies with the process."""
        had = [sub for sub in self.subs if sub.closed_at is None]
        self.gw.host.crash()
        assert all(sub.handle.reaped and sub.closed_at is not None
                   for sub in had)
        assert self.gw.stats()["subscriptions"] == 0
        self.gw.host.restart()
        self._reopen_taps()

    @rule(rate=st.sampled_from([None, 5.0, 40.0]))
    def throttle(self, rate):
        remote_slow = sum(1 for sub in self.subs
                          if sub.where == SLOW and sub.closed_at is None)
        assert self.gw.throttle_consumer(SLOW, rate) == remote_slow
        self._settle()

    @rule(burst=bursts(1))
    def emit(self, burst):
        for sensor, name, value in burst:
            self.serial += 1
            fields = {"N": self.serial}
            if value is not None:
                fields["VALUE"] = value
            if not any(sub.sensor == sensor and sub.closed_at is None
                       for sub in self.subs):
                # nothing flows for a sensor nobody subscribed to (§2.3)
                assert self.sensor_objects[sensor][0].sink is None
                if sensor == REMOTE:
                    self.remote_sensor.emit(name, fields)
                continue
            if sensor == REMOTE:
                self.remote_sensor.emit(name, fields)
            else:
                # a clock reading finer than the wire's microsecond
                self.local_sensor.sink(ULMMessage(
                    date=self.world.now + 1e-7 * (self.serial % 10),
                    host="gw", prog=LOCAL, event=name, fields=fields))
            self.ingested[sensor] += 1
            for sub in self.subs:
                if sub.sensor == sensor and sub.closed_at is None \
                        and sub.accept(name, value):
                    sub.accepted.append(str(self.serial))
        self._settle()

    @precondition(lambda self: any(sub.where == SLOW for sub in self.subs))
    @rule()
    def drain(self):
        self._settle(1.0)

    # -- the model's claims ---------------------------------------------------------

    def _check(self, sub: ModelSub) -> None:
        stats = sub.handle.stats()
        until = self.ingested[sub.sensor] if sub.closed_at is None \
            else sub.closed_at
        assert stats == sub.final or sub.closed_at is None, (stats, sub.final)
        routed = stats["delivered"] + stats["dropped"] + stats["queued"]
        assert routed == len(sub.accepted), (sub.where, stats)
        assert stats["filtered"] == until - sub.opened_at - routed, \
            (sub.where, stats)
        got = sub.received
        if sub.where == SLOW:
            # a full outbox sheds its oldest frame: what is still queued
            # is the newest accepted events, and what arrived is in order
            queued = [frame.message().fields["N"]
                      for frame in sub.handle.outbox]
            assert queued == sub.accepted[len(sub.accepted) - len(queued):]
            assert len(got) <= stats["delivered"]
            assert is_subsequence(got, sub.accepted)
        else:
            assert stats["dropped"] == stats["queued"] == 0
            assert got == sub.accepted, sub.where

    # a rule, not an invariant: most steps should run without anybody
    # having looked at the counters in between
    @rule()
    def subscriptions_match_the_model(self):
        for sub in self.subs:
            self._check(sub)
        stats = self.gw.stats()
        finals = [sub.handle.stats() for sub in self.subs]
        assert stats["events_in"] == sum(self.ingested.values())
        assert stats["events_delivered"] == sum(s["delivered"] for s in finals)
        assert stats["events_shed"] == sum(s["dropped"] for s in finals)
        assert stats["events_filtered"] == sum(s["filtered"] for s in finals)
        assert stats["queued"] == sum(
            s["queued"] for s, sub in zip(finals, self.subs)
            if sub.closed_at is None)

    def teardown(self):
        if not hasattr(self, "subs"):
            return
        # open the taps: whatever is still queued for a live consumer
        # drains, and then everything delivered has also arrived
        self.gw.throttle_consumer(SLOW, None)
        self._settle(1.0)
        self.subscriptions_match_the_model()
        for sub in self.subs:
            if sub.closed_at is None:
                stats = sub.handle.stats()
                assert stats["queued"] == 0
                assert len(sub.received) == stats["delivered"]
                # a full outbox sheds its oldest frame, never the one
                # arriving: the newest accepted event always gets through
                assert sub.received[-1:] == sub.accepted[-1:], \
                    (sub.where, stats)
        for consumer in self.consumers.values():
            assert consumer.decode_errors == 0
            consumer.close()


FanoutMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None)
TestFanoutOracle = FanoutMachine.TestCase


def test_index_and_overflow_on_one_fixed_script():
    """The oracle on one script that reaches every state the rules can:
    indexed and generic subscriptions side by side, throttled consumers
    overflowing outboxes of four sizes, a close with events still
    queued, a sensor retired under its subscribers — and checks the
    script really got there."""
    machine = FanoutMachine()
    machine.build(seed=3)
    names = ("names", frozenset({"CPU_USAGE"}))
    machine.open(REMOTE, names, "xml", FAST, 4)                         # 2
    machine.open(REMOTE, ("on-change",), "binary", "callback", 4)       # 3
    machine.open(LOCAL, ("threshold", 5.0), "ulm", FAST, 4)             # 4
    for index, limit in enumerate((1, 2, 3, 4)):
        machine.open(SENSORS[index % 2], ("all",), ("ulm", "xml", "binary")
                     [index % 3], SLOW, limit)                          # 5..8
    # a second indexed subscription beside #2 with a disjoint name set:
    # every REMOTE event below reaches one of them through the index and
    # is counted as filtered for the other
    machine.open(REMOTE, ("names", frozenset({"NET_IO", "DISK_IO"})),
                 "binary", FAST, 4)                                     # 9
    beat = [(REMOTE, "CPU_USAGE", "3"), (LOCAL, "NET_IO", "7"),
            (REMOTE, "NET_IO", "41"), (LOCAL, "CPU_USAGE", "0"),
            (REMOTE, "DISK_IO", "60.5")]
    machine.emit(beat)
    machine.subscriptions_match_the_model()
    machine.throttle(5.0)
    for _ in range(4):
        machine.emit(beat)
        machine.subscriptions_match_the_model()
    machine.close(5)
    machine.emit(beat)
    machine.subscriptions_match_the_model()
    subs = machine.subs
    # the REMOTE sensor is retired under its subscribers, a throttled
    # one with a full outbox among them, and comes back
    machine.emit(beat)
    machine.retire(REMOTE)
    assert all(subs[i].handle.reaped for i in (0, 2, 3, 7, 9))
    assert subs[7].final["queued"] == 3                 # retired while full
    machine.emit(beat)
    machine.subscriptions_match_the_model()
    assert subs[-1].sensor == REMOTE and len(subs[-1].accepted) == 3
    slow = [sub.handle.stats() for sub in subs[5:9]]
    assert all(stats["dropped"] > 0 for stats in slow)
    assert slow[0]["queued"] == 1                       # closed while full
    # a third of REMOTE's beat is CPU_USAGE: the index passed it, the
    # rest was filtered without a filter call, and #9 took that rest
    assert subs[2].handle.stats()["filtered"] == \
        2 * len(subs[2].accepted) == len(subs[9].accepted) > 0
    assert len(subs[3].accepted) < machine.ingested[REMOTE]
    machine.teardown()
    assert machine.gw.stats()["outbox_abandoned"] == 1 + 3


@pytest.mark.parametrize("path", ["close", "reap", "crash", "unregister"])
def test_every_teardown_freezes_the_handle_as_it_read_just_before(path):
    """What the deleted ``_final_stats`` copy used to guarantee: four
    throttled subscriptions with outboxes of four sizes, each shedding
    with a full outbox, and an indexed one on a consumer nobody
    throttles, torn down by each of the four callers of the one
    teardown path.  ``_watch_teardowns`` compares the reads around the
    teardown itself; ``_check`` compares every later read with them
    while the sensor keeps sending.

    Mutations of the ``filtered`` identity tried against this file:
    leaving ``queued`` out of it fails ``_check``'s ``filtered == until
    - opened_at - routed`` as soon as a throttled subscription holds a
    frame (random runs, fixed script, these four); freezing the
    sensor's ``events_in`` at open instead of at teardown fails
    ``_watch_teardowns``' before/after comparison (``filtered`` jumps
    at the teardown; everywhere); skipping the freeze when the teardown
    is a reap fails the same comparison (``queued`` drops to 0 with the
    outbox), and its narrower form — a reaped handle keeps reading the
    sensor's live ``events_in`` — fails ``_check``'s ``stats ==
    sub.final`` on the first event after the teardown (random runs and
    the reap and crash cases here)."""
    machine = FanoutMachine()
    machine.build(seed=11)
    for limit in (1, 2, 3, 4):
        machine.open(REMOTE, ("all",), "ulm", SLOW, limit)              # 2..5
    machine.open(REMOTE, ("names", frozenset({"NET_IO"})), "xml", FAST,
                 4)                                                     # 6
    subs = machine.subs[2:]
    beat = [(REMOTE, "NET_IO", "7"), (REMOTE, "CPU_USAGE", "3")]
    machine.emit(beat)
    machine.throttle(5.0)
    for _ in range(3):
        machine.emit(beat)
    machine.subscriptions_match_the_model()
    for sub in subs[:4]:
        stats = sub.handle.stats()
        assert stats["dropped"] > 0 and stats["queued"] > 0, stats
    assert subs[4].handle.stats()["filtered"] > 0

    if path == "close":
        for index in range(2, 7):
            machine.close(index)
    elif path == "reap":
        # the slow consumer dies; three undeliverable pump sends per
        # stream, while the fast one keeps acknowledging
        machine.world.hosts[SLOW].crash()
        for _ in range(8):
            machine.emit(beat)
            machine.drain()
        assert machine.gw.subs_reaped == 4
        assert not subs[4].handle.closed
        machine.close(6)
    elif path == "crash":
        machine.crash()
    else:
        machine.retire(REMOTE)
    assert [sub.handle.reaped for sub in subs] == \
        [path != "close"] * 4 + [path in ("crash", "unregister")]
    assert all(sub.final["closed"] and sub.handle.closed for sub in subs)
    assert sum(sub.final["queued"] for sub in subs) == \
        machine.gw.outbox_abandoned > 0

    machine._reopen_taps()
    for _ in range(3):
        machine.emit(beat)
    machine.subscriptions_match_the_model()
    assert machine.ingested[REMOTE] > max(sub.closed_at for sub in subs)
    if path == "reap":
        machine.world.hosts[SLOW].restart()
    machine.teardown()
