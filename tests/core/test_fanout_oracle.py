"""Reference-model oracle for the gateway's fan-out index (ROADMAP aim 3).

``EventGateway.ingest`` never scans its subscriptions: stream
subscriptions with an ``EventNames`` filter are reached through a
NL.EVNT index, paused ones are dropped from the fan-out lists, the
``filtered`` counters of both are reconstructed by formula when somebody
looks, and each requested wire format is rendered once per event.  The
trivially-correct version is the one ``wide_fanout`` carries in
``benchmarks/e2e/workloads.py``: keep every event that was ingested and
ask *every* subscription's filter — a plain closure over
``(event name, VALUE)`` — about *every* one of them.

Hypothesis drives one gateway through open / pause / resume / close /
throttle / emit, over in-process callbacks and remote consumers in all
three wire formats, fed by a sensor host across the network and by an
in-process sensor, and holds it to the model:

* a subscription nobody throttles receives exactly the events the model
  accepts for it, in ingest order;
* a throttled one receives a subsequence of them, and the rest is
  accounted: ``delivered + shed + queued`` is the model's accepted
  count, ``filtered`` is everything else ingested while it was open.

The model never decides what an overflow policy sheds — it reads the
gateway's own counters and checks that they add up.

A pass-everything subscription is not evaluated at all: every test in
this file runs with ``AllEvents.accept`` replaced by a function that
raises, while ``EventNames`` (indexed), ``OnChange`` and ``Threshold``
(stateful, evaluated on every event, in subscription order) share the
fan-out with them.

Checked against three mutations of ``core/gateway.py``: ``reindex``
keeping paused subscriptions in the fan-out lists, ``reindex`` entering
only the first name of an ``EventNames`` set, and ``ingest`` forgetting
to count an indexed miss in ``events_filtered`` — each fails the fixed
script below, the first two the random runs as well.  Which *format* a
recipient's frame is in is not this oracle's business (receivers read
the message whatever the wire): the codec budget in
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


SUMMARY = "SUB_DEGRADED_SUMMARY"     # the degrade policy's catch-up event


class ModelSub:
    """What the brute-force reference knows about one subscription."""

    def __init__(self, handle, sensor: str, kind: tuple, where: str,
                 opened_at: int):
        self.handle = handle
        self.sensor = sensor
        self.where = where              # "callback" | FAST | SLOW
        self.accept = reference_filter(kind)
        self.paused = False
        self.opened_at = opened_at      # events the sensor had ingested
        self.closed_at = None
        #: the N field of every event the reference filter passed
        self.accepted: list = []
        #: N of every event that arrived (SUMMARY for a catch-up event)
        self.received: list = []
        handle.attach(lambda msg: self.received.append(
            SUMMARY if msg.event == SUMMARY else msg.fields["N"]))


def is_subsequence(short: list, long: list) -> bool:
    it = iter(long)
    return all(item in it for item in short)


class FanoutMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 2**16))
    def build(self, seed):
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
        self.consumers = {host.name: Consumer(world.sim, host=host)
                          for host in consumer_hosts}
        self.serial = 0
        self.ingested = {name: 0 for name in SENSORS}
        self.subs: list[ModelSub] = []
        # an in-process tap per sensor keeps forwarding on for the whole
        # run, and is itself the simplest subscription to hold to the model
        for sensor in SENSORS:
            self._open(sensor, ("all",), "ulm", "callback", 4, "drop_oldest")

    def _open(self, sensor, kind, fmt, where, limit, overflow):
        spec = SubscriptionSpec(sensor=sensor, fmt=fmt, buffer_limit=0,
                                event_filter=make_filter(kind),
                                outbox_limit=limit, overflow=overflow)
        if where == "callback":
            handle = self.gw.open(spec.replace(delivery=Delivery.callback()))
        else:
            handle = self.consumers[where].subscribe(self.gw, spec=spec)
            assert handle.spec.delivery.kind == "remote"
        self.subs.append(ModelSub(handle, sensor, kind, where,
                                  self.ingested[sensor]))

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
          limit=st.integers(1, 4),
          overflow=st.sampled_from(["drop_oldest", "drop_newest", "block",
                                    "degrade"]))
    def open(self, sensor, kind, fmt, where, limit, overflow):
        self._open(sensor, kind, fmt, where, limit, overflow)

    @rule(index=st.integers(0, 63))
    def close(self, index):
        sub = self._live(index)
        if sub is not None:
            assert sub.handle.close() is True
            sub.closed_at = self.ingested[sub.sensor]

    @rule(index=st.integers(0, 63))
    def pause(self, index):
        sub = self._live(index)
        if sub is not None:
            assert sub.handle.pause() == (not sub.paused)
            sub.paused = True

    @rule(index=st.integers(0, 63))
    def resume(self, index):
        sub = self._live(index)
        if sub is not None:
            assert sub.handle.resume() == sub.paused
            sub.paused = False
            self._settle()

    @rule(rate=st.sampled_from([None, 5.0, 40.0]))
    def throttle(self, rate):
        remote_slow = sum(1 for sub in self.subs
                          if sub.where == SLOW and sub.closed_at is None)
        assert self.gw.throttle_consumer(SLOW, rate) == remote_slow
        self._settle()

    @rule(burst=st.lists(st.tuples(st.sampled_from(SENSORS),
                                   st.sampled_from(NAMES),
                                   st.sampled_from(VALUES)),
                         min_size=1, max_size=4))
    def emit(self, burst):
        for sensor, name, value in burst:
            self.serial += 1
            fields = {"N": self.serial}
            if value is not None:
                fields["VALUE"] = value
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
                        and not sub.paused and sub.accept(name, value):
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
        routed = stats["delivered"] + stats["dropped"] + stats["queued"]
        assert routed == len(sub.accepted), (sub.where, stats)
        assert stats["filtered"] == until - sub.opened_at - routed, \
            (sub.where, stats)
        got = [n for n in sub.received if n is not SUMMARY]
        if sub.where == SLOW:
            # what was shed is the policy's business; what arrived is not
            assert len(got) <= stats["delivered"]
            assert is_subsequence(got, sub.accepted)
            assert len(sub.received) - len(got) <= stats["summaries_sent"]
        else:
            assert stats["dropped"] == stats["queued"] == 0
            assert got == sub.accepted, sub.where

    # a rule, not an invariant: reading a subscription's stats reconciles
    # its counters, and the lazy paths (pause gap folded in on resume,
    # ``filtered`` by formula) only run when nobody looked in between
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
        for sub in self.subs:
            if sub.closed_at is None and sub.paused:
                sub.handle.resume()
                sub.paused = False
        self._settle(1.0)
        self.subscriptions_match_the_model()
        for sub in self.subs:
            if sub.closed_at is None:
                stats = sub.handle.stats()
                assert stats["queued"] == 0
                assert len(sub.received) == \
                    stats["delivered"] + stats["summaries_sent"]
        for consumer in self.consumers.values():
            assert consumer.decode_errors == 0
            consumer.close()


FanoutMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None)
TestFanoutOracle = FanoutMachine.TestCase


def test_index_pause_and_overflow_on_one_fixed_script():
    """The oracle on one script that reaches every state the rules can:
    an indexed and a generic subscription paused across events, a
    throttled consumer overflowing under each policy, a close with
    events still queued — and checks the script really got there."""
    machine = FanoutMachine()
    machine.build(seed=3)
    names = ("names", frozenset({"CPU_USAGE"}))
    machine.open(REMOTE, names, "xml", FAST, 4, "drop_oldest")          # 2
    machine.open(REMOTE, ("on-change",), "binary", "callback", 4, "block")
    machine.open(LOCAL, ("threshold", 5.0), "ulm", FAST, 4, "block")    # 4
    for index, policy in enumerate(("drop_oldest", "drop_newest", "block",
                                    "degrade")):
        machine.open(SENSORS[index % 2], ("all",), ("ulm", "xml", "binary")
                     [index % 3], SLOW, 2, policy)                      # 5..8
    # a second indexed subscription beside #2 with a disjoint name set:
    # every REMOTE event below reaches one of them through the index and
    # is counted as filtered for the other
    machine.open(REMOTE, ("names", frozenset({"NET_IO", "DISK_IO"})),
                 "binary", FAST, 4, "drop_oldest")                      # 9
    beat = [(REMOTE, "CPU_USAGE", "3"), (LOCAL, "NET_IO", "7"),
            (REMOTE, "NET_IO", "41"), (LOCAL, "CPU_USAGE", "0")]
    machine.emit(beat)
    machine.subscriptions_match_the_model()
    # a pause nobody looks into: the gap is folded in by resume alone
    machine.pause(2)
    machine.pause(3)
    machine.emit(beat)
    machine.resume(2)
    machine.resume(3)
    machine.subscriptions_match_the_model()
    # and one that is read while it lasts
    machine.pause(2)
    machine.pause(3)
    machine.throttle(5.0)
    for _ in range(4):
        machine.emit(beat)
        machine.subscriptions_match_the_model()
    machine.resume(2)
    machine.resume(3)
    machine.close(5)
    machine.emit(beat)
    machine.subscriptions_match_the_model()
    subs = machine.subs
    by_policy = {sub.handle.spec.overflow: sub.handle.stats()
                 for sub in subs[5:9]}
    assert all(stats["dropped"] > 0 for stats in by_policy.values())
    assert by_policy["drop_oldest"]["queued"] == 2      # closed while full
    assert by_policy["degrade"]["shed_degraded"] > 0
    assert subs[2].handle.stats()["filtered"] > len(subs[2].accepted) > 0
    assert len(subs[3].accepted) < machine.ingested[REMOTE]
    machine.teardown()
    assert by_policy["degrade"]["summaries_sent"] == 0  # a snapshot: before
    assert subs[8].handle.stats()["summaries_sent"] == 1
    assert machine.gw.stats()["outbox_abandoned"] == 2
