"""Bounded outboxes, overflow policies, and the drain pump.

The gateway's per-subscription outbox turns a slow consumer from an
unbounded-memory hazard into a bounded queue with an explicit policy at
the cap: ``drop_oldest`` / ``drop_newest`` shed and keep streaming,
``block`` stops intake until the consumer drains, ``degrade`` swaps the
stream to a single catch-up summary.  Every shed event is accounted in
exactly one policy bucket — overload is loud, never silent.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.core import EventGateway
from repro.core.subscriptions import Delivery, SubscriptionSpec
from repro.simgrid import GridWorld
from repro.ulm import ULMMessage, parse as parse_ulm

PORT = 15200
CONSUMER = "consumer.lbl.gov"


def build(reap_threshold: int = 3):
    world = GridWorld(seed=11)
    gw_host = world.add_host("gw.lbl.gov")
    consumer_host = world.add_host(CONSUMER)
    world.lan([gw_host, consumer_host], switch="sw")
    gateway = EventGateway(world.sim, name="gw", host=gw_host,
                           transport=world.transport,
                           reap_threshold=reap_threshold)
    sensor = SimpleNamespace(name="vmstat", sink=None, consumer_count=0)
    gateway.register_sensor(sensor)
    received = []
    consumer_host.ports.bind(
        PORT, lambda msg, _t: received.append(parse_ulm(msg.payload[1].wire)))
    return world, gateway, sensor, consumer_host, received


def open_remote(gateway, consumer_host, *, limit: int = 4,
                overflow: str = "drop_oldest"):
    return gateway.open(SubscriptionSpec(
        sensor="vmstat", delivery=Delivery.remote(consumer_host, PORT),
        outbox_limit=limit, overflow=overflow))


def emit(world, sensor, n: int, *, run: bool = True, settle: float = 0.5):
    for i in range(n):
        sensor.sink(ULMMessage(date=world.sim.now + 1.0, host="h",
                               prog="vmstat", event=f"E{sensor.seq + i}"))
    sensor.seq += n
    if run:
        world.run(until=world.sim.now + settle)


def make_seq(sensor):
    sensor.seq = 0
    return sensor


class TestFastPath:
    def test_unthrottled_stream_never_queues(self):
        world, gw, sensor, consumer_host, received = build()
        make_seq(sensor)
        handle = open_remote(gw, consumer_host)
        emit(world, sensor, 10)
        assert len(received) == 10
        stats = handle.stats()
        assert stats["queued"] == 0
        assert stats["dropped"] == 0
        assert stats["overflow"] is False
        assert gw.stats()["events_shed"] == 0
        assert gw.stats()["outbox_peak"] == 0


class TestOverflowPolicies:
    def test_drop_oldest_keeps_the_freshest_window(self):
        world, gw, sensor, consumer_host, received = build()
        make_seq(sensor)
        handle = open_remote(gw, consumer_host, limit=4)
        assert gw.throttle_consumer(CONSUMER, 2.0) == 1
        emit(world, sensor, 10, run=False)      # burst: queue caps at 4
        stats = handle.stats()
        assert stats["queued"] == 4
        assert stats["dropped"] == 6
        assert stats["dropped_oldest"] == 6
        assert stats["overflow"] is True
        world.run(until=world.sim.now + 10.0)   # drain at 2/s
        assert [m.event for m in received] == ["E6", "E7", "E8", "E9"]
        stats = handle.stats()
        assert stats["queued"] == 0
        assert stats["delivered"] == 4
        assert stats["overflow"] is False       # hysteresis cleared it
        gw_stats = gw.stats()
        assert gw_stats["events_shed"] == 6
        assert gw_stats["shed_by_policy"]["drop_oldest"] == 6
        assert gw_stats["outbox_peak"] == 4
        assert gw_stats["outbox_limit_max"] == 4

    def test_drop_newest_keeps_the_oldest_window(self):
        world, gw, sensor, consumer_host, received = build()
        make_seq(sensor)
        handle = open_remote(gw, consumer_host, limit=4,
                             overflow="drop_newest")
        gw.throttle_consumer(CONSUMER, 2.0)
        emit(world, sensor, 10, run=False)
        world.run(until=world.sim.now + 10.0)
        assert [m.event for m in received] == ["E0", "E1", "E2", "E3"]
        assert handle.stats()["dropped_newest"] == 6
        assert gw.stats()["shed_by_policy"]["drop_newest"] == 6

    def test_block_stops_intake_until_half_drained(self):
        world, gw, sensor, consumer_host, received = build()
        make_seq(sensor)
        handle = open_remote(gw, consumer_host, limit=4, overflow="block")
        gw.throttle_consumer(CONSUMER, 2.0)
        emit(world, sensor, 6, run=False)       # 4 queued, 2 refused
        stats = handle.stats()
        assert stats["queued"] == 4
        assert stats["blocked"] is True
        assert stats["dropped_blocked"] == 2
        # while blocked, everything is refused — even below the cap
        world.run(until=world.sim.now + 0.6)    # drains 1 (depth 3 > 2)
        emit(world, sensor, 1, run=False)
        assert handle.stats()["dropped_blocked"] == 3
        world.run(until=world.sim.now + 0.7)    # drains to depth 2 == half
        assert handle.stats()["blocked"] is False
        emit(world, sensor, 1, run=False)       # accepted again
        assert handle.stats()["queued"] == 3
        world.run(until=world.sim.now + 10.0)
        assert [m.event for m in received] == \
            ["E0", "E1", "E2", "E3", "E7"]
        assert gw.stats()["shed_by_policy"]["block"] == 3

    def test_degrade_swaps_stream_for_one_summary(self):
        world, gw, sensor, consumer_host, received = build()
        make_seq(sensor)
        handle = open_remote(gw, consumer_host, limit=4, overflow="degrade")
        gw.throttle_consumer(CONSUMER, 2.0)
        emit(world, sensor, 10, run=False)      # 4 queued, 6 shed
        stats = handle.stats()
        assert stats["degraded"] is True
        assert stats["shed_degraded"] == 6
        world.run(until=world.sim.now + 10.0)   # queue drains -> summary
        events = [m.event for m in received]
        assert events[:4] == ["E0", "E1", "E2", "E3"]
        assert events[4] == "SUB_DEGRADED_SUMMARY"
        summary = received[4]
        assert summary.lvl == "Warning"
        assert summary.get_int("SHED") == 6
        stats = handle.stats()
        assert stats["degraded"] is False
        assert stats["summaries_sent"] == 1
        assert stats["delivered"] == 4          # the summary is not data
        # streaming resumed after the summary
        emit(world, sensor, 1)
        world.run(until=world.sim.now + 1.0)
        assert [m.event for m in received][-1] == "E10"
        assert gw.stats()["shed_by_policy"]["degrade"] == 6

    def test_every_shed_event_lands_in_one_bucket(self):
        world, gw, sensor, consumer_host, _received = build()
        make_seq(sensor)
        for policy in ("drop_oldest", "drop_newest", "block", "degrade"):
            open_remote(gw, consumer_host, limit=2, overflow=policy)
        gw.throttle_consumer(CONSUMER, 1.0)
        emit(world, sensor, 8, run=False)
        stats = gw.stats()
        assert stats["events_shed"] == sum(stats["shed_by_policy"].values())
        assert stats["events_shed"] == 4 * 6    # each sub shed 6 of 8
        assert stats["sub_overflows"] >= 4


class TestAccountingIdentity:
    def test_routed_equals_delivered_plus_queued_plus_shed(self):
        world, gw, sensor, consumer_host, _received = build()
        make_seq(sensor)
        handle = open_remote(gw, consumer_host, limit=4)
        gw.throttle_consumer(CONSUMER, 2.0)
        emit(world, sensor, 12, run=False)
        world.run(until=world.sim.now + 1.2)    # partial drain
        stats = handle.stats()
        assert stats["delivered"] + stats["queued"] + stats["dropped"] == 12


class TestPauseResumeAndReap:
    def test_overflow_during_pause_held_and_drained_on_resume(self):
        world, gw, sensor, consumer_host, received = build()
        make_seq(sensor)
        handle = open_remote(gw, consumer_host, limit=4)
        gw.throttle_consumer(CONSUMER, 2.0)
        emit(world, sensor, 3, run=False)       # queue: E0..E2
        assert handle.pause() is True           # pump cancelled, queue held
        world.run(until=world.sim.now + 5.0)
        assert received == []
        assert handle.stats()["queued"] == 3
        emit(world, sensor, 5, run=False)       # paused subs get nothing
        assert handle.stats()["queued"] == 3
        assert handle.resume() is True
        world.run(until=world.sim.now + 5.0)
        assert [m.event for m in received] == ["E0", "E1", "E2"]

    def test_overflow_racing_reap_abandons_queue_accounted(self):
        world, gw, sensor, consumer_host, _received = build()
        make_seq(sensor)
        handle = open_remote(gw, consumer_host, limit=8)
        gw.throttle_consumer(CONSUMER, 2.0)
        emit(world, sensor, 6, run=False)
        consumer_host.crash()
        world.run(until=world.sim.now + 10.0)   # pump sends fail -> reap
        assert handle.reaped
        stats = gw.stats()
        assert stats["subscriptions"] == 0
        # whatever was still queued at reap time is accounted, not lost
        # silently: delivered-attempts + abandoned == everything queued
        assert stats["outbox_abandoned"] + handle.stats()["delivered"] == 6
        assert stats["outbox_abandoned"] > 0

    def test_unsubscribe_with_queue_counts_abandoned(self):
        world, gw, sensor, consumer_host, _received = build()
        make_seq(sensor)
        handle = open_remote(gw, consumer_host, limit=8)
        gw.throttle_consumer(CONSUMER, 2.0)
        emit(world, sensor, 5, run=False)
        assert handle.stats()["queued"] == 5
        assert handle.close() is True
        assert gw.stats()["outbox_abandoned"] == 5
        # the frozen final stats still show what was in flight
        assert handle.stats()["queued"] == 5


class TestThrottleScoping:
    def test_throttle_only_touches_the_named_host(self):
        world, gw, sensor, consumer_host, received = build()
        make_seq(sensor)
        other_host = world.add_host("other.lbl.gov")
        world.network.link(other_host.node, world.network.get("sw"),
                           bandwidth_bps=1e9, latency_s=1e-3)
        other_got = []
        other_host.ports.bind(
            PORT,
            lambda msg, _t: other_got.append(parse_ulm(msg.payload[1].wire)))
        open_remote(gw, consumer_host, limit=4)
        gw.open(SubscriptionSpec(
            sensor="vmstat", delivery=Delivery.remote(other_host, PORT)))
        assert gw.throttle_consumer(CONSUMER, 1.0) == 1
        emit(world, sensor, 6, run=False)
        world.run(until=world.sim.now + 0.3)
        assert len(other_got) == 6              # untouched: fast path
        assert len(received) == 0               # throttled: still queued
        assert gw.throttle_consumer(CONSUMER, None) == 1
        world.run(until=world.sim.now + 2.0)
        assert len(received) == 4               # un-throttled: burst drain
