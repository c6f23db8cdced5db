"""Dead-subscriber reaping, and handles racing it.

The gateway reaps a subscription after ``reap_threshold`` undeliverable
sends.  These tests pin down the interleavings between a reap and the
consumer's ``handle.close()``, which used to be unspecified: a reaped
handle must behave exactly like a closed one — idempotently, with its
final counters frozen — never error, and never double-release gateway
state.
"""

from __future__ import annotations

import pytest
from types import SimpleNamespace

from repro.core import EventGateway
from repro.core.subscriptions import Delivery, SubscriptionSpec
from repro.simgrid import GridWorld
from repro.ulm import ULMMessage

PORT = 15100


def build(reap_threshold: int = 3):
    world = GridWorld(seed=9)
    gw_host = world.add_host("gw.lbl.gov")
    consumer_host = world.add_host("consumer.lbl.gov")
    world.lan([gw_host, consumer_host], switch="sw")
    gateway = EventGateway(world.sim, name="gw", host=gw_host,
                           transport=world.transport,
                           reap_threshold=reap_threshold)
    sensor = SimpleNamespace(name="vmstat", sink=None, consumer_count=0)
    gateway.register_sensor(sensor)
    received = []
    consumer_host.ports.bind(PORT, lambda msg, _t: received.append(msg))
    return world, gateway, sensor, consumer_host, received


def open_remote(gateway, consumer_host):
    return gateway.open(SubscriptionSpec(
        sensor="vmstat", delivery=Delivery.remote(consumer_host, PORT)))


def emit(world, sensor, n: int, *, run: bool = True):
    for i in range(n):
        sensor.sink(ULMMessage(date=world.sim.now + 1.0, host="h",
                               prog="vmstat", event=f"E{i}"))
    if run:
        world.run(until=world.sim.now + 0.5)


class TestReap:
    def test_dead_consumer_is_reaped_after_threshold(self):
        world, gw, sensor, consumer_host, received = build()
        handle = open_remote(gw, consumer_host)
        emit(world, sensor, 2)
        assert len(received) == 2

        consumer_host.crash()
        emit(world, sensor, 3)  # three undeliverable sends
        assert handle.reaped and handle.closed
        assert gw.subs_reaped == 1
        assert gw.stats()["subscriptions"] == 0
        # forwarding switched off: nothing flows for a dead consumer
        assert sensor.sink is None

    def test_reaped_handle_keeps_final_counters(self):
        world, gw, sensor, consumer_host, received = build()
        handle = open_remote(gw, consumer_host)
        emit(world, sensor, 4)
        consumer_host.crash()
        emit(world, sensor, 3)
        stats = handle.stats()
        assert stats["delivered"] == 7  # counted at send time
        assert stats["closed"] is True

    def test_below_threshold_drops_do_not_reap(self):
        world, gw, sensor, consumer_host, received = build()
        handle = open_remote(gw, consumer_host)
        consumer_host.crash()
        emit(world, sensor, 2)
        assert not handle.reaped
        consumer_host.restart()
        emit(world, sensor, 1)
        assert not handle.reaped
        assert len(received) == 1

    def test_flapping_consumer_never_reaped(self):
        """Failures are counted *consecutively* — the delivery ack
        resets the count, so repeated short outages (each below the
        threshold) never add up to a reap of a live consumer."""
        world, gw, sensor, consumer_host, received = build()
        handle = open_remote(gw, consumer_host)
        for _flap in range(4):              # 8 total failures, 2 at a time
            consumer_host.crash()
            emit(world, sensor, 2)
            consumer_host.restart()
            emit(world, sensor, 1)          # ack resets the fail count
        assert not handle.reaped
        assert len(received) == 4


    def test_reap_inside_a_fan_out_burst_spares_the_rest_of_it(self):
        """One event's remote deliveries leave as one transport burst.
        A dead consumer's send fails synchronously in the middle of it —
        ``on_fail`` -> reap -> unsubscribe -> reindex — and the items
        behind it are still sent; every item was counted as delivered
        before the burst left, as a lone send always was."""
        world, gw, sensor, dead_host, _ = build(reap_threshold=1)
        live_host = world.add_host("live.lbl.gov")
        world.lan([live_host], switch="sw")
        got = []
        live_host.ports.bind(PORT, lambda msg, _t: got.append(msg))
        first_dead = open_remote(gw, dead_host)
        live = open_remote(gw, live_host)
        last_dead = open_remote(gw, dead_host)
        dead_host.crash()
        emit(world, sensor, 2)
        assert first_dead.reaped and last_dead.reaped and not live.reaped
        assert gw.subs_reaped == 2
        assert len(got) == 2
        assert gw.events_delivered == 3 + 1     # both dead ones: event 1 only
        assert [h.stats()["delivered"] for h in (first_dead, live, last_dead)] \
            == [1, 2, 1]
        assert world.transport.messages_dropped == 2


class TestHandleRacingReap:
    def test_close_after_reap_is_idempotent(self):
        world, gw, sensor, consumer_host, _ = build()
        handle = open_remote(gw, consumer_host)
        consumer_host.crash()
        emit(world, sensor, 3)
        assert handle.reaped
        assert handle.close() is False      # nothing left to release
        assert gw.stats()["subscriptions"] == 0
        assert gw.subs_reaped == 1

    def test_close_with_failure_in_flight(self):
        """A delivery already on the wire fails after the handle closed:
        the late failure callback must not resurrect or double-free."""
        world, gw, sensor, consumer_host, received = build()
        handle = open_remote(gw, consumer_host)
        consumer_host.ports.unbind(PORT)    # failure happens at delivery
        emit(world, sensor, 1, run=False)   # in flight now
        assert handle.close() is True
        world.run(until=world.sim.now + 0.5)  # the on_fail fires late
        assert gw.subs_reaped == 0
        assert gw.stats()["subscriptions"] == 0
        assert handle.close() is False

    def test_out_of_band_unsubscribe_marks_handle_closed(self):
        """gateway.unsubscribe() called directly (networked op, admin
        path) used to leave the handle thinking it was open — and its
        stats() fell back to zeros.  Now the handle is marked closed
        with its final counters frozen."""
        world, gw, sensor, consumer_host, _ = build()
        handle = open_remote(gw, consumer_host)
        emit(world, sensor, 3)
        assert gw.unsubscribe(handle.sub_id) is True
        assert handle.closed
        assert not handle.reaped            # not a gateway-fault path
        assert handle.stats()["delivered"] == 3
        assert handle.close() is False      # no double-release

    def test_gateway_crash_reaps_all_handles(self):
        world, gw, sensor, consumer_host, _ = build()
        h1 = open_remote(gw, consumer_host)
        h2 = open_remote(gw, consumer_host)
        gw.host.crash()
        assert h1.reaped and h2.reaped
        assert gw.stats()["subs_dropped_on_crash"] == 2
        assert h1.close() is False and h2.close() is False
        gw.host.restart()
        assert gw.up
        # a fresh subscription works after restart
        h3 = open_remote(gw, consumer_host)
        emit(world, sensor, 1)
        assert h3.stats()["delivered"] == 1

    def test_open_on_downed_gateway_raises(self):
        from repro.core.gateway import GatewayError
        world, gw, sensor, consumer_host, _ = build()
        gw.host.crash()
        with pytest.raises(GatewayError):
            open_remote(gw, consumer_host)


class TestSensorRetired:
    def test_unregister_sensor_tears_its_subscribers_down(self):
        """``unregister_sensor`` used to pop the sensor's subscriptions
        out of the gateway's table and nothing else: a live handle read
        ``closed=False`` with every counter back at zero, its pump kept
        its timer, the queued frames were never accounted and the
        sanitizer reported a leaked handle.  It is one more caller of
        the one teardown path."""
        from repro.core import JAMMDeployment

        world = GridWorld(seed=5, sanitize=True)
        a, gw_host, c = (world.add_host(name) for name in ("a", "gw", "c"))
        world.lan([a, gw_host, c], switch="sw")
        jamm = JAMMDeployment(world)
        gw = jamm.add_gateway("gw0", host=gw_host)
        config = jamm.standard_config(cpu=True, vmstat=False, netstat=False,
                                      tcpdump=False)
        manager = jamm.add_manager(a, config=config, gateway=gw)
        world.run(until=0.2)
        session = jamm.client(host=c).session()
        handle = session.subscribe("cpu@a")
        assert gw.throttle_consumer("c", 0.5) == 1
        world.run(until=5.2)
        before = handle.stats()
        assert before["delivered"] > 0 and before["queued"] > 0
        assert not before["closed"]
        sensor = manager.sensors["cpu"]

        gw.unregister_sensor(sensor.name)

        assert handle.closed and handle.reaped
        assert handle.stats() == {**before, "closed": True}
        assert gw.outbox_abandoned == before["queued"]
        assert sensor.sink is None          # forwarding off
        assert gw.stats()["subscriptions"] == 0
        assert handle.close() is False
        assert world.sanitize_check() == []
        world.run(until=9.0)                # the pump's timer is gone too
        assert handle.stats() == {**before, "closed": True}
        session.close()
