"""Unit tests for the event gateway."""

import pytest

from repro.core import (EventGateway, GatewayError, OnChange, Threshold)
from repro.core.sensors import CPUSensor, NetstatSensor
from repro.core.subscriptions import Delivery, SpecError, SubscriptionSpec
from repro.simgrid import GridWorld
from repro.ulm import ULMMessage, parse as parse_ulm, from_xml, decode


def setup():
    world = GridWorld(seed=6)
    host = world.add_host("sensor-host")
    gw = EventGateway(world.sim, name="gw0")
    sensor = CPUSensor(host, period=1.0)
    gw.register_sensor(sensor)
    sensor.start()
    return world, host, gw, sensor


class TestSubscriptions:
    def test_stream_delivers_events(self):
        world, _h, gw, sensor = setup()
        got = []
        gw.open(SubscriptionSpec(sensor.name,
                                 delivery=Delivery.callback(got.append)))
        world.run(until=3.5)
        assert len(got) == 4
        assert all(isinstance(m, ULMMessage) for m in got)

    def test_no_subscription_no_forwarding(self):
        """§2.3: event data is not sent anywhere unless requested."""
        world, _h, gw, sensor = setup()
        world.run(until=3.5)
        assert gw.events_in == 0
        assert sensor.events_dropped > 0

    def test_unsubscribe_stops_forwarding(self):
        world, _h, gw, sensor = setup()
        got = []
        sub = gw.open(SubscriptionSpec(
            sensor.name, delivery=Delivery.callback(got.append)))
        world.run(until=2.5)
        sub.close()
        count = len(got)
        world.run(until=6.5)
        assert len(got) == count
        assert sensor.sink is None

    def test_consumer_count_maintained(self):
        world, _h, gw, sensor = setup()
        spec = SubscriptionSpec(sensor.name,
                                delivery=Delivery.callback(lambda m: None))
        s1 = gw.open(spec)
        s2 = gw.open(spec.clone())
        assert sensor.consumer_count == 2
        s1.close()
        assert sensor.consumer_count == 1
        s2.close()
        assert sensor.consumer_count == 0

    def test_unknown_sensor_rejected(self):
        _w, _h, gw, _s = setup()
        with pytest.raises(GatewayError):
            gw.open(SubscriptionSpec(
                "ghost", delivery=Delivery.callback(lambda m: None)))

    def test_stream_needs_delivery_path(self):
        _w, _h, gw, sensor = setup()
        with pytest.raises(SpecError):
            gw.open(SubscriptionSpec(sensor.name))

    def test_fanout_to_many_consumers(self):
        world, _h, gw, sensor = setup()
        sinks = [[] for _ in range(5)]
        for sink in sinks:
            gw.open(SubscriptionSpec(
                sensor.name, delivery=Delivery.callback(sink.append)))
        world.run(until=2.5)
        assert all(len(s) == 3 for s in sinks)
        # one event in, five deliveries out
        assert gw.events_delivered == 5 * gw.events_in


class TestQueryMode:
    def test_query_returns_most_recent_event(self):
        world, _h, gw, sensor = setup()
        gw.open(SubscriptionSpec(sensor.name, mode="query"))
        world.run(until=5.5)
        event = gw.query(sensor.name)
        assert event is not None
        assert event.date == pytest.approx(5.0)

    def test_query_mode_gets_no_stream(self):
        world, _h, gw, sensor = setup()
        got = []
        gw.open(SubscriptionSpec(sensor.name, mode="query",
                                 delivery=Delivery.callback(got.append)))
        world.run(until=5.5)
        assert got == []

    def test_bad_mode_rejected(self):
        _w, _h, gw, sensor = setup()
        with pytest.raises(SpecError):
            gw.open(SubscriptionSpec(
                sensor.name, mode="telepathic",
                delivery=Delivery.callback(lambda m: None)))


class TestFiltering:
    def test_change_only_subscription(self):
        world = GridWorld(seed=7)
        host = world.add_host("h")
        gw = EventGateway(world.sim, name="gw0")
        sensor = NetstatSensor(host, period=1.0)
        gw.register_sensor(sensor)
        sensor.start()
        got = []
        from repro.core import AndAll, EventNames
        gw.open(SubscriptionSpec(
            sensor.name, delivery=Delivery.callback(got.append),
            event_filter=AndAll([EventNames(["NETSTAT_RETRANSMITS"]),
                                 OnChange("VALUE")])))
        world.sim.call_in(4.6, lambda: host.tcp_counters.__setitem__(
            "retransmits", 9))
        world.run(until=10.5)
        # baseline delivery + the one counter change — not one per second
        assert len(got) == 2
        assert [m.get_int("VALUE") for m in got] == [0, 9]

    def test_threshold_subscription(self):
        world, host, gw, sensor = setup()
        got = []
        gw.open(SubscriptionSpec(
            sensor.name, delivery=Delivery.callback(got.append),
            event_filter=Threshold("CPU.USER", ">", 50.0)))
        token = [None]
        world.sim.call_in(3.5, lambda: token.__setitem__(
            0, host.cpu.add_load(user=1.6)))
        world.run(until=8.5)
        assert len(got) == 1
        assert got[0].get_float("CPU.USER") > 50


class TestFormats:
    def test_remote_delivery_formats(self):
        world = GridWorld(seed=8)
        sensor_host = world.add_host("s")
        gw_host = world.add_host("g")
        consumer_host = world.add_host("c")
        world.lan([sensor_host, gw_host, consumer_host], switch="sw")
        gw = EventGateway(world.sim, name="gw0", host=gw_host,
                          transport=world.transport)
        sensor = CPUSensor(sensor_host, period=1.0)
        gw.register_sensor(sensor)
        sensor.start()
        received = {}
        port = 21000
        for fmt in ("ulm", "xml", "binary"):
            received[fmt] = []
            consumer_host.ports.bind(
                port, lambda m, t, f=fmt: received[f].append(m.payload[1]))
            gw.open(SubscriptionSpec(
                sensor.name, fmt=fmt,
                delivery=Delivery.remote(consumer_host, port)))
            port += 1
        world.run(until=2.5)
        ulm_events = [parse_ulm(f.wire) for f in received["ulm"]]
        xml_events = [from_xml(f.wire) for f in received["xml"]]
        bin_events = [decode(f.wire) for f in received["binary"]]
        assert len(ulm_events) == len(xml_events) == len(bin_events) == 3
        assert ulm_events == xml_events == bin_events
        # the message each frame carries is what its wire decodes to
        for fmt, events in (("ulm", ulm_events), ("xml", xml_events),
                            ("binary", bin_events)):
            assert [f.fmt for f in received[fmt]] == [fmt] * 3
            assert [f.message() for f in received[fmt]] == events

    def test_unknown_format_rejected_at_subscribe(self):
        world, _h, gw, sensor = setup()
        with pytest.raises(SpecError):
            gw.open(SubscriptionSpec(
                sensor.name, fmt="morse",
                delivery=Delivery.callback(lambda m: None)))


class TestSummaries:
    def test_summarize_fills_windows_without_subscribers(self):
        world, host, gw, sensor = setup()
        host.cpu.add_load(user=0.8)  # 40% of 2 cpus
        gw.summarize(sensor.name, ("CPU.USER",))
        world.run(until=30.5)
        snap = gw.summary(sensor.name, "CPU.USER")
        assert snap is not None
        assert snap["last"] == pytest.approx(40.0)
        assert snap["avg1m"] == pytest.approx(40.0)

    def test_summary_for_unknown_series_is_none(self):
        _w, _h, gw, sensor = setup()
        assert gw.summary(sensor.name, "NOPE") is None


class TestControlRelay:
    def test_request_sensor_start_via_gateway(self):
        world, host, gw, sensor = setup()
        sensor.stop()

        class FakeManager:
            def __init__(self):
                self.requests = []

            def start_sensor(self, name, requested_by=""):
                self.requests.append((name, requested_by))
                return True

        mgr = FakeManager()
        assert gw.request_sensor_start(mgr, sensor.name)
        assert mgr.requests == [(sensor.name, "gateway:gw0")]


class TestRenderOnceFanOut:
    """§2.3: fan-out cost must not grow with the consumer count — each
    event is rendered at most once per distinct subscription format."""

    def _remote_gateway(self):
        world = GridWorld(seed=7)
        sensor_host = world.add_host("sensor-host")
        gw_host = world.add_host("gw-host")
        consumer = world.add_host("consumer-host")
        world.lan([sensor_host, gw_host, consumer], switch="sw")
        gw = EventGateway(world.sim, name="gw-r", host=gw_host,
                          transport=world.transport)
        sensor = CPUSensor(sensor_host, period=1.0)
        gw.register_sensor(sensor)
        sensor.start()
        return world, gw, sensor, consumer

    def test_render_called_once_per_distinct_format(self, monkeypatch):
        from repro.ulm import Frame
        world, gw, sensor, consumer = self._remote_gateway()
        calls = []
        real_render = Frame.of

        def counting_render(msg, fmt):
            # hold the message itself: a bare id() could be reused by a
            # later event once this one is garbage-collected
            calls.append((msg, fmt))
            return real_render(msg, fmt)

        monkeypatch.setattr(Frame, "of", staticmethod(counting_render))
        # ten subscribers over two formats -> at most 2 renders/event
        for i in range(10):
            gw.open(SubscriptionSpec(
                sensor.name, fmt="ulm" if i % 2 else "xml",
                delivery=Delivery.remote(consumer, 19000 + i)))
        world.run(until=3.5)
        assert gw.events_in > 0
        assert gw.events_delivered == 10 * gw.events_in
        per_event = {}
        for msg, fmt in calls:
            per_event.setdefault(id(msg), []).append(fmt)
        assert per_event, "no renders recorded"
        for fmts in per_event.values():
            # each format rendered at most once per event
            assert len(fmts) == len(set(fmts)) <= 2

    def test_event_name_index_skips_accept(self, monkeypatch):
        from repro.core.filters import EventNames

        def exploding_accept(self, msg):
            raise AssertionError("accept() must not run for "
                                 "indexed EventNames subscriptions")

        world, _h, gw, sensor = setup()
        matched, others = [], []
        hit = gw.open(SubscriptionSpec(
            sensor.name, delivery=Delivery.callback(matched.append),
            event_filter=EventNames(["CPU_USAGE"]))).sub_id
        miss = gw.open(SubscriptionSpec(
            sensor.name, delivery=Delivery.callback(others.append),
            event_filter=EventNames(["SOME_OTHER_EVNT"]))).sub_id
        monkeypatch.setattr(EventNames, "accept", exploding_accept)
        world.run(until=2.5)
        assert len(matched) == gw.events_in > 0
        assert others == []
        # non-matching indexed subscriptions still count as filtered,
        # and per-subscription counters reconcile on observation
        assert gw.events_filtered == gw.events_in
        gw.stats()
        assert gw._subs[miss].filtered == gw.events_in
        assert gw._subs[hit].filtered == 0
        assert gw._subs[hit].delivered == gw.events_in

    def test_zero_subscriber_sensor_short_circuits(self):
        world, _h, gw, sensor = setup()
        # force events through without any subscription (direct ingest,
        # e.g. summary-only forwarding with no spec configured)
        gw.ingest(sensor.name, ULMMessage(date=1.0, host="h", prog="cpu",
                                          event="X"))
        assert gw.events_in == 1
        assert gw.events_delivered == 0
        assert gw.query(sensor.name) is not None
