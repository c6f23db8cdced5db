"""Unit tests for the control-plane message transport."""

import pytest

from repro.simgrid import DeliveryError, GridWorld


def pair():
    world = GridWorld(seed=2)
    a = world.add_host("a")
    b = world.add_host("b")
    world.lan([a, b], switch="sw")
    return world, a, b


class TestDelivery:
    def test_message_arrives_with_latency(self):
        world, a, b = pair()
        got = []
        b.ports.bind(5000, lambda msg, tr: got.append((world.now, msg.payload)))
        world.transport.send(a, b, 5000, {"hello": 1}, size_bytes=100)
        world.run()
        assert len(got) == 1
        t, payload = got[0]
        assert payload == {"hello": 1}
        assert t > 0  # propagation + serialization

    def test_no_listener_calls_on_fail(self):
        world, a, b = pair()
        errors = []
        world.transport.send(a, b, 9999, "x", on_fail=errors.append)
        world.run()
        assert len(errors) == 1
        assert isinstance(errors[0], DeliveryError)

    def test_no_route_raises_without_on_fail(self):
        world = GridWorld(seed=3)
        a = world.add_host("a")
        b = world.add_host("b")  # not linked
        b.ports.bind(5000, lambda m, t: None)
        with pytest.raises(DeliveryError):
            world.transport.send(a, b, 5000, "x")

    def test_port_traffic_accounted_on_both_ends(self):
        world, a, b = pair()
        b.ports.bind(5000, lambda m, t: None)
        world.transport.send(a, b, 5000, "data", size_bytes=1000, src_port=4000)
        world.run()
        assert a.ports.activity(4000).bytes_out > 1000  # includes header
        assert b.ports.activity(5000).bytes_in > 1000

    def test_per_host_counters(self):
        world, a, b = pair()
        b.ports.bind(5000, lambda m, t: None)
        for _ in range(3):
            world.transport.send(a, b, 5000, "x")
        world.run()
        assert world.transport.per_host_sent["a"] == 3
        assert "b" not in world.transport.per_host_sent

    def test_snmp_counters_see_transit(self):
        world, a, b = pair()
        b.ports.bind(5000, lambda m, t: None)
        world.transport.send(a, b, 5000, "x", size_bytes=500)
        world.run()
        sw = world.network.get("sw")
        assert sw.totals().in_octets > 0

    def test_double_bind_rejected(self):
        world, a, _b = pair()
        a.ports.bind(7000, lambda m, t: None)
        with pytest.raises(OSError):
            a.ports.bind(7000, lambda m, t: None)


class TestRPC:
    def test_request_reply_roundtrip(self):
        world, a, b = pair()

        def server(msg, transport):
            transport.reply(msg, {"echo": msg.payload})

        b.ports.bind(5000, server)
        flag = world.transport.request(a, b, 5000, "ping")
        world.run()
        assert flag.triggered
        assert flag.value == {"echo": "ping"}

    def test_request_timeout_triggers_error(self):
        world, a, b = pair()
        b.ports.bind(5000, lambda m, t: None)  # never replies
        flag = world.transport.request(a, b, 5000, "ping", timeout=1.0)
        world.run()
        assert flag.triggered
        assert isinstance(flag.value, DeliveryError)

    def test_request_to_missing_listener_fails_fast(self):
        world, a, b = pair()
        flag = world.transport.request(a, b, 12345, "ping", timeout=5.0)
        world.run()
        assert isinstance(flag.value, DeliveryError)
        assert world.now < 5.0  # failed before the timeout

    def test_ephemeral_reply_port_released(self):
        world, a, b = pair()
        b.ports.bind(5000, lambda m, t: t.reply(m, "ok"))
        before = len(a.ports.bound_ports())
        flag = world.transport.request(a, b, 5000, "ping")
        world.run()
        assert flag.value == "ok"
        assert len(a.ports.bound_ports()) == before


class TestPortTable:
    def test_idle_for_tracks_last_activity(self):
        world, a, _b = pair()
        assert a.ports.idle_for(1234) == float("inf")
        act = a.ports.activity(1234)
        act.bytes_in += 10
        act.last_activity = world.now
        world.sim.call_in(5.0, lambda: None)
        world.run()
        assert a.ports.idle_for(1234) == pytest.approx(5.0)

    def test_connection_open_close_counting(self):
        world, a, _b = pair()
        a.ports.connection_opened(80)
        a.ports.connection_opened(80)
        assert a.ports.activity(80).active_connections == 2
        a.ports.connection_closed(80)
        a.ports.connection_closed(80)
        a.ports.connection_closed(80)  # extra close is clamped
        assert a.ports.activity(80).active_connections == 0

    def test_ports_with_traffic(self):
        world, a, _b = pair()
        a.ports.activity(21).bytes_in += 5
        a.ports.activity(8080).bytes_out += 5
        a.ports.activity(99)  # touched but no traffic
        assert a.ports.ports_with_traffic() == [21, 8080]


class TestFlowOrdering:
    """Per-flow FIFO: a send never overtakes an earlier one on the same
    (src, dst, dst_port) flow, while independent flows stay decoupled."""

    def test_latency_drop_does_not_reorder_a_flow(self):
        world, a, b = pair()
        got = []
        b.ports.bind(5000, lambda msg, tr: got.append(msg.payload))
        for link in world.network.links():
            link.latency_s = 1.0
        world.transport.send(a, b, 5000, "first")
        for link in world.network.links():
            link.latency_s = 0.001
        world.transport.send(a, b, 5000, "second")
        world.run()
        assert got == ["first", "second"]

    def test_smaller_message_does_not_overtake_on_same_flow(self):
        world, a, b = pair()
        got = []
        b.ports.bind(5000, lambda msg, tr: got.append(msg.payload))
        world.transport.send(a, b, 5000, "bulk", size_bytes=1_000_000)
        world.transport.send(a, b, 5000, "tiny", size_bytes=10)
        world.run()
        assert got == ["bulk", "tiny"]

    def test_independent_flows_do_not_serialize(self):
        """Another port's ordering watermark must not clamp this flow.

        A high-latency send to port 5000 leaves a far-future watermark;
        when the latency drops, port 6000 traffic must arrive on the
        fast path, not behind 5000's watermark.  (The two flows still
        share link FIFO queues — wire contention is physical — so the
        probe message is tiny and sent when the queue is idle.)"""
        world, a, b = pair()
        got = []
        b.ports.bind(5000, lambda msg, tr: got.append(msg.payload))
        b.ports.bind(6000, lambda msg, tr: got.append(msg.payload))
        for link in world.network.links():
            link.latency_s = 1.0
        world.transport.send(a, b, 5000, "slow", size_bytes=10)
        for link in world.network.links():
            link.latency_s = 0.001
        world.transport.send(a, b, 6000, "fast", size_bytes=10)
        world.run()
        assert got == ["fast", "slow"]

    def test_shared_link_fifo_delays_cross_traffic(self):
        """The wire itself is shared: a same-instant 1 MB datagram ahead
        in the link queue delays an unrelated tiny message behind it."""
        world, a, b = pair()
        got = []
        b.ports.bind(5000, lambda msg, tr: got.append(msg.payload))
        b.ports.bind(6000, lambda msg, tr: got.append(msg.payload))
        world.transport.send(a, b, 5000, "bulk", size_bytes=1_000_000)
        world.transport.send(a, b, 6000, "tiny", size_bytes=10)
        world.run()
        assert got == ["bulk", "tiny"]
        assert world.transport.queue_delay_s > 0.0


class TestPerFlowLoss:
    def test_loss_draws_are_independent_of_other_flows(self):
        """Which of a flow's messages a lossy link eats depends only on
        that flow's own send history — interleaving traffic on another
        flow must not reshuffle the draws (timing changes elsewhere
        would otherwise move losses between unrelated streams)."""
        def drive(interleave: bool) -> list:
            world = GridWorld(seed=2)
            a = world.add_host("a")
            b = world.add_host("b")
            world.lan([a, b], switch="sw")
            for link in world.network.links():
                link.loss_rate = 0.2
            got = []
            b.ports.bind(7000, lambda msg, tr: got.append(msg.payload))
            b.ports.bind(8000, lambda msg, tr: None)
            for i in range(100):
                world.transport.send(a, b, 7000, i)
                if interleave:
                    world.transport.send(a, b, 8000, i)
            world.run()
            return got

        alone = drive(interleave=False)
        shared = drive(interleave=True)
        assert 0 < len(alone) < 100  # the link did eat some
        assert alone == shared


class TestFlowStateBounds:
    def test_rpc_churn_does_not_leak_flow_state(self):
        """10k request/reply cycles: every reply lands on a fresh
        ephemeral port, but reply flows are one-shot — neither the
        per-flow watermark table nor the loss-RNG table may grow with
        the number of RPCs issued."""
        world, a, b = pair()
        b.ports.bind(5000, lambda msg, tr: tr.reply(msg, "ok"))
        answered = [0]

        def churn():
            for _ in range(10_000):
                flag = world.transport.request(a, b, 5000, "ping")
                yield flag
                assert flag.value == "ok"
                answered[0] += 1

        world.sim.spawn(churn())
        world.run()
        assert answered[0] == 10_000
        assert len(world.transport._flow_clock) <= 8
        assert len(world.transport._loss_rngs) <= 8

    def test_a_stream_owns_one_source_port(self):
        """5,000 sends on one flow, from a sender that minted its source
        port once: neither end's port table grows after the first send
        (one ``PortActivity`` per flow, not per message).  A caller that
        passes no ``src_port`` still gets a fresh one per send."""
        world, a, b = pair()
        b.ports.bind(5000, lambda msg, tr: None)
        src_port = world.transport.ephemeral_port()
        world.transport.send(a, b, 5000, "first", src_port=src_port)
        tables = (len(a.ports._activity), len(b.ports._activity))
        assert tables == (1, 1)
        for i in range(5_000):
            world.transport.send(a, b, 5000, i, src_port=src_port)
            if i % 100 == 0:
                world.run()
        world.run()
        assert (len(a.ports._activity), len(b.ports._activity)) == tables
        assert a.ports.ports_with_traffic() == [src_port]
        # never a port request() could be waiting for a reply on
        assert world.transport.ephemeral_port() > src_port
        world.transport.send(a, b, 5000, "one-off")
        world.transport.send(a, b, 5000, "one-off")
        assert len(a.ports._activity) == 3

    def test_oneshot_skips_watermark_but_keeps_delivery(self):
        world, a, b = pair()
        got = []
        b.ports.bind(6000, lambda msg, tr: got.append(msg.payload))
        world.transport.send(a, b, 6000, "fire-and-forget", oneshot=True)
        world.run()
        assert got == ["fire-and-forget"]
        assert (a.name, b.name, 6000) not in world.transport._flow_clock

    def test_class_bytes_accounting(self):
        world, a, b = pair()
        b.ports.bind(6000, lambda msg, tr: None)
        world.transport.send(a, b, 6000, "m", size_bytes=300)
        world.transport.send(a, b, 6000, "b", size_bytes=700,
                             traffic_class="bulk")
        world.run()
        # on-wire sizes include the 64-byte header
        assert world.transport.class_bytes == {"monitoring": 364,
                                               "bulk": 764}
