"""Background-traffic generators and congestion-storm faults."""

import hashlib
import json

import pytest

from repro.simgrid import FaultPlan, GridWorld
from repro.simgrid.faults import FaultError
from repro.simgrid.kernel import Simulator
from repro.simgrid.sockets import discard
from repro.simgrid.traffic import (TRAFFIC_KINDS, TRAFFIC_PORT,
                                   TrafficGenerator, TrafficSpec)


def two_sites(seed=5):
    world = GridWorld(seed=seed)
    a = world.add_host("a.siteA")
    b = world.add_host("b.siteB")
    world.lan([a], switch="swA")
    world.lan([b], switch="swB")
    world.wan_path("swA", "swB", routers=["r1"], latency_s=5e-3)
    return world, a, b


class TestTrafficSpec:
    def test_json_round_trip(self):
        spec = TrafficSpec(src="a", dst="b", rate_bps=100e6, kind="onoff",
                           packet_bytes=4096, on_s=0.2, off_s=0.8,
                           jitter=0.1, seed=7, traffic_class="background")
        again = TrafficSpec.from_json(spec.to_json())
        assert again == spec
        # and the wire form is plain JSON
        assert json.loads(spec.to_json())["kind"] == "onoff"

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficSpec(src="a", dst="b", rate_bps=0)
        with pytest.raises(ValueError):
            TrafficSpec(src="a", dst="b", rate_bps=1e6, kind="sawtooth")
        with pytest.raises(ValueError):
            TrafficSpec(src="a", dst="b", rate_bps=1e6,
                        traffic_class="vip")

    def test_kinds_registry(self):
        assert TRAFFIC_KINDS == ("constant", "onoff")


class TestTrafficGenerator:
    def test_constant_rate_hits_target(self):
        world, a, b = two_sites()
        spec = TrafficSpec(src=a.name, dst=b.name, rate_bps=8e6,
                           packet_bytes=10_000)
        gen = TrafficGenerator(world, spec).start()
        world.run(until=2.0)
        gen.stop()
        # 8 Mb/s for 2 s = 2 MB, in 10 KB packets
        assert gen.packets_sent == pytest.approx(200, abs=2)
        assert gen.bytes_sent == pytest.approx(2_000_000, rel=0.02)

    def test_seeded_replay_is_deterministic(self):
        counts = []
        for _ in range(2):
            world, a, b = two_sites()
            spec = TrafficSpec(src=a.name, dst=b.name, rate_bps=50e6,
                               kind="onoff", jitter=0.3, seed=11)
            gen = TrafficGenerator(world, spec).start()
            world.run(until=3.0)
            gen.stop()
            counts.append((gen.packets_sent, gen.bytes_sent))
        assert counts[0] == counts[1]

    def test_onoff_sends_less_than_constant(self):
        world, a, b = two_sites()
        base = dict(src=a.name, dst=b.name, rate_bps=20e6)
        gen_c = TrafficGenerator(world, TrafficSpec(**base)).start()
        gen_o = TrafficGenerator(
            world, TrafficSpec(kind="onoff", on_s=0.25, off_s=0.75,
                               **base)).start()
        world.run(until=4.0)
        gen_c.stop()
        gen_o.stop()
        assert 0 < gen_o.packets_sent < gen_c.packets_sent
        assert gen_o.packets_sent < 0.5 * gen_c.packets_sent

    def test_world_start_stop_traffic(self):
        world, a, b = two_sites()
        gen = world.start_traffic({"src": a.name, "dst": b.name,
                                   "rate_bps": 10e6})
        assert world.traffic == [gen]
        world.run(until=1.0)
        assert gen.packets_sent > 0
        world.stop_traffic()
        assert world.traffic == []
        sent = gen.packets_sent
        world.run(until=2.0)
        assert gen.packets_sent == sent

    def test_traffic_survives_down_destination(self):
        world, a, b = two_sites()
        gen = world.start_traffic(TrafficSpec(src=a.name, dst=b.name,
                                              rate_bps=10e6))
        world.sim.call_at(0.5, lambda: b.crash())
        world.run(until=1.5)
        assert gen.send_failures > 0 or gen.packets_sent > 0
        world.stop_traffic()


class TestDiscardSink:
    def three_hosts(self):
        world = GridWorld(seed=5)
        a, b, c = (world.add_host(name) for name in "abc")
        world.lan([a, b, c], switch="sw")
        return world, a, b, c

    def test_stopping_one_storm_leaves_its_neighbours_sink_bound(self):
        """The discard service belongs to the host: the first storm to
        stop used to unbind it, turning the second storm's packets into
        ``messages_dropped`` while it reported no failures."""
        world, a, b, c = self.three_hosts()
        first = world.start_traffic({"src": "a", "dst": "c", "rate_bps": 1e6})
        second = world.start_traffic({"src": "b", "dst": "c", "rate_bps": 1e6})
        world.run(until=1.0)
        first.stop()
        sent = second.packets_sent
        world.run(until=2.0)
        assert second.packets_sent > sent and second.send_failures == 0
        assert world.transport.messages_dropped == 0
        assert c.ports.listener(TRAFFIC_PORT) is discard
        second.stop()
        assert c.ports.listener(TRAFFIC_PORT) is discard

    def test_a_real_listener_is_left_alone_and_still_hears_the_storm(self):
        world, a, b, c = self.three_hosts()
        heard = []

        def listener(msg, transport):
            heard.append(msg.msg_id)
        c.ports.bind(TRAFFIC_PORT, listener)
        gen = world.start_traffic({"src": "a", "dst": "c", "rate_bps": 1e6})
        world.run(until=1.0)
        gen.stop()
        world.run(until=2.0)
        assert c.ports.listener(TRAFFIC_PORT) is listener
        assert len(heard) == gen.packets_sent > 0

    def test_a_discarded_packet_is_charged_but_never_arrives(self):
        world, a, b, c = self.three_hosts()
        gen = world.start_traffic({"src": "a", "dst": "c", "rate_bps": 1e6,
                                   "packet_bytes": 1000})
        world.run(until=1.0)
        tr = world.transport
        assert tr.messages_sent == gen.packets_sent > 0
        assert tr.delivery_wakeups == 0
        # one kernel event a train, not a packet: with nothing else
        # queued, the tick start() queued sends every packet up to the
        # horizon
        assert world.sim.events_executed == 1
        sink = c.ports.activity(TRAFFIC_PORT)
        assert sink.bytes_in == gen.bytes_sent == 1000 * gen.packets_sent
        assert a.ports.activity(gen.src_port).bytes_out == gen.bytes_sent
        assert tr.class_bytes == {"background": gen.bytes_sent}
        world.stop_traffic()
        assert world.sim.pending_events == 0

    @pytest.mark.parametrize("fields, sources", [
        (dict(duration=0.75), "a"),
        (dict(kind="onoff", on_s=0.1, off_s=0.05, duration=0.6), "a"),
        (dict(kind="onoff", on_s=0.1, off_s=0.05, duration=0.6), "ab"),
        (dict(kind="onoff", on_s=0.1, off_s=0.0, start=0.2, duration=0.5),
         "ab")])
    def test_a_storm_in_trains_is_a_storm_in_ticks(self, fields, sources,
                                                   monkeypatch):
        """Storms into one sink, run to the end without a horizon: sent
        in trains, and with the kernel's run-ahead bound pinned to
        ``now`` (one tick per dispatch), every counter, link and clock
        reading is the same — the run ends on the last tick either way."""
        def storm_run():
            world, a, b, c = self.three_hosts()
            gens = [world.start_traffic(dict(
                src=src, dst="c", rate_bps=rate, packet_bytes=1500,
                jitter=0.3, seed=seed, **fields))
                for src, rate, seed in (("a", 9e6, 1), ("b", 5e6, 2))
                if src in sources]
            world.run()
            tr = world.transport
            return (world.now, world.sim.pending_events,
                    [(g.packets_sent, g.send_failures, g.running)
                     for g in gens],
                    tr.messages_sent, tr.queue_delay_s, tr.class_bytes,
                    [link.queue_stats() for link in world.network.links()],
                    [(act.bytes_in, act.bytes_out, act.last_activity)
                     for host in (a, b, c)
                     for act in host.ports._activity.values()]), \
                world.sim.events_executed
        trains, dispatches = storm_run()
        monkeypatch.setattr(Simulator, "run_ahead_limit",
                            lambda sim: sim.now)
        ticks, stepped = storm_run()
        assert trains == ticks
        # two storms bound each other's trains: fewer dispatches, not one
        assert dispatches <= (2 if sources == "a" else stepped - 1)

    def test_bytes_sent_counts_what_the_wire_carries(self):
        # a packet smaller than the header still carries a byte of
        # payload: 1 + 64 on the wire, and bytes_sent says so
        world, a, _b, c = self.three_hosts()
        gen = world.start_traffic({"src": "a", "dst": "c", "rate_bps": 1e5,
                                   "packet_bytes": 10})
        world.run(until=0.1)
        tr = world.transport
        assert gen.packets_sent > 0
        assert gen.bytes_sent == 65 * gen.packets_sent
        assert tr.class_bytes == {"background": gen.bytes_sent}
        assert c.ports.activity(TRAFFIC_PORT).bytes_in == gen.bytes_sent
        assert a.ports.activity(gen.src_port).bytes_out == gen.bytes_sent
        world.stop_traffic()


#: name -> (spec fields, run until, (stop at, start again at) or None,
#: packets, SHA-256 of ``repr`` of their ``sent_at`` list).  Recorded at
#: the commit before the generator became a timer, where it was a kernel
#: process; the port has a real listener, so every packet is delivered.
GOLDEN_SCHEDULES = {
    "constant_jitter": (
        dict(jitter=0.4, seed=3), 2.0, None, 191,
        "ca11ad96be9350752c894b51cc646c53f079e7c41192fffe2ff16024f96167c0"),
    "onoff_jitter": (
        dict(kind="onoff", on_s=0.25, off_s=0.35, jitter=0.3, seed=11),
        3.0, None, 128,
        "ef3b38bdb46fa7c698bb29221a070ae099bb98c0a300f932437422d2b00d39fa"),
    "onoff_no_rest": (
        dict(kind="onoff", on_s=0.3, off_s=0.0, jitter=0.2, seed=2),
        2.0, None, 190,
        "f55aac9ec1f76068bccb3ed72363a1ad7c490d214344a68eb3d69ebd9a020a9f"),
    "late_start_ends_mid_burst": (
        dict(kind="onoff", on_s=0.4, off_s=0.2, start=0.7, duration=0.9,
             jitter=0.1, seed=7), 4.0, None, 71,
        "64217579a9fcb75fb921708a6125c8ff72e20cd937e61ba0ecd56b8b62f96b01"),
    "stop_start_mid_run": (
        dict(kind="onoff", on_s=0.3, off_s=0.1, duration=1.0, jitter=0.5,
             seed=4), 4.0, (0.45, 0.8), 110,
        "1a6c824d35c62a217f156aabb08d0c25024854abcc5d7c29b99afb452c43513d"),
}


@pytest.mark.parametrize("name", GOLDEN_SCHEDULES)
def test_golden_send_schedule(name):
    """Every packet leaves at the instant it always did."""
    fields, until, restart, packets, digest = GOLDEN_SCHEDULES[name]
    world, a, b = two_sites()
    sent = []
    b.ports.bind(7000, lambda msg, tr: sent.append(msg.sent_at))
    world.run(until=0.1)
    gen = TrafficGenerator(world, TrafficSpec(
        src=a.name, dst=b.name, rate_bps=8e6, packet_bytes=10_000,
        port=7000, **fields)).start()
    if restart is not None:
        world.run(until=restart[0])
        gen.stop()
        world.run(until=restart[1])
        gen.start()
    world.run(until=until)
    # a run with a duration has ended by itself; the others are stopped
    assert gen.running == ("duration" not in fields)
    gen.stop()
    world.run(until=until + 1.0)
    assert len(sent) == gen.packets_sent == packets
    assert gen.send_failures == 0 and world.sim.pending_events == 0
    assert hashlib.sha256(repr(sent).encode()).hexdigest() == digest


class TestCongestionStormFault:
    def test_storm_and_calm_round_trip_json(self):
        plan = (FaultPlan(seed=1)
                .congestion_storm(2.0, "a.siteA", "b.siteB",
                                  rate_bps=400e6, kind="onoff", seed=9)
                .calm_traffic(6.0, "a.siteA", "b.siteB"))
        again = FaultPlan.from_json(plan.to_json())
        kinds = [e.kind for e in again.events]
        assert kinds == ["congestion_storm", "calm_traffic"]
        assert again.events[0].params["rate_bps"] == 400e6

    def test_injector_runs_and_stops_storm(self):
        world, a, b = two_sites()
        plan = (FaultPlan(seed=1)
                .congestion_storm(1.0, a.name, b.name, rate_bps=100e6,
                                  seed=3)
                .calm_traffic(3.0, a.name, b.name))
        injector = world.inject(plan)
        world.run(until=2.0)
        assert list(injector.active) == [
            ("congestion_storm", f"{a.name}|{b.name}")]
        (gen,) = world.traffic
        assert gen.packets_sent > 0
        world.run(until=4.0)
        assert injector.active == {} and world.traffic == []
        sent = gen.packets_sent
        world.run(until=5.0)
        assert gen.packets_sent == sent      # really stopped

    def test_heal_stops_residual_storms(self):
        world, a, b = two_sites()
        plan = (FaultPlan(seed=1)
                .congestion_storm(1.0, a.name, b.name, rate_bps=100e6)
                .heal(2.0))
        injector = world.inject(plan)
        world.run(until=1.5)
        (gen,) = world.traffic
        world.run(until=3.0)
        assert injector.active == {} and not gen.running

    def test_storm_needs_known_hosts(self):
        world, a, _b = two_sites()
        plan = FaultPlan(seed=1).congestion_storm(1.0, a.name, "ghost",
                                                  rate_bps=1e6)
        with pytest.raises(FaultError):
            world.inject(plan)

    def test_random_plans_only_storm_when_asked(self):
        hosts = ["a.siteA", "b.siteB", "c.siteA"]
        plain = FaultPlan.random(33, hosts=hosts, n_steps=60)
        assert not any(e.kind == "congestion_storm" for e in plain.events)
        stormy = FaultPlan.random(33, hosts=hosts, n_steps=60,
                                  storms=hosts)
        storms = [e for e in stormy.events if e.kind == "congestion_storm"]
        calms = [e for e in stormy.events if e.kind == "calm_traffic"]
        assert storms, "expected at least one storm in 60 steps"
        # always-recovering: every storm is followed by a matching calm
        for storm in storms:
            assert any(c.target == storm.target and c.at > storm.at
                       for c in calms)

    def test_queue_stats_of_a_congested_script_are_pinned(self):
        """Every link's ``queue_stats()`` after two storms (one
        overflowing the WAN queue toward b, one backlogging it toward a)
        and a byte-granular offer in the middle of them — the values the
        per-direction list layout gave, to the last bit."""
        world, a, b = two_sites()
        world.start_traffic(TrafficSpec(src=a.name, dst=b.name,
                                        rate_bps=1.2e9, packet_bytes=8192,
                                        jitter=0.2, seed=2, duration=0.6))
        world.start_traffic(TrafficSpec(src=b.name, dst=a.name,
                                        rate_bps=700e6, kind="onoff",
                                        on_s=0.1, off_s=0.2,
                                        packet_bytes=1500, seed=1))
        wan = min(world.network.links(), key=lambda l: l.bandwidth_bps)
        world.sim.call_at(
            0.3, lambda: wan.queue_offer(wan.a, 400_000, 0.3, "bulk"))
        world.run(until=1.0)
        world.stop_traffic()

        def stats(queue_bytes, drops, dropped, peak, delay, class_bytes):
            return {"queue_bytes": queue_bytes, "drops": drops,
                    "dropped_bytes": dropped, "peak_backlog_s": peak,
                    "delay_total_s": delay, "class_bytes": class_bytes}
        lan, trunk = 31250000.0, 19437500.0
        assert {l.name: l.queue_stats()
                for l in world.network.links()} == {
            "a.siteA--swA": stats(
                lan, (0, 0), (0, 0), (0.11989910049671881, 0.0),
                (659.0974591352618, 0.0), {"background": 124990120}),
            "b.siteB--swB": stats(
                lan, (0, 0), (0, 0), (0.0, 0.05377134961540825),
                (0.0, 169.00421149842435), {"background": 101069480}),
            "swA--r1": stats(
                trunk, (2921, 0), (24312188, 0),
                (0.24995283023012638, 0.012539476343838452),
                (1400.617104790432, 146.28553317528758),
                {"background": 101069480, "bulk": 8452}),
            "r1--swB": stats(
                trunk, (0, 0), (0, 0),
                (0.24989450921430567, 0.012539476343838452),
                (1400.0578322502388, 146.28553317528758),
                {"background": 101069480}),
        }

    def test_storm_congests_shared_link(self):
        world, a, b = two_sites()
        world.start_traffic(TrafficSpec(src=a.name, dst=b.name,
                                        rate_bps=800e6, packet_bytes=8192,
                                        seed=2))
        world.run(until=1.0)
        wan = min(world.network.links(), key=lambda l: l.bandwidth_bps)
        drops = sum(q.drops for q in wan.directions)
        delay = sum(q.delay_total_s for q in wan.directions)
        assert drops > 0 or delay > 0.0
        assert world.transport.class_bytes.get("background", 0) > 0
        world.stop_traffic()