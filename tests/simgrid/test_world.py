"""Unit tests for the GridWorld convenience layer and RNG streams."""

import pytest

from repro.simgrid import GridWorld, RandomStreams


class TestRandomStreams:
    def test_streams_are_deterministic(self):
        a = RandomStreams(seed=5).stream("x")
        b = RandomStreams(seed=5).stream("x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_are_independent_of_creation_order(self):
        r1 = RandomStreams(seed=5)
        r2 = RandomStreams(seed=5)
        r1.stream("other")  # created first in one, not the other
        assert r1.stream("x").random() == r2.stream("x").random()

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).stream("x")
        b = RandomStreams(seed=2).stream("x")
        assert a.random() != b.random()

    def test_same_name_same_object(self):
        streams = RandomStreams()
        assert streams.stream("x") is streams.stream("x")


class TestGridWorld:
    def test_lan_connects_hosts_through_switch(self):
        world = GridWorld(seed=1)
        a = world.add_host("a")
        b = world.add_host("b")
        world.lan([a, b], switch="sw")
        path = world.network.route(a.node, b.node)
        assert path.hops == 2
        assert path.nodes[1].kind == "switch"

    def test_wan_path_builds_router_chain(self):
        world = GridWorld(seed=1)
        a = world.add_host("a")
        b = world.add_host("b")
        world.lan([a], switch="s1")
        world.lan([b], switch="s2")
        links = world.wan_path("s1", "s2", routers=["r1", "r2"],
                               latency_s=10e-3)
        assert len(links) == 3
        path = world.network.route(a.node, b.node)
        assert path.router_hops == 2
        # end-to-end RTT: 2 * (0.1ms + 10ms + 10ms + 10ms + 0.1ms)
        assert path.rtt_s == pytest.approx(2 * (30e-3 + 2 * 0.1e-3))

    def test_can_reach_is_both_ends_up_and_a_live_route(self):
        world = GridWorld(seed=1)
        a = world.add_host("a")
        b = world.add_host("b")
        world.lan([a], switch="s1")
        world.lan([b], switch="s2")
        (link,) = world.wan_path("s1", "s2", routers=[])
        assert a.can_reach(b) and b.can_reach(a) and a.can_reach(a)
        link.set_up(False)              # partition: no route either way
        assert not a.can_reach(b) and not b.can_reach(a)
        link.set_up(True)
        b.crash()                       # a down end is unreachable and
        assert not a.can_reach(b) and not b.can_reach(a)  # reaches nothing
        b.restart()
        assert a.can_reach(b)

    def test_wan_routers_get_snmp_agents(self):
        world = GridWorld(seed=1)
        world.lan([world.add_host("a")], switch="s1")
        world.lan([world.add_host("b")], switch="s2")
        world.wan_path("s1", "s2", routers=["r1"])
        assert world.snmp.agent("r1") is not None
        assert world.snmp.agent("s1") is not None

    def test_duplicate_host_rejected(self):
        world = GridWorld(seed=1)
        world.add_host("a")
        with pytest.raises(ValueError):
            world.add_host("a")

    def test_install_ntp_derives_hops_from_topology(self):
        world = GridWorld(seed=1)
        near = world.add_host("near", clock_offset=0.01)
        far = world.add_host("far", clock_offset=0.01)
        ntp_host = world.add_host("ntp.lbl.gov")
        world.lan([near, ntp_host], switch="s1")
        world.lan([far], switch="s2")
        world.wan_path("s1", "s2", routers=["r1", "r2"], latency_s=5e-3)
        world.install_ntp(server_name="ntp.lbl.gov")
        assert world.ntp_daemons["near"].hops == 0
        assert world.ntp_daemons["far"].hops == 2
        world.run(until=200.0)
        assert abs(near.clock.error()) < abs(far.clock.error()) + 1e-3

    def test_tcp_flow_uses_named_rng_stream(self):
        """Same world seed + same flow name => identical dynamics."""
        def run_once():
            world = GridWorld(seed=9)
            a = world.add_host("a")
            b = world.add_host("b")
            world.network.link(a.node, b.node, bandwidth_bps=1e9,
                               latency_s=5e-3, loss_rate=0.01)
            flow = world.tcp_flow(a, b, dst_port=7000, rng_name="trial")
            flow.run_for(10.0)
            world.run(until=12.0)
            return flow.stats.bytes_acked, flow.stats.retransmits

        assert run_once() == run_once()

    def test_run_returns_current_time(self):
        world = GridWorld(seed=1)
        assert world.run(until=5.0) == 5.0
        assert world.now == 5.0
