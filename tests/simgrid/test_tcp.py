"""Unit tests for the TCP flow model."""

import pytest

from repro.simgrid import GridWorld, poisson_draw


def wan_pair(seed=1, latency=10e-3):
    world = GridWorld(seed=seed)
    src = world.add_host("src.lbl.gov")
    dst = world.add_host("dst.cairn.net")
    world.lan([src], switch="sw-a")
    world.lan([dst], switch="sw-b")
    world.wan_path("sw-a", "sw-b", routers=["r1", "r2"], latency_s=latency)
    return world, src, dst


def lan_pair(seed=1):
    world = GridWorld(seed=seed)
    src = world.add_host("src")
    dst = world.add_host("dst")
    world.lan([src, dst], switch="sw")
    return world, src, dst


class TestTransfer:
    def test_transfer_delivers_requested_bytes(self):
        world, src, dst = wan_pair()
        flow = world.tcp_flow(src, dst, dst_port=7000)
        flow.transfer(1_000_000)
        world.run(until=60.0)
        assert flow.done.triggered
        assert flow.stats.bytes_acked >= 1_000_000

    def test_slow_start_doubles_window(self):
        world, src, dst = wan_pair()
        flow = world.tcp_flow(src, dst, dst_port=7000)
        flow.transfer(5_000_000)
        world.run(until=60.0)
        cwnds = [c for _, c in flow.stats.cwnd_history]
        assert cwnds[:3] == [4, 8, 16]  # from the initial window of 2

    def test_window_capped_by_receive_buffer(self):
        world, src, dst = wan_pair()
        flow = world.tcp_flow(src, dst, dst_port=7000, rwnd_bytes=100_000)
        flow.run_for(20.0)
        world.run(until=25.0)
        assert max(c for _, c in flow.stats.cwnd_history) <= 100_000 // 1460

    def test_single_wan_stream_is_window_limited(self):
        """Paper §6: 1 MB window / 60 ms RTT ≈ 140 Mbit/s."""
        world, src, dst = wan_pair()
        flow = world.tcp_flow(src, dst, dst_port=7000)
        flow.run_for(30.0)
        world.run(until=32.0)
        mbps = flow.stats.throughput_bps(5.0, 30.0) / 1e6
        assert 120 <= mbps <= 150
        assert flow.stats.retransmits == 0

    def test_lan_stream_hits_receiver_ceiling(self):
        world, src, dst = lan_pair()
        flow = world.tcp_flow(src, dst, dst_port=7000)
        flow.run_for(10.0)
        world.run(until=12.0)
        mbps = flow.stats.throughput_bps(2.0, 10.0) / 1e6
        assert 170 <= mbps <= 210  # dst.nic.rx_bucket.rate_bps = 200e6


def trunk_goodputs(*, both_ways, rwnd_bytes, n=4, seconds=10.0):
    """``n`` flows each way between two sites joined by one OC-12 trunk
    (30 ms, no routers), host i to host i, so no receiver NIC sees more
    than one socket.  Returns the (a->b, b->a) goodput in Mbit/s."""
    world = GridWorld(seed=1)
    a = [world.add_host(f"a{i}") for i in range(n)]
    b = [world.add_host(f"b{i}") for i in range(n)]
    world.lan(a, switch="sw-a")
    world.lan(b, switch="sw-b")
    world.wan_path("sw-a", "sw-b", routers=[], latency_s=30e-3)
    pairs = list(zip(a, b)) + (list(zip(b, a)) if both_ways else [])
    flows = [world.tcp_flow(src, dst, dst_port=5001, rwnd_bytes=rwnd_bytes)
             for src, dst in pairs]
    for flow in flows:
        flow.run_for(seconds)
    world.run(until=seconds + 1.0)

    def mbps(fs):
        return sum(f.stats.throughput_bps(2.0, seconds) for f in fs) / 1e6
    return mbps(flows[:n]), mbps(flows[n:])


class TestFullDuplexTrunk:
    """A trunk's two directions are separate queues: traffic one way
    takes nothing from the other."""

    @pytest.mark.parametrize("rwnd_bytes", [1 << 20, 2 << 20],
                             ids=["window-limited", "trunk-limited"])
    def test_opposite_directions_each_get_the_one_way_rate(self, rwnd_bytes):
        alone, _ = trunk_goodputs(both_ways=False, rwnd_bytes=rwnd_bytes)
        forward, reverse = trunk_goodputs(both_ways=True,
                                          rwnd_bytes=rwnd_bytes)
        assert forward == pytest.approx(reverse, rel=0.03)
        assert forward == pytest.approx(alone, rel=0.03)
        assert reverse == pytest.approx(alone, rel=0.03)

    def test_saturated_trunk_carries_its_rate_each_way(self):
        forward, reverse = trunk_goodputs(both_ways=True, rwnd_bytes=2 << 20)
        for mbps in (forward, reverse):
            assert 0.95 * 622 <= mbps <= 1.01 * 622  # OC-12


class TestLossBehaviour:
    def test_path_loss_causes_retransmit_events(self):
        world = GridWorld(seed=4)
        src = world.add_host("a")
        dst = world.add_host("b")
        world.network.link(src.node, dst.node, bandwidth_bps=1e9,
                           latency_s=5e-3, loss_rate=0.01)
        flow = world.tcp_flow(src, dst, dst_port=7000)
        events = []
        flow.on_retransmit(lambda f, n: events.append(n))
        flow.run_for(20.0)
        world.run(until=22.0)
        assert flow.stats.retransmits > 0
        assert sum(events) == flow.stats.retransmits
        assert src.tcp_counters["retransmits"] == flow.stats.retransmits

    def test_loss_halves_congestion_window(self):
        world = GridWorld(seed=5)
        src = world.add_host("a")
        dst = world.add_host("b")
        world.network.link(src.node, dst.node, bandwidth_bps=1e9,
                           latency_s=5e-3, loss_rate=0.02)
        flow = world.tcp_flow(src, dst, dst_port=7000)
        changes = []
        flow.on_window_change(lambda f, old, new: changes.append((old, new)))
        flow.run_for(20.0)
        world.run(until=22.0)
        halvings = [(o, n) for o, n in changes if n < o]
        assert halvings, "expected at least one multiplicative decrease"
        for old, new in halvings:
            assert new == max(2, old // 2) or new == 1

    def test_multi_socket_loss_only_with_multiple_receivers(self):
        world, src, dst = wan_pair()
        f1 = world.tcp_flow(src, dst, dst_port=7000)
        assert dst.nic.rx_loss_probability() == 0.0
        f1.run_for(5.0)
        assert dst.nic.rx_loss_probability() == 0.0  # one socket: clean
        f2 = world.tcp_flow(src, dst, dst_port=7001)
        f2.run_for(5.0)
        assert dst.nic.rx_loss_probability() > 0.0
        world.run(until=6.0)
        assert dst.nic.rx_loss_probability() == 0.0  # flows closed

    def test_burst_loss_produces_timeout_gap(self):
        world, src, dst = wan_pair(seed=7)
        flow = world.tcp_flow(src, dst, dst_port=7000, burst_loss_prob=0.05)
        flow.run_for(30.0)
        world.run(until=32.0)
        assert flow.stats.timeouts > 0

    def test_route_failure_stalls_then_recovers(self):
        world, src, dst = wan_pair(seed=8)
        links = world.network.links()
        wan_link = [l for l in links if "r1" in l.name][0]
        flow = world.tcp_flow(src, dst, dst_port=7000)
        flow.transfer(2_000_000)
        world.sim.call_in(0.5, world.network.set_link_state, wan_link, False)
        world.sim.call_in(3.0, world.network.set_link_state, wan_link, True)
        world.run(until=120.0)
        assert flow.done.triggered
        assert flow.stats.timeouts > 0
        assert flow.stats.bytes_acked >= 2_000_000


class TestPersistentMode:
    def test_requests_served_in_order(self):
        world, src, dst = wan_pair()
        flow = world.tcp_flow(src, dst, dst_port=7000)
        flow.open_persistent()
        finishes = []
        for i, nbytes in enumerate([100_000, 50_000]):
            flag = flow.request(nbytes)
            flag.on_trigger(lambda _v, i=i: finishes.append((i, world.now)))
        world.run(until=30.0)
        assert [i for i, _ in finishes] == [0, 1]
        assert flow.stats.bytes_acked == 150_000

    def test_persistent_connection_idles_between_requests(self):
        world, src, dst = wan_pair()
        flow = world.tcp_flow(src, dst, dst_port=7000)
        flow.open_persistent()
        flow.request(50_000)
        world.run(until=10.0)
        acked_after_first = flow.stats.bytes_acked
        world.run(until=20.0)
        assert flow.stats.bytes_acked == acked_after_first  # idle, no junk
        flow.request(50_000)
        world.run(until=40.0)
        assert flow.stats.bytes_acked == 100_000

    def test_request_without_open_persistent_raises(self):
        world, src, dst = wan_pair()
        flow = world.tcp_flow(src, dst, dst_port=7000)
        with pytest.raises(RuntimeError):
            flow.request(1000)

    def test_stop_fails_outstanding_requests(self):
        world, src, dst = wan_pair()
        flow = world.tcp_flow(src, dst, dst_port=7000)
        flow.open_persistent()
        flag = flow.request(50_000_000)
        world.run(until=1.0)
        flow.stop()
        world.run(until=5.0)
        assert flag.triggered
        assert not flow.active

    def test_progress_callbacks_sum_to_acked(self):
        world, src, dst = wan_pair()
        flow = world.tcp_flow(src, dst, dst_port=7000)
        chunks = []
        flow.on_progress(lambda f, n: chunks.append(n))
        flow.transfer(500_000)
        world.run(until=30.0)
        assert sum(chunks) == flow.stats.bytes_acked == 500_000


class TestAccounting:
    def test_port_tables_updated_on_both_hosts(self):
        world, src, dst = wan_pair()
        flow = world.tcp_flow(src, dst, dst_port=7000)
        flow.transfer(200_000)
        world.run(until=30.0)
        assert dst.ports.activity(7000).bytes_in == 200_000
        assert src.ports.activity(flow.src_port).bytes_out == 200_000

    def test_connection_counts_open_close(self):
        world, src, dst = wan_pair()
        flow = world.tcp_flow(src, dst, dst_port=7000)
        flow.transfer(10_000)
        assert dst.ports.activity(7000).active_connections == 1
        world.run(until=30.0)
        assert dst.ports.activity(7000).active_connections == 0

    def test_last_flow_teardown_updates_the_nic_rate_once(self):
        world, src, dst = wan_pair()
        flow = world.tcp_flow(src, dst, dst_port=7000)
        flow.transfer(100_000)
        rates = []
        set_rx_rate = dst.nic.set_rx_rate
        dst.nic.set_rx_rate = lambda pps: (rates.append(pps),
                                           set_rx_rate(pps))
        teardown = flow._teardown
        per_teardown = []

        def counted_teardown():
            before = len(rates)
            teardown()
            per_teardown.append(rates[before:])

        flow._teardown = counted_teardown
        world.run(until=30.0)
        assert flow.done.triggered
        assert dst.nic.active_rx_sockets == 0
        assert per_teardown == [[0]]

    def test_router_counters_see_the_bytes(self):
        world, src, dst = wan_pair()
        flow = world.tcp_flow(src, dst, dst_port=7000)
        flow.transfer(100_000)
        world.run(until=30.0)
        r1 = world.network.get("r1")
        assert r1.totals().in_octets >= 100_000

    def test_delivered_never_exceeds_sent(self):
        world, src, dst = wan_pair(seed=11)
        flow = world.tcp_flow(src, dst, dst_port=7000)
        flow.run_for(10.0)
        world.run(until=12.0)
        stats = flow.stats
        assert stats.bytes_acked <= stats.packets_sent * flow.mss
        assert stats.packets_lost >= 0


class TestThroughputSeries:
    def test_series_reflects_progress(self):
        world, src, dst = wan_pair()
        flow = world.tcp_flow(src, dst, dst_port=7000)
        flow.run_for(10.0)
        world.run(until=12.0)
        series = flow.stats.throughput_series(1.0)
        assert series
        assert all(m >= 0 for _, m in series)
        # steady-state samples should sit near the window limit
        steady = [m for t, m in series if t > 5.0]
        assert max(steady) > 100


class TestPoisson:
    def test_zero_lambda_is_zero(self):
        import random
        assert poisson_draw(random.Random(1), 0.0) == 0

    def test_mean_approximates_lambda(self):
        import random
        rng = random.Random(42)
        for lam in (0.5, 3.0, 50.0):
            draws = [poisson_draw(rng, lam) for _ in range(4000)]
            mean = sum(draws) / len(draws)
            assert abs(mean - lam) < 0.15 * lam + 0.1
            assert all(d >= 0 for d in draws)


class TestRequestFailure:
    def test_stop_fails_requests_with_error_marker(self):
        from repro.simgrid.tcp import RequestFailed
        world, src, dst = wan_pair()
        flow = world.tcp_flow(src, dst, dst_port=5001, rng_name="rf")
        flow.open_persistent()
        flag = flow.request(4 << 20)
        world.sim.call_at(0.5, flow.stop)
        world.run(until=2.0)
        assert flag.triggered
        failure = flag.value
        assert isinstance(failure, RequestFailed)
        assert failure.flow is flow
        assert failure.requested == 4 << 20
        assert 0 <= failure.delivered < 4 << 20

    def test_queued_requests_fail_with_zero_delivered(self):
        from repro.simgrid.tcp import RequestFailed
        world, src, dst = wan_pair()
        flow = world.tcp_flow(src, dst, dst_port=5001, rng_name="rf2")
        flow.open_persistent()
        first = flow.request(8 << 20)
        second = flow.request(1 << 20)       # queued behind the first
        world.sim.call_at(0.2, flow.stop)
        world.run(until=2.0)
        assert isinstance(first.value, RequestFailed)
        assert isinstance(second.value, RequestFailed)
        assert second.value.delivered == 0

    def test_completed_request_still_returns_flow(self):
        world, src, dst = wan_pair()
        flow = world.tcp_flow(src, dst, dst_port=5001, rng_name="rf3")
        flow.open_persistent()
        flag = flow.request(64 << 10)
        world.run(until=10.0)
        assert flag.value is flow
        flow.stop()
