"""Unit tests for topology and routing."""

import pytest

from repro.simgrid import Network, NoRouteError


def triangle():
    net = Network()
    a, b, c = net.node("a"), net.node("b"), net.node("c")
    ab = net.link(a, b, bandwidth_bps=1e9, latency_s=1e-3)
    bc = net.link(b, c, bandwidth_bps=1e8, latency_s=2e-3)
    ac = net.link(a, c, bandwidth_bps=1e7, latency_s=10e-3)
    return net, (a, b, c), (ab, bc, ac)


class TestRouting:
    def test_direct_link_preferred(self):
        net, (a, _b, c), (_, _, ac) = triangle()
        path = net.route(a, c)
        assert path.hops == 1
        assert path.links == (ac,)

    def test_reroute_after_link_failure(self):
        net, (a, _b, c), (_ab, _bc, ac) = triangle()
        net.set_link_state(ac, up=False)
        path = net.route(a, c)
        assert path.hops == 2
        assert ac not in path.links

    def test_no_route_raises(self):
        net, (a, _b, c), (ab, bc, ac) = triangle()
        for link in (ab, bc, ac):
            net.set_link_state(link, up=False)
        with pytest.raises(NoRouteError):
            net.route(a, c)

    def test_route_to_self_is_empty(self):
        net, (a, _, _), _links = triangle()
        path = net.route(a, a)
        assert path.hops == 0
        assert path.latency_s == 0

    def test_route_cache_invalidated_on_topology_change(self):
        net, (a, _b, c), (_, _, ac) = triangle()
        assert net.route(a, c).hops == 1
        net.set_link_state(ac, up=False)
        assert net.route(a, c).hops == 2
        net.set_link_state(ac, up=True)
        assert net.route(a, c).hops == 1

    def test_shortest_by_hops_through_chain(self):
        net = Network()
        nodes = [net.node(f"n{i}") for i in range(5)]
        for x, y in zip(nodes[:-1], nodes[1:]):
            net.link(x, y, bandwidth_bps=1e9, latency_s=1e-3)
        path = net.route(nodes[0], nodes[4])
        assert path.hops == 4


class TestPathProperties:
    def test_latency_and_bottleneck(self):
        net, (a, b, c), (ab, bc, _) = triangle()
        net.set_link_state(net.route(a, c).links[0], up=False)  # kill direct
        path = net.route(a, c)
        assert path.latency_s == pytest.approx(3e-3)
        assert path.rtt_s == pytest.approx(6e-3)
        assert path.bottleneck_bps == 1e8

    def test_loss_combines_multiplicatively(self):
        net = Network()
        a, b, c = net.node("a"), net.node("b"), net.node("c")
        net.link(a, b, bandwidth_bps=1e9, latency_s=1e-3, loss_rate=0.1)
        net.link(b, c, bandwidth_bps=1e9, latency_s=1e-3, loss_rate=0.1)
        path = net.route(a, c)
        assert path.loss_rate == pytest.approx(1 - 0.9 * 0.9)

    def test_directional_loss_per_direction(self):
        net = Network()
        a, b = net.node("a"), net.node("b")
        link = net.link(a, b, bandwidth_bps=1e9, latency_s=1e-3)
        link.set_loss(1.0, toward=b)
        assert link.loss_toward(b) == 1.0
        assert link.loss_toward(a) == 0.0
        assert link.loss_rate == 1.0          # scalar view: worst case
        assert net.route(a, b).loss_rate == 1.0
        assert net.route(b, a).loss_rate == 0.0
        state = link.loss_state()
        link.set_loss(0.5)                    # no toward: both directions
        assert link.loss_toward(a) == link.loss_toward(b) == 0.5
        link.restore_loss(state)
        assert (link.loss_toward(b), link.loss_toward(a)) == (1.0, 0.0)

    def test_router_hops_counted(self):
        net = Network()
        a = net.node("a")
        r = net.router("r1")
        s = net.switch("s1")
        b = net.node("b")
        net.link(a, s, bandwidth_bps=1e9, latency_s=1e-3)
        net.link(s, r, bandwidth_bps=1e9, latency_s=1e-3)
        net.link(r, b, bandwidth_bps=1e9, latency_s=1e-3)
        path = net.route(a, b)
        assert path.hops == 3
        assert path.router_hops == 1


class TestStoredAggregatesStayLive:
    """A Path stores what it derived from its links; every link mutator
    must drop the route cache so the next route() re-derives it."""

    def test_set_up_called_directly_reroutes(self):
        net, (a, _b, c), (ab, bc, ac) = triangle()
        assert net.route(a, c).links == (ac,)
        ac.set_up(False)                      # not via Network.set_link_state
        assert net.route(a, c).links == (ab, bc)
        ab.set_up(False)
        with pytest.raises(NoRouteError):
            net.route(a, c)
        ac.set_up(True)
        assert net.route(a, c).links == (ac,)

    @pytest.mark.parametrize("mutate, attr, expected", [
        (lambda l, far: setattr(l, "latency_s", 0.5), "latency_s", 0.5),
        (lambda l, far: setattr(l, "latency_s", 0.5), "rtt_s", 1.0),
        (lambda l, far: setattr(l, "bandwidth_bps", 1e3), "bottleneck_bps", 1e3),
        (lambda l, far: setattr(l, "loss_rate", 0.25), "loss_rate", 0.25),
        (lambda l, far: l.set_loss(0.5), "loss_rate", 0.5),
        (lambda l, far: l.set_loss(1.0, toward=far), "loss_rate", 1.0),
        (lambda l, far: l.restore_loss((0.75, 0.0)), "loss_rate", 0.75),
    ])
    def test_every_link_mutator_invalidates(self, mutate, attr, expected):
        net, (a, _b, c), (_ab, _bc, ac) = triangle()
        before = net.route(a, c)
        epoch = net._epoch
        mutate(ac, c)
        after = net.route(a, c)
        assert net._epoch > epoch
        assert after is not before
        assert getattr(after, attr) == expected

    def test_plan_tracks_drain_rate_and_direction(self):
        net, (a, _b, c), (_ab, _bc, ac) = triangle()
        (link, direction, rate, out, inn), = net.route(c, a).plan
        assert (link, rate) == (ac, 1e7 / 8.0)
        assert direction is ac.toward(a) is not ac.toward(c)
        assert out is c.interface(ac) and inn is a.interface(ac)
        ac.bandwidth_bps = 8e6
        (_link, again, rate, _out, _inn), = net.route(c, a).plan
        # a new plan, the same queue: its backlog outlives the epoch
        assert rate == 1e6 and again is direction

    def test_bottleneck_hop_is_first_narrowest(self):
        net = Network()
        n = [net.node(f"n{i}") for i in range(4)]
        links = [net.link(x, y, bandwidth_bps=bps, latency_s=1e-3)
                 for x, y, bps in zip(n, n[1:], (1e9, 1e6, 1e6))]
        path = net.route(n[0], n[3])
        assert path.bottleneck_hop == 1
        assert path.links[path.bottleneck_hop] is links[1]
        assert net.route(n[0], n[0]).bottleneck_hop is None

    def test_setters_validate_like_the_constructor(self):
        _net, _nodes, (ab, _bc, _ac) = triangle()
        with pytest.raises(ValueError):
            ab.bandwidth_bps = 0
        with pytest.raises(ValueError):
            ab.latency_s = -1e-3
        assert (ab.bandwidth_bps, ab.latency_s) == (1e9, 1e-3)
        with pytest.raises(AttributeError):
            ab.up = False                     # set_up() is the mutator
        assert ab.up


class TestValidationAndCounters:
    def test_duplicate_node_rejected(self):
        net = Network()
        net.add_node(type(net.node("x"))("y"))
        with pytest.raises(ValueError):
            net.add_node(type(net.node("x"))("x"))

    def test_bad_link_parameters_rejected(self):
        net = Network()
        a, b = net.node("a"), net.node("b")
        with pytest.raises(ValueError):
            net.link(a, b, bandwidth_bps=0, latency_s=1e-3)
        with pytest.raises(ValueError):
            net.link(a, b, bandwidth_bps=1e9, latency_s=-1)
        with pytest.raises(ValueError):
            net.link(a, b, bandwidth_bps=1e9, latency_s=1e-3, loss_rate=1.1)
        # 1.0 is legal: a true blackhole that stays "up" for routing
        black = net.link(a, b, bandwidth_bps=1e9, latency_s=1e-3,
                         loss_rate=1.0)
        assert black.loss_rate == 1.0

    def test_transit_updates_both_interfaces(self):
        net = Network()
        a, b = net.node("a"), net.node("b")
        link = net.link(a, b, bandwidth_bps=1e9, latency_s=1e-3)
        link.record_transit(a, 1500, 1)
        assert a.interface(link).out_octets == 1500
        assert b.interface(link).in_octets == 1500
        assert b.interface(link).in_packets == 1

    def test_totals_aggregate_interfaces(self):
        net = Network()
        r = net.router("r")
        a, b = net.node("a"), net.node("b")
        la = net.link(a, r, bandwidth_bps=1e9, latency_s=1e-3)
        lb = net.link(r, b, bandwidth_bps=1e9, latency_s=1e-3)
        la.record_transit(a, 100, 1)
        lb.record_transit(r, 100, 1)
        totals = r.totals()
        assert totals.in_octets == 100
        assert totals.out_octets == 100

    def test_router_and_switch_typed_lookup(self):
        net = Network()
        net.router("r1")
        net.switch("s1")
        assert [r.name for r in net.routers()] == ["r1"]
        assert [s.name for s in net.switches()] == ["s1"]
        with pytest.raises(ValueError):
            net.router("s1")


def queue_link(bandwidth_bps=8e6, queue_bytes=250_000):
    """An 8 Mb/s link moves 1e6 bytes/s — round numbers for delay math."""
    net = Network()
    a, b = net.node("a"), net.node("b")
    link = net.link(a, b, bandwidth_bps=bandwidth_bps, latency_s=1e-3,
                    queue_bytes=queue_bytes)
    return net, (a, b), link


class TestLinkQueue:
    def test_idle_fast_path_is_free(self):
        _net, (a, _b), link = queue_link()
        accepted, delay = link.queue_offer(a, 100_000, 0.0)
        assert (accepted, delay) == (100_000, 0.0)

    def test_backlog_becomes_queuing_delay(self):
        _net, (a, _b), link = queue_link()
        link.queue_offer(a, 100_000, 0.0)          # 0.1 s of serialization
        accepted, delay = link.queue_offer(a, 50_000, 0.0)
        assert accepted == 50_000
        assert delay == pytest.approx(0.1)
        # and the backlog is now 0.15 s worth of bytes
        assert link.queue_backlog_s(link.other(a), 0.0) == pytest.approx(0.15)

    def test_backlog_drains_with_time(self):
        _net, (a, _b), link = queue_link()
        link.queue_offer(a, 100_000, 0.0)
        _accepted, delay = link.queue_offer(a, 1_000, 0.06)
        assert delay == pytest.approx(0.04)
        _accepted, delay = link.queue_offer(a, 1_000, 1.0)   # long drained
        assert delay == 0.0

    def test_atomic_overflow_drops_whole_datagram(self):
        _net, (a, b), link = queue_link()
        link.queue_offer(a, 1_000_000, 0.0)        # 1 s backlog >> 0.25 s cap
        accepted, _delay = link.queue_offer(a, 1_000, 0.0, atomic=True)
        assert accepted == 0
        toward = link.toward(b)
        assert (toward.drops, toward.dropped_bytes) == (1, 1_000)
        assert link.toward(a).drops == 0

    def test_byte_granular_offer_accepts_what_fits(self):
        _net, (a, _b), link = queue_link()
        link.queue_offer(a, 200_000, 0.0)          # 50 KB of headroom left
        accepted, _delay = link.queue_offer(a, 80_000, 0.0)
        assert accepted == 50_000

    def test_directions_queue_independently(self):
        _net, (a, b), link = queue_link()
        link.queue_offer(a, 1_000_000, 0.0)
        accepted, delay = link.queue_offer(b, 10_000, 0.0)
        assert (accepted, delay) == (10_000, 0.0)

    def test_traffic_class_accounting(self):
        _net, (a, _b), link = queue_link()
        link.queue_offer(a, 1_000, 0.0, "monitoring")
        link.queue_offer(a, 2_000, 0.0, "bulk")
        link.queue_offer(a, 3_000, 0.0, "bulk")
        assert link.class_bytes == {"monitoring": 1_000, "bulk": 5_000}

    def test_utilization_tracks_offered_load(self):
        _net, (a, b), link = queue_link()
        toward = link.other(a)
        for i in range(10):                        # 4 Mb over 1 s = 50%
            link.queue_offer(a, 50_000, i * 0.1, "bulk")
        util = link.utilization(toward, 1.0)
        assert 0.3 < util <= 0.7
        assert link.utilization(link.other(b), 1.0) == 0.0

    def test_queue_stats_round_up(self):
        _net, (a, _b), link = queue_link()
        link.queue_offer(a, 100_000, 0.0)
        link.queue_offer(a, 100_000, 0.0, "bulk")
        link.queue_offer(a, 1_000_000, 0.0, atomic=True)
        stats = link.queue_stats()
        assert stats["queue_bytes"] == 250_000
        assert stats["drops"] == (1, 0)
        assert stats["dropped_bytes"] == (1_000_000, 0)
        assert stats["delay_total_s"][0] == pytest.approx(0.1)
        assert stats["peak_backlog_s"][0] > 0.0
        assert stats["class_bytes"] == {"bulk": 100_000}

    def test_default_queue_sizes_from_bandwidth(self):
        net = Network()
        a, b = net.node("a"), net.node("b")
        link = net.link(a, b, bandwidth_bps=622e6, latency_s=1e-3)
        assert link.queue_bytes == pytest.approx(0.25 * 622e6 / 8.0)

    def test_zero_queue_rejected(self):
        net = Network()
        a, b = net.node("a"), net.node("b")
        with pytest.raises(ValueError):
            net.link(a, b, bandwidth_bps=1e9, latency_s=1e-3, queue_bytes=0)
