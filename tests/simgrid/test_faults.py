"""Unit tests for the fault-injection layer itself."""

from __future__ import annotations

import pytest

from repro.simgrid import (FaultError, FaultEvent, FaultPlan, GridWorld,
                           NoRouteError)
from repro.simgrid.faults import FAULT_TABLE, REQUIRED


def two_site_world():
    world = GridWorld(seed=3)
    a1 = world.add_host("a1")
    a2 = world.add_host("a2")
    b1 = world.add_host("b1")
    world.lan([a1, a2], switch="sw-a")
    world.lan([b1], switch="sw-b")
    world.wan_path("sw-a", "sw-b", routers=["r1"], latency_s=5e-3)
    return world


class TestFaultPlan:
    def test_events_sorted_and_round_trip(self):
        plan = (FaultPlan(seed=4)
                .restart_host(20.0, "a1")
                .crash_host(10.0, "a1")
                .link_loss(15.0, "a1--sw-a", 0.05))
        assert [e.at for e in plan] == [10.0, 15.0, 20.0]
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.to_dict() == plan.to_dict()
        assert clone.seed == 4

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError):
            FaultEvent(1.0, "meteor_strike", "a1")

    def test_random_plans_always_recover(self):
        """Every crashed host is restarted and partitions heal within
        the horizon, so random plans always end in a live world."""
        plan = FaultPlan.random(99, hosts=["a1", "a2", "b1"],
                                n_steps=100, horizon=50.0)
        crashed, restarted = set(), set()
        last_partition, last_heal = -1.0, -1.0
        for e in plan:
            if e.kind == "host_crash":
                crashed.add(e.target)
            elif e.kind == "host_restart":
                restarted.add(e.target)
            elif e.kind == "partition":
                last_partition = max(last_partition, e.at)
            elif e.kind == "heal":
                last_heal = max(last_heal, e.at)
        assert crashed <= restarted
        if last_partition >= 0:
            assert last_heal >= last_partition

    def test_protected_hosts_never_crash(self):
        plan = FaultPlan.random(1, hosts=["a1", "a2", "b1"], n_steps=200,
                                horizon=60.0, protect=["b1"])
        assert all(e.target != "b1" for e in plan
                   if e.kind == "host_crash")

    def test_gray_kinds_round_trip_json(self):
        plan = (FaultPlan(seed=9)
                .degrade_sensor(1.0, "a1", mode="partial", rate=0.7, seed=42)
                .restore_sensor(2.0, "a1")
                .asymmetric_partition(3.0, ["a1", "a2"], ["b1"])
                .slow_consumer(4.0, "b1", 2.5)
                .restore_consumer(5.0, "b1")   # rate None -> JSON null
                .disk_full(6.0, "arch", 10_000)
                .restore_disk(7.0, "arch")
                .heal(8.0))
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.to_dict() == plan.to_dict()
        lifted = next(e for e in clone if e.kind == "slow_consumer"
                      and e.at == 5.0)
        assert lifted.params["rate"] is None

    def test_degrade_mode_validated(self):
        plan = FaultPlan().degrade_sensor(1.0, "a1", mode="melt")
        with pytest.raises(FaultError):
            two_site_world().inject(plan)

    def test_random_plans_include_and_recover_gray_kinds(self):
        plan = FaultPlan.random(
            7, hosts=["a1", "a2", "b1"], n_steps=400, horizon=60.0,
            consumers=["b1"], archives=["arch"])
        kinds = {e.kind for e in plan}
        assert {"sensor_degrade", "slow_consumer", "disk_full"} <= kinds
        # every degradation is restored (a no-mode event) per host
        degraded = [e for e in plan if e.kind == "sensor_degrade"]
        assert all(e.params.get("mode") != "stale" for e in degraded)
        for host in {e.target for e in degraded if "mode" in e.params}:
            sets = [e for e in degraded if e.target == host
                    and e.params.get("mode")]
            clears = [e for e in degraded if e.target == host
                      and not e.params.get("mode")]
            assert len(clears) >= 1
            assert max(e.at for e in clears) <= 60.0
        # throttles and byte caps are lifted before the horizon
        for kind, param in (("slow_consumer", "rate"),
                            ("disk_full", "budget_bytes")):
            events = [e for e in plan if e.kind == kind]
            assert events[-1].params.get(param) is None

    def test_storage_kinds_round_trip_json(self):
        plan = (FaultPlan(seed=11)
                .stall_compaction(1.0, "arch", mode="wedge")
                .restore_compaction(2.0, "arch")   # params empty
                .tear_segment(3.0, "arch", index=2)
                .mend_segments(4.0, "arch")
                .slow_disk(5.0, "arch", 8.5)
                .restore_disk_speed(6.0, "arch"))
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.to_dict() == plan.to_dict()
        restore = next(e for e in clone if e.kind == "compaction_stall"
                       and e.at == 2.0)
        assert "mode" not in restore.params

    def test_stall_mode_validated(self):
        world = two_site_world()
        world.register_archive(object(), name="arch")
        plan = FaultPlan().stall_compaction(1.0, "arch", mode="unplug")
        with pytest.raises(FaultError):
            world.inject(plan)

    def test_random_plans_include_and_recover_storage_kinds(self):
        plan = FaultPlan.random(
            13, hosts=["a1", "a2", "b1"], n_steps=600, horizon=60.0,
            archives=["arch"])
        kinds = {e.kind for e in plan}
        assert {"compaction_stall", "torn_segment", "slow_disk"} <= kinds
        # every storage fault's last event is its parameterless restore
        for kind, param in (("compaction_stall", "mode"),
                            ("torn_segment", "index"),
                            ("slow_disk", "factor")):
            events = [e for e in plan if e.kind == kind]
            assert param in events[0].params
            assert param not in events[-1].params
            assert events[-1].at <= 60.0 * 0.95

    def test_random_plans_deterministic_per_seed(self):
        kwargs = dict(hosts=["a1", "a2", "b1"], n_steps=120, horizon=50.0,
                      consumers=["b1"], archives=["arch"])
        assert FaultPlan.random(5, **kwargs).to_dict() == \
            FaultPlan.random(5, **kwargs).to_dict()
        assert FaultPlan.random(5, **kwargs).to_dict() != \
            FaultPlan.random(6, **kwargs).to_dict()


class TestFaultInjector:
    def test_arm_validates_targets_up_front(self):
        world = two_site_world()
        with pytest.raises(FaultError):
            world.inject(FaultPlan().crash_host(1.0, "nope"))
        with pytest.raises(FaultError):
            world.inject(FaultPlan().link_down(1.0, "no-such-link"))

    def test_host_crash_drops_traffic_and_restart_restores(self):
        world = two_site_world()
        a1, b1 = world.host("a1"), world.host("b1")
        world.inject(FaultPlan().crash_host(1.0, "b1").restart_host(3.0, "b1"))
        got = []
        b1.ports.bind(4000, lambda m, _t: got.append(m))
        for t in (0.5, 2.0, 4.0):
            world.sim.call_at(t, lambda: world.transport.send(
                a1, b1, 4000, {"n": 1}, on_fail=lambda exc: None))
        world.run(until=6.0)
        assert len(got) == 2  # the t=2.0 send died with the host down
        assert b1.crashes == 1 and b1.restarts == 1

    def test_partition_cuts_cross_site_routes_only(self):
        world = two_site_world()
        plan = FaultPlan().partition(1.0, ["a1", "a2"], ["b1"])
        injector = world.inject(plan)
        world.run(until=2.0)
        with pytest.raises(NoRouteError):
            world.network.route("a1", "b1")
        # intra-site connectivity survives (an infra link was cut)
        assert world.network.route("a1", "a2").hops == 2

    def test_heal_restores_routes_and_link_params(self):
        world = two_site_world()
        link = next(l for l in world.network.links()
                    if l.name == "sw-a--r1")
        base_latency = link.latency_s
        plan = (FaultPlan()
                .partition(1.0, ["a1", "a2"], ["b1"])
                .link_loss(1.5, "sw-a--r1", 0.2)
                .link_latency(1.5, "sw-a--r1", 10.0)
                .heal(3.0))
        world.inject(plan)
        world.run(until=2.0)
        assert link.loss_rate == pytest.approx(0.2)
        world.run(until=4.0)
        assert world.network.route("a1", "b1").hops == 4
        assert link.loss_rate == 0.0
        assert link.latency_s == pytest.approx(base_latency)

    def test_clock_skew_applies_offset_and_drift(self):
        world = two_site_world()
        world.inject(FaultPlan().skew_clock(1.0, "a1", offset=0.25,
                                            drift=1e-3))
        world.run(until=2.0)
        clock = world.host("a1").clock
        assert clock.error() == pytest.approx(0.25 + 1e-3 * 1.0)

    def test_asymmetric_partition_loses_one_direction_silently(self):
        world = two_site_world()
        a1, b1 = world.host("a1"), world.host("b1")
        world.inject(FaultPlan()
                     .asymmetric_partition(1.0, ["a1", "a2"], ["b1"])
                     .heal(4.0))
        results = {"a_to_b": [], "b_to_a": [], "failed": []}
        a1.ports.bind(4000, lambda m, _t: results["b_to_a"].append(m))
        b1.ports.bind(4000, lambda m, _t: results["a_to_b"].append(m))

        def exchange():
            world.transport.send(a1, b1, 4000, {"d": "a->b"},
                                 on_fail=results["failed"].append)
            world.transport.send(b1, a1, 4000, {"d": "b->a"},
                                 on_fail=results["failed"].append)

        world.sim.call_at(2.0, exchange)   # during the gray partition
        world.sim.call_at(5.0, exchange)   # after heal
        world.run(until=6.0)
        # routing stayed up the whole time, and the cut direction died
        # SILENTLY: no on_fail at the sender — that's the gray part
        assert world.network.route("a1", "b1").hops >= 1
        assert results["failed"] == []
        assert len(results["a_to_b"]) == 1   # t=2.0 copy blackholed
        assert len(results["b_to_a"]) == 2   # reverse path never cut
        assert world.transport.messages_lost == 1

    def test_disk_full_degrades_registered_archive_and_heals(self):
        from repro.core.archive import EventArchive
        from repro.ulm import ULMMessage

        world = two_site_world()
        archive = EventArchive(name="arch")
        world.register_archive(archive)
        world.inject(FaultPlan()
                     .disk_full(1.0, "arch", 2_000)
                     .restore_disk(3.0, "arch"))

        def feed(n, t):
            for i in range(n):
                archive.append(ULMMessage(date=t + i * 1e-3, host="a1",
                                          prog="s", event="E",
                                          fields={"PAYLOAD": "x" * 64}))

        world.sim.call_at(0.5, lambda: feed(40, 0.5))
        world.run(until=2.0)
        assert archive.degraded
        assert archive.shed > 0                  # oldest retention shed
        assert len(archive.query(event="E")) > 0  # still serves reads
        dropped_while_degraded = archive.dropped_degraded
        world.sim.call_at(2.5, lambda: feed(5, 2.5))
        world.run(until=2.8)
        assert archive.dropped_degraded == dropped_while_degraded + 5
        world.run(until=4.0)
        assert not archive.degraded              # budget lifted
        before = len(archive.messages)
        feed(3, 5.0)
        assert len(archive.messages) == before + 3

    def test_unknown_gray_targets_rejected_at_arm(self):
        world = two_site_world()
        with pytest.raises(FaultError):
            world.inject(FaultPlan().degrade_sensor(1.0, "nope"))
        with pytest.raises(FaultError):
            world.inject(FaultPlan().slow_consumer(1.0, "nope", 2.0))
        with pytest.raises(FaultError):
            world.inject(FaultPlan().disk_full(1.0, "no-arch", 1000))
        with pytest.raises(FaultError):
            world.inject(FaultPlan().stall_compaction(1.0, "no-arch"))
        with pytest.raises(FaultError):
            world.inject(FaultPlan().tear_segment(1.0, "no-arch"))
        with pytest.raises(FaultError):
            world.inject(FaultPlan().slow_disk(1.0, "no-arch", 4.0))

    @staticmethod
    def _segmented_archive(world, n=40):
        from repro.core.archive import EventArchive
        from repro.ulm import ULMMessage

        archive = EventArchive(name="arch", segment_events=8)
        world.register_archive(archive)
        for i in range(n):
            archive.append(ULMMessage(date=0.1 + i * 1e-2, host="a1",
                                      prog="s", event="E",
                                      fields={"SEQ": i, "VALUE": i}))
        return archive

    def test_compaction_stall_wedges_until_restored(self):
        world = two_site_world()
        archive = self._segmented_archive(world)
        compactor = archive.start_compaction(world.sim, interval=0.5)
        world.inject(FaultPlan()
                     .stall_compaction(1.0, "arch", mode="wedge")
                     .restore_compaction(4.0, "arch"))
        world.run(until=0.9)
        passes_before = archive.compaction_passes
        assert passes_before > 0
        world.run(until=3.9)
        assert archive.compaction_stalled
        # wedged: supervision restarts are visible but don't help
        assert archive.compaction_passes == passes_before
        assert compactor.stats()["restarts"] >= 1
        world.run(until=6.0)
        assert not archive.compaction_stalled
        assert archive.compaction_passes > passes_before  # caught up
        compactor.stop()

    def test_compaction_kill_recovers_via_supervision_alone(self):
        world = two_site_world()
        archive = self._segmented_archive(world)
        compactor = archive.start_compaction(world.sim, interval=0.5)
        # one-shot kill: no restore event in the plan at all
        world.inject(FaultPlan().stall_compaction(1.0, "arch", mode="kill"))
        world.run(until=1.1)
        passes_killed = archive.compaction_passes
        world.run(until=8.0)
        assert archive.compaction_passes > passes_killed
        assert compactor.stats()["restarts"] >= 1
        assert not archive.compaction_stalled
        compactor.stop()

    def test_torn_segment_quarantines_then_mend_reinstates(self):
        world = two_site_world()
        archive = self._segmented_archive(world, n=40)
        total = len(archive)
        world.inject(FaultPlan()
                     .tear_segment(1.0, "arch", index=0)
                     .mend_segments(3.0, "arch"))
        world.run(until=2.0)
        # detection is lazy: the query notices, quarantines, and keeps
        # serving every healthy segment
        served = archive.query(event="E")
        assert 0 < len(served) < total
        assert archive.stats()["quarantined"] == 1
        assert archive.quarantined_spans()
        world.run(until=4.0)
        assert archive.stats()["quarantined"] == 0
        assert archive.stats()["segments_reinstated"] == 1
        assert len(archive.query(event="E")) == total

    def test_slow_disk_stretches_and_restores_io_latency(self):
        world = two_site_world()
        archive = self._segmented_archive(world)
        world.inject(FaultPlan()
                     .slow_disk(1.0, "arch", 6.0)
                     .restore_disk_speed(3.0, "arch"))
        world.run(until=2.0)
        assert archive.io_latency_factor == pytest.approx(6.0)
        world.run(until=4.0)
        assert archive.io_latency_factor == pytest.approx(1.0)

    def test_heal_clears_all_storage_gray_state(self):
        world = two_site_world()
        archive = self._segmented_archive(world, n=40)
        total = len(archive)
        world.inject(FaultPlan()
                     .stall_compaction(1.0, "arch", mode="wedge")
                     .tear_segment(1.0, "arch", index=1)
                     .slow_disk(1.0, "arch", 9.0)
                     .heal(3.0))
        world.run(until=2.0)
        archive.query(event="E")  # trip the lazy torn detection
        assert archive.compaction_stalled
        assert archive.stats()["quarantined"] == 1
        world.run(until=4.0)
        assert not archive.compaction_stalled
        assert archive.io_latency_factor == pytest.approx(1.0)
        assert archive.stats()["quarantined"] == 0
        assert len(archive.query(event="E")) == total

    def test_sensor_degrade_applies_and_heal_clears(self):
        from repro.core import JAMMDeployment, JAMMConfig
        world = two_site_world()
        jamm = JAMMDeployment(world)
        gw = jamm.add_gateway("gw", host=world.host("b1"))
        config = JAMMConfig()
        config.add_sensor("cpu", "cpu", period=0.5)
        manager = jamm.add_manager(world.host("a1"), config=config,
                                   gateway=gw)
        manager.supervision_interval = 100.0  # park supervision: isolate heal
        sensor = manager.sensors["cpu"]
        world.inject(FaultPlan()
                     .degrade_sensor(1.0, "a1", mode="partial", rate=1.0)
                     .heal(3.0))
        world.run(until=2.0)
        assert sensor.degrade_mode == "partial"
        assert sensor.running and sensor._proc.alive  # alive, just lossy
        world.run(until=4.0)
        assert sensor.degrade_mode is None            # heal cured it

    def test_process_kill_targets_a_sensor_loop(self):
        from repro.core import JAMMDeployment, JAMMConfig
        world = two_site_world()
        jamm = JAMMDeployment(world)
        gw = jamm.add_gateway("gw", host=world.host("b1"))
        config = JAMMConfig()
        config.add_sensor("cpu", "cpu", period=0.5)
        manager = jamm.add_manager(world.host("a1"), config=config,
                                   gateway=gw)
        manager.supervision_interval = 2.0
        sensor = manager.sensors["cpu"]
        # kill between supervision ticks (2.0, 4.0, ...) so the wedged
        # state — "running" with a dead loop — is observable
        world.inject(FaultPlan().kill_process(2.5, "a1", sensor="cpu"))
        world.run(until=3.0)
        assert sensor.running and not sensor._proc.alive  # wedged
        world.run(until=6.0)
        assert sensor._proc.alive  # the supervisor restarted it
        assert sensor.restarts == 1
        assert manager.sensor_restarts == 1


class TestFlakyRpc:
    """Transient RPC faults at the transport boundary (flaky_rpc)."""

    def test_flaky_kinds_round_trip_json(self):
        plan = (FaultPlan(seed=21)
                .flaky_rpc(1.0, "b1", rate=0.4, latency_s=0.2, seed=9)
                .steady_rpc(2.0, "b1")
                .steady_rpc(3.0))           # no host -> clears all
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.to_dict() == plan.to_dict()
        flaky = next(e for e in clone if e.kind == "flaky_rpc")
        assert flaky.params == {"rate": 0.4, "latency_s": 0.2, "seed": 9}

    def test_flaky_rate_validated(self):
        world = two_site_world()
        with pytest.raises(FaultError):
            world.inject(FaultPlan().flaky_rpc(1.0, "b1", rate=1.5))
        with pytest.raises(FaultError):
            world.inject(FaultPlan().flaky_rpc(1.0, "nope", rate=0.5))

    def test_random_plans_with_flaky_always_recover(self):
        plan = FaultPlan.random(17, hosts=["a1", "a2", "b1"], n_steps=300,
                                horizon=60.0, flaky=["a1", "b1"])
        flaky = [e for e in plan if e.kind == "flaky_rpc"]
        steady = [e for e in plan if e.kind == "steady_rpc"]
        assert flaky, "flaky hosts given but no flaky_rpc drawn"
        # always-recovering: every flaky host gets a steady_rpc at or
        # after its last flaky_rpc, inside the horizon
        for host in {e.target for e in flaky}:
            last_flaky = max(e.at for e in flaky if e.target == host)
            clears = [e.at for e in steady if e.target == host]
            assert clears and max(clears) >= last_flaky
            assert max(clears) <= 60.0

    def test_flaky_gating_preserves_seed_replay(self):
        """Plans generated WITHOUT the flaky parameter are bit-identical
        to pre-flaky_rpc plans: the new kind is appended to the draw
        list only when flaky hosts are supplied."""
        kwargs = dict(hosts=["a1", "a2", "b1"], n_steps=150, horizon=50.0,
                      consumers=["b1"], archives=["arch"])
        base = FaultPlan.random(5, **kwargs)
        assert "flaky_rpc" not in {e.kind for e in base}
        assert base.to_dict() == FaultPlan.random(5, **kwargs).to_dict()
        withflaky = FaultPlan.random(5, flaky=["a1"], **kwargs)
        assert "flaky_rpc" in {e.kind for e in withflaky}

    def test_injected_flaky_drops_then_steady_restores(self):
        """End-to-end through a world: sends toward the flaky host fail
        with seeded transient errors (sender-visible via on_fail), and
        steady_rpc restores perfect delivery."""
        world = two_site_world()
        a1, b1 = world.host("a1"), world.host("b1")
        got, errors = [], []
        b1.ports.bind(7000, lambda m, t: got.append(m))
        world.inject(FaultPlan(seed=3)
                     .flaky_rpc(1.0, "b1", rate=0.6, seed=3)
                     .steady_rpc(10.0, "b1"))

        def sender():
            from repro.simgrid.kernel import Timeout
            for _ in range(40):
                yield Timeout(0.2)
                world.transport.send(a1, b1, 7000, "ping",
                                     on_fail=errors.append)
        world.sim.spawn(sender())
        world.run(until=9.0)
        mid_delivered, mid_failed = len(got), len(errors)
        assert mid_failed > 0, "no transient failures at rate=0.6"
        assert mid_delivered > 0, "flaky is not a blackhole"
        assert world.transport.messages_flaky_failed == mid_failed
        world.run(until=20.0)
        # after steady_rpc every remaining send was delivered
        assert len(errors) == mid_failed
        assert len(got) + len(errors) == 40

    def test_flaky_rpc_is_seed_deterministic(self):
        def run_once():
            world = two_site_world()
            a1, b1 = world.host("a1"), world.host("b1")
            got, errors = [], []
            b1.ports.bind(7000, lambda m, t: got.append(m.payload))
            world.inject(FaultPlan(seed=8).flaky_rpc(0.5, "b1", rate=0.5,
                                                     seed=8))

            def sender():
                from repro.simgrid.kernel import Timeout
                for i in range(30):
                    yield Timeout(0.1)
                    world.transport.send(a1, b1, 7000, i,
                                         on_fail=lambda e, i=i:
                                         errors.append(i))
            world.sim.spawn(sender())
            world.run(until=5.0)
            return got, errors
        first, second = run_once(), run_once()
        assert first == second

    def test_heal_clears_flaky_state(self):
        world = two_site_world()
        a1, b1 = world.host("a1"), world.host("b1")
        errors = []
        b1.ports.bind(7000, lambda m, t: None)
        world.inject(FaultPlan(seed=2)
                     .flaky_rpc(0.5, "b1", rate=1.0)
                     .heal(2.0))

        def sender():
            from repro.simgrid.kernel import Timeout
            for _ in range(10):
                yield Timeout(0.3)
                world.transport.send(a1, b1, 7000, "x",
                                     on_fail=errors.append)
        world.sim.spawn(sender())
        world.run(until=2.0)
        during = len(errors)
        assert during > 0
        world.run(until=6.0)
        assert len(errors) == during  # heal turned flaky off


# sha256 of FaultPlan.random(seed, ...).to_json(), pinned at the commit
# before the FaultKind table replaced the elif chain: the table must
# draw the same plans bit for bit, whichever gates are open
GOLDEN_HOSTS = ["a1", "a2", "b1", "gw", "dir"]
GOLDEN_LINKS = ["a1--sw-a", "a2--sw-a", "b1--sw-b", "sw-a--r1", "r1--sw-b"]
GOLDEN_GATES = {
    "base": {},
    "consumers+archives": dict(consumers=["b1"], archives=["arch"]),
    "storms": dict(storms=GOLDEN_HOSTS),
    "flaky": dict(flaky=["gw", "dir"]),
    "all": dict(consumers=["b1"], archives=["arch"], storms=GOLDEN_HOSTS,
                flaky=["gw", "dir"]),
}
GOLDEN_PLANS = {
    (0, "base"): "d2bc4af8f4208e9fc51a849c9c9a747875dbbba867e3c1c4becac83a6d2d9ec4",
    (0, "consumers+archives"): "73d5dbaeca4de1a56667432c1c8dc431f9de125488cd565ee4d248847a819020",
    (0, "storms"): "c7568f1b65e0b5df3fb527c658a28b15445ed850ddd5be50716845d9bf1c907d",
    (0, "flaky"): "1d07147418c0eb7f3bcf67a516888337e1b79a6bb4e179cb917ab560803ca2f2",
    (0, "all"): "b8cb7b6a4c6a13f56e4e009dd60ff289910a75e26fef17c8c28b43ba2a3a06b8",
    (5, "base"): "f97870a3c55f41b02bd3e3fb6671ae56a5969e4cef0cadf9553077dbc8198e6e",
    (5, "consumers+archives"): "2357c07008531663ced771938bcb99b61d8a6766694ed66d0892d8c9d750a058",
    (5, "storms"): "daa5def659af32c1826a7c11976f0022b0e687915b63855d5372d08a8c54f6d4",
    (5, "flaky"): "bd0e481728244a0ef33107442cd13e2386e3dec0d8b087ea10ec1173095ee098",
    (5, "all"): "e2c7f90a9a6bffb1c0df4ff27a22e5f645800397173758f8f25ef1b37a90054e",
    (15, "base"): "ecca3dd42e8b3770d77e49741504415b74c06e080f33bae21d986c3341943cc1",
    (15, "consumers+archives"): "bf92a3ecc036ca2a20769ac86035c42478b8bbd6b7851e5ad65e5788efd8d66d",
    (15, "storms"): "9c1605307c4ac2af4c04ea25922d8a3351798d1af9651a3b3c834f0008544a47",
    (15, "flaky"): "0f291e4552e18b4bd8c53d3fbbb0568e488bf97edfd6e6c55e5ed9bd2c3ce3e5",
    (15, "all"): "c4279b27bd3e9f72b537c952cffe2ce77165586e19eb5b2b9d1be3f39a515cb8",
    (17, "base"): "af2e44f01cb3132e6d81d3c82f1a0ec0ed69bb7c1b4c344a3ca600b2e806580f",
    (17, "consumers+archives"): "cd5acc85ea73796b24fc3f1bc04f7237151347e1df20fc544bb12a48631e1d5e",
    (17, "storms"): "3c5fec1b59139986a7ac926a8fb791c356fcae6518bb1ed94ba52a0160f32746",
    (17, "flaky"): "fe6668f7da4116aa5b9d0ae427d532e1101bf858635e555011ddd53d6f1800db",
    (17, "all"): "6d86d305890ef8563d20a80a966dc2bcc71f91fdb6efa6667886aa86252ce572",
    (99, "base"): "607dd70712719edbc042caec4e4bd424326debb5f113d98865211ace99d83391",
    (99, "consumers+archives"): "c1f37289a48dbf6c986d3ed5291cc1e737622afbdd7f6daeb65723cec4a2ebd5",
    (99, "storms"): "df1133d8a69f88fd8797de86367bfdd0e9bd1c5e2d9642ab92664d993790a6e8",
    (99, "flaky"): "6a0fb7553b406f51f02d737a0a12b9ff49a5cd41a36e7dde5235484c020e1802",
    (99, "all"): "ff2d37e3edeac06d6e3fca76e5121b22464b4cac5b50a66e84ab35967b6626a4",
    (4002, "base"): "3a748b4f3094cbd63e40c6789e4eb67705576cf3468f7317d83d64c36a47f0ee",
    (4002, "consumers+archives"): "e32466c782f253414a12cb6ec088172e81fc617fb4159bff0baf178f65aeb9d3",
    (4002, "storms"): "cc6ec542185e0024c142a94ce49daf4f27ecb73444bd437e08f58541419e9b3c",
    (4002, "flaky"): "2bcd95916c66b9c5ac814ce039821316b1da7d283a5b02e6870c6fcc929225ef",
    (4002, "all"): "e1242d07455482ab372ee2a95c4dfe07cc08c0645bac9c3bfc63677de40e1eb0",
}


@pytest.mark.parametrize("seed,gates", sorted(GOLDEN_PLANS))
def test_random_plan_matches_pinned_hash(seed, gates):
    import hashlib
    plan = FaultPlan.random(seed, hosts=GOLDEN_HOSTS, links=GOLDEN_LINKS,
                            n_steps=120, horizon=60.0, protect=["b1"],
                            **GOLDEN_GATES[gates])
    assert hashlib.sha256(plan.to_json().encode()).hexdigest() == \
        GOLDEN_PLANS[(seed, gates)]


# ---------------------------------------------------------------------------
# the FaultKind table, driven row by row
# ---------------------------------------------------------------------------

ROWS = sorted(FAULT_TABLE.values(), key=lambda row: row.name)
ROW_IDS = [row.name for row in ROWS]
HORIZON = 60.0

#: a valid target of each target type in table_world()
TARGET = {"host": "a1", "link": "sw-a--r1", "archive": "arch",
          "groups": "a1,a2|b1", "pair": "a1|b1", "none": ""}
#: a value for params the schema gives no usable default
VALUE = {"loss_rate": 0.5, "factor": 2.0, "rate_bps": 1e6, "rate": 0.5,
         "budget_bytes": 10**9, "index": 1}   # roomy: shedding is final
#: drawn kinds the always-recovering rule lets off: supervision restarts
#: a killed process, and a skewed clock harms nothing the plan must undo
NEEDS_NO_RECOVERY = {"process_kill", "clock_skew"}


def sample_event(row, at=1.0):
    """A valid fault-form event of ``row``'s kind for table_world()."""
    params = {}
    for name, spec in row.params.items():
        if spec.allowed:
            params[name] = spec.allowed[0]
        elif name in VALUE:
            params[name] = VALUE[name]
    return FaultEvent(at, row.name, TARGET[row.target], params)


def table_world():
    """two_site_world() plus one of everything a kind can act on: a
    supervised sensor on a1, a segmented archive "arch", and a gateway
    on b1 with a remote subscription delivering to a1."""
    from repro.core import JAMMConfig, JAMMDeployment
    from repro.core.subscriptions import Delivery, SubscriptionSpec
    world = two_site_world()
    jamm = JAMMDeployment(world)
    gw = jamm.add_gateway("gw", host=world.host("b1"))
    config = JAMMConfig()
    config.add_sensor("cpu", "cpu", period=0.5)
    manager = jamm.add_manager(world.host("a1"), config=config, gateway=gw)
    manager.supervision_interval = 1000.0   # nothing heals but the ledger
    sensor = manager.sensors["cpu"]
    archive = TestFaultInjector._segmented_archive(world)
    world.host("a1").ports.bind(7100, lambda m, _t: None)
    sub = gw.open(SubscriptionSpec(
        sensor.name, delivery=Delivery.remote(world.host("a1"), 7100)))

    def observable():
        return {
            "links": [(l.name, l.up, l.loss_state(), l.latency_s)
                      for l in world.network.links()],
            "sensor": sensor.degrade_mode,
            "archive": (archive.byte_budget, archive.degraded,
                        archive.compaction_stalled,
                        archive.io_latency_factor,
                        len(archive.query(event="E"))),
            "traffic": len(world.traffic),
            "flaky": sorted(world.transport._flaky_hosts),
            "drain_rate": sub.stats()["drain_rate"],
        }
    return world, observable


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
class TestFaultTable:
    def test_json_round_trip(self, row):
        plan = FaultPlan([sample_event(row)], seed=3)
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.to_dict() == plan.to_dict()
        assert clone.events[0] == plan.events[0]

    def test_unknown_target_rejected_at_arm(self, row):
        if row.target == "none":
            pytest.skip("kind takes no target")
        world, _ = table_world()
        ghost = {"pair": "a1|ghost", "groups": "a1,ghost"}.get(
            row.target, "ghost")
        event = FaultEvent(1.0, row.name, ghost, sample_event(row).params)
        with pytest.raises(FaultError):
            world.inject(FaultPlan([event]))
        assert world.sim.now == 0.0 and not world.host("a1").crashes

    def test_bad_params_rejected_at_arm(self, row):
        good = sample_event(row)
        bad = [dict(good.params, bogus=1)]             # unknown name
        for name, spec in row.params.items():
            if spec.default is REQUIRED:               # missing
                bad.append({k: v for k, v in good.params.items()
                            if k != name})
            if spec.allowed or spec.coerce is not str:  # ill-typed / enum
                bad.append(dict(good.params, **{name: "bogus"}))
        for params in bad:
            world, _ = table_world()
            event = FaultEvent(1.0, row.name, good.target, params)
            with pytest.raises(FaultError):
                world.inject(FaultPlan([event]))

    def test_heal_all_empties_the_ledger_and_restores_the_world(self, row):
        world, observable = table_world()
        world.run(until=0.9)
        pristine = observable()
        injector = world.inject(FaultPlan([sample_event(row)]))
        world.run(until=1.5)
        assert [e.kind for _t, e in injector.applied] == [row.name]
        # a kind leaves an undo behind exactly when something other
        # than a host restart is what recovers it
        holds = row.recovery not in ("", "host_restart")
        assert bool(injector.active) == holds, injector.active
        if holds:
            assert observable() != pristine
        injector.heal_all()
        assert injector.active == {}
        if holds:
            assert observable() == pristine

    def test_draw_emits_its_recovery_inside_the_horizon(self, row):
        if row.draw is None:
            assert not row.gate, "a gate with nothing to open"
            return
        if not row.recovery:
            assert row.name in NEEDS_NO_RECOVERY
            return
        assert row.recovery in FAULT_TABLE
        restore_param = next(iter(row.params), None)

        def is_fault(e):
            return e.kind == row.name and (
                row.recovery != row.name
                or e.params.get(restore_param) is not None)

        def recovers(fault, e):
            if e.kind != row.recovery or not fault.at <= e.at <= HORIZON:
                return False
            if row.recovery == row.name:     # the restore form
                return e.target == fault.target and not is_fault(e)
            return e.target in ("", fault.target)

        drawn = 0
        for seed in range(8):
            plan = FaultPlan.random(
                seed, hosts=GOLDEN_HOSTS, links=GOLDEN_LINKS, n_steps=300,
                horizon=HORIZON, **GOLDEN_GATES["all"])
            for fault in filter(is_fault, plan):
                drawn += 1
                assert any(recovers(fault, e) for e in plan), \
                    f"seed {seed}: {fault} never recovers"
        assert drawn, "gates open yet the kind was never drawn"


def test_fault_kinds_is_the_table():
    from repro.simgrid import FAULT_KINDS
    assert FAULT_KINDS == tuple(FAULT_TABLE)
    assert all(name == row.name for name, row in FAULT_TABLE.items())


def test_heal_all_runs_table_order_then_insertion_order():
    injector = two_site_world().inject(FaultPlan())
    ran = []
    for key in [("flaky_rpc", "b"), ("link_down", "z"), ("flaky_rpc", "a"),
                ("sensor_degrade", "h/s"), ("link_down", "y")]:
        injector.hold(*key, lambda key=key: ran.append(key))
    injector.heal_all()
    assert ran == [("link_down", "z"), ("link_down", "y"),
                   ("sensor_degrade", "h/s"),
                   ("flaky_rpc", "b"), ("flaky_rpc", "a")]
    assert injector.active == {}


def test_docs_list_exactly_the_fault_kinds():
    """docs/FAULTS.md's kind table has one line per FAULT_TABLE row —
    no kind undocumented, no documented kind the table rejects."""
    import re
    from pathlib import Path
    text = (Path(__file__).parents[2] / "docs" / "FAULTS.md").read_text()
    table = text[text.index("| kind | target |"):]
    table = table[:table.index("\n\n")]
    documented = re.findall(r"^\| `(\w+)` \|", table, flags=re.M)
    assert documented == list(FAULT_TABLE)
