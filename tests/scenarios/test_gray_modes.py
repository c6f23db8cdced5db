"""Acceptance scenarios for gray failures.

Each test injects one lossy-but-alive fault — a component that keeps
answering health checks while misbehaving — and proves the detection
loop closes on observable signals alone: sample-quality supervision
restarts a degraded sensor, asymmetric partitions never reap a live
consumer, a slow consumer's queue stays bounded with every drop
accounted and recovered by replay, and a disk-full archive serves
reads degraded until the budget lifts.
"""

from __future__ import annotations

from repro.scenarios import (Scenario, ScenarioRunner,
                             check_bounded_queues, run_scenario)
from repro.simgrid import FaultPlan


class TestLossySensor:
    def test_partial_degrade_restarted_by_quality_supervision(self):
        """A sensor whose samples silently vanish keeps heartbeating —
        only sample-quality supervision can tell, and its restart cures
        the degradation (no restore event in the plan)."""
        plan = (FaultPlan(seed=21)
                .degrade_sensor(8.0, "s0.siteA", mode="partial", rate=1.0))
        result = run_scenario(Scenario(name="lossy-sensor", seed=21,
                                       plan=plan, horizon=30.0, drain=10.0))
        result.check()
        quality = result.stats["quality_restarts"]
        assert sum(quality.values()) >= 1
        assert quality.get("s0.siteA", 0) >= 1
        # the stream resumed: seqs committed well past the degrade point
        s0_committed = [seq for stream, seq in result.committed
                        if "s0.siteA" in stream]
        assert max(s0_committed) > 8.0 / 0.5 + 10  # emitted after restart

    def test_corrupt_degrade_detected_and_not_recorded_as_data(self):
        """Corrupt samples (fields stripped) trip quality supervision
        too, and the consumer counts them malformed instead of letting
        fabricated ids poison the stream invariants."""
        plan = (FaultPlan(seed=22)
                .degrade_sensor(8.0, "s1.siteA", mode="corrupt", rate=1.0))
        runner = ScenarioRunner(Scenario(name="corrupt-sensor", seed=22,
                                         plan=plan, horizon=30.0,
                                         drain=10.0))
        result = runner.run()
        result.check()
        assert sum(result.stats["quality_restarts"].values()) >= 1
        assert result.stats["malformed"] > 0


class TestAsymmetricPartition:
    def test_live_consumer_never_reaped_and_nothing_lost(self):
        """gateway->consumer traffic blackholes silently (no send
        failures!), so the reaper has nothing to count — and must not
        invent anything.  Replay recovers the window after heal."""
        site_a = ["s0.siteA", "s1.siteA", "s2.siteA", "gw.siteA",
                  "dir.siteA"]
        site_b = ["consumer.siteB", "dir.siteB"]
        plan = (FaultPlan(seed=23)
                .asymmetric_partition(10.0, site_a, site_b)
                .heal(20.0))
        runner = ScenarioRunner(Scenario(name="asym-partition", seed=23,
                                         plan=plan, horizon=40.0,
                                         drain=15.0))
        result = runner.run()
        result.check()
        # messages really were lost in flight — silently
        assert result.stats["transport"]["messages_lost"] > 0
        # ...but no reap and no resubscribe: the consumer stayed live
        assert runner.deployment.gateways["gw0"].subs_reaped == 0
        assert result.stats["session"]["resubscribes"] == 0
        # the lost window arrived via replay, so nothing committed is gone
        channels = {c for recs in result.received.values()
                    for _s, c in recs}
        assert "replay" in channels
        assert result.committed <= result.received_set


class TestSlowConsumer:
    def test_bounded_queue_accounted_drops_replay_recovery(self):
        """Throttle the consumer's drain far below the event rate: the
        outbox must cap at its limit, shed with accounting, and the
        auto-heal replay must deliver every dropped-but-committed event
        once the throttle lifts — dropped, not lost; replayed, not
        resurrected twice (check() would flag duplicates)."""
        plan = (FaultPlan(seed=24)
                .slow_consumer(5.0, "consumer.siteB", rate=0.5)
                .restore_consumer(25.0, "consumer.siteB"))
        result = run_scenario(Scenario(
            name="slow-consumer", seed=24, plan=plan, horizon=40.0,
            drain=15.0, outbox_limit=16))
        result.check()                      # incl. check_bounded_queues
        gw = result.stats["gateway"]["gw0"]
        assert gw["events_shed"] > 0        # the throttle really bit
        assert result.stats["backpressure"]["dropped"] == gw["events_shed"]
        assert gw["outbox_peak"] <= 16
        assert gw["outbox_limit_max"] == 16
        # everything drained by the end; drops came back via replay
        assert result.stats["backpressure"]["queued"] == 0
        assert result.stats["session"]["replayed"] > 0
        assert check_bounded_queues(result) == []
        assert result.committed <= result.received_set


class TestDiskFull:
    def test_archive_serves_reads_degraded_then_heals(self):
        plan = (FaultPlan(seed=25)
                .disk_full(10.0, "commit-log", 2_000)
                .restore_disk(20.0, "commit-log"))
        runner = ScenarioRunner(Scenario(name="disk-full", seed=25,
                                         plan=plan, horizon=40.0,
                                         drain=15.0))
        runner.build()
        probes = {}

        def probe_degraded():
            archive = runner.archive
            probes["degraded"] = archive.degraded
            probes["readable"] = len(archive.query(t0=0.0)) > 0
            probes["catalog"] = archive.stats()["degraded"]

        runner.world.sim.call_at(15.0, probe_degraded)
        result = runner.run()
        result.check()
        # mid-window: read-only degraded mode, reads still served
        assert probes == {"degraded": True, "readable": True,
                          "catalog": True}
        # shedding and refusal were both accounted, never silent
        final = result.stats["archive"]
        assert final["shed"] > 0
        assert final["dropped_degraded"] > 0
        # healed: budget lifted, appends resumed, committed set grew on
        assert final["degraded"] is False
        assert final["byte_budget"] is None
        late = [seq for _stream, seq in result.committed]
        assert max(late) > 20.0 / 0.5       # commits after the heal


class TestForcedHeal:
    def test_unsteadied_flaky_rpc_is_healed_at_the_horizon(self):
        """A hand-built plan that turns the gateway host flaky and never
        steadies it: the runner's forced heal must clear it like any
        other residual fault, or RPCs keep failing through drain and
        flush."""
        horizon = 20.0
        plan = FaultPlan(seed=31).flaky_rpc(6.0, "gw.siteA", rate=0.9,
                                            seed=31)
        runner = ScenarioRunner(Scenario(name="flaky-no-steady", seed=31,
                                         plan=plan, horizon=horizon,
                                         drain=10.0))
        runner.build()
        transport = runner.world.transport
        failed_at_heal = []
        runner.world.sim.call_at(
            horizon + 1e-3,
            lambda: failed_at_heal.append(transport.messages_flaky_failed))
        result = runner.run()
        result.check()
        assert failed_at_heal[0] > 0, "the fault never bit"
        assert transport.messages_flaky_failed == failed_at_heal[0]
        assert runner.injector.active == {}
