"""Determinism audit: same seed ⇒ bit-identical fault scenario.

The whole fault layer is useless for debugging if a failing schedule
cannot be replayed exactly.  One mixed-fault scenario (every fault kind
at least once) runs twice with the same seed; the archive contents must
be byte-identical and the per-stream delivery records identical,
ordering included.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.scenarios import Scenario, run_scenario
from repro.simgrid import FaultPlan


def _mixed_plan(seed: int) -> FaultPlan:
    return (FaultPlan(seed=seed)
            .kill_process(4.0, "s0.siteA")
            .link_loss(6.0, "siteA-sw--wan-r1", 0.1)
            .crash_host(8.0, "gw.siteA")
            .skew_clock(9.0, "s1.siteA", offset=-0.25, drift=5e-5)
            .restart_host(14.0, "gw.siteA")
            .partition(18.0, ["s0.siteA", "s1.siteA", "s2.siteA",
                              "gw.siteA", "dir.siteA"],
                       ["consumer.siteB", "dir.siteB"])
            .heal(24.0)
            .crash_host(26.0, "dir.siteA")
            .link_latency(28.0, "wan-r1--siteB-sw", 8.0)
            .restart_host(34.0, "dir.siteA")
            .heal(36.0))


def _run(seed: int):
    return run_scenario(Scenario(name="determinism-audit", seed=seed,
                                 plan=_mixed_plan(seed),
                                 horizon=42.0, drain=16.0))


def test_same_seed_is_bit_reproducible():
    first = _run(11)
    second = _run(11)
    first.check()
    second.check()
    assert first.archive_bytes == second.archive_bytes, \
        "same-seed runs produced different archive bytes"
    assert first.received == second.received, \
        "same-seed runs delivered events in different order"
    assert first.directory_trees == second.directory_trees
    assert first.digest() == second.digest()


def test_different_seeds_diverge():
    """The digest actually discriminates (no vacuous equality)."""
    a = run_scenario(Scenario(name="d", seed=5, horizon=30.0, drain=12.0,
                              random_steps=60))
    b = run_scenario(Scenario(name="d", seed=6, horizon=30.0, drain=12.0,
                              random_steps=60))
    assert a.digest() != b.digest()


def test_random_plan_generation_is_pure():
    """FaultPlan.random depends only on its inputs."""
    hosts = ["a", "b", "c"]
    links = ["a--sw", "b--sw", "c--sw"]
    p1 = FaultPlan.random(42, hosts=hosts, links=links, n_steps=200)
    p2 = FaultPlan.random(42, hosts=list(reversed(hosts)),
                          links=list(reversed(links)), n_steps=200)
    assert p1.to_dict() == p2.to_dict()
    assert FaultPlan.from_json(p1.to_json()).to_dict() == p1.to_dict()


# digests pinned at the commit before the FaultKind table and the undo
# ledger landed: random plans through the whole stack, the third with
# storms, flaky RPCs and the resilience layer on
GOLDEN_SCENARIOS = [
    (dict(name="golden-a", seed=3, horizon=30.0, drain=12.0,
          random_steps=40),
     "0565cd519a33b95bdd56f50a1792903a65a4bf700d27bc0115a9ee4e2a49c43f"),
    (dict(name="golden-b", seed=21, horizon=30.0, drain=12.0,
          random_steps=60, n_sensor_hosts=2),
     "b77e92d72764598185b310ef6b98723377fa8af8ef87aec3b5d40bda48e70247"),
    (dict(name="golden-c", seed=8, horizon=30.0, drain=12.0,
          random_steps=60, storms=True, flaky=True, resilience=True),
     "abd6fc12ec63526f727f393737a5399311de9e99f37b1bc3e56410907a78f2dc"),
]


@pytest.mark.parametrize("knobs,digest", GOLDEN_SCENARIOS,
                         ids=[k["name"] for k, _ in GOLDEN_SCENARIOS])
def test_random_scenario_matches_pinned_digest(knobs, digest):
    result = run_scenario(Scenario(**knobs))
    result.check()
    assert result.digest() == digest


def test_the_rerun_line_rebuilds_the_scenario_it_came_from():
    """``repro_line()`` printed six fields, so the "rerun:" line of a
    storm / flaky / retention / backpressure failure rebuilt a
    different (quieter) scenario.  It now prints the scenario document,
    explicit plan included."""
    from repro.scenarios.runner import ScenarioResult
    plan = FaultPlan(seed=15).crash_host(4.0, "gw.siteA").heal(9.0)
    scenario = Scenario(
        name="rerun", seed=15, plan=plan, n_sensor_hosts=2,
        horizon=30.0, storms=True, flaky=True, resilience=True,
        outbox_limit=8, sanitize=False,
        archive_retention_age=30.0, archive_retention_bytes=1 << 20,
        archive_downsample_after=15.0, compaction_interval=None)
    line = ScenarioResult(scenario=scenario, plan=plan).repro_line()
    opener = "run_scenario(Scenario.from_json('"
    printed = line[line.index(opener) + len(opener):line.rindex("')))")]
    rebuilt = Scenario.from_json(printed)
    assert rebuilt.plan.to_dict() == plan.to_dict()
    assert replace(rebuilt, plan=None) == replace(scenario, plan=None)
    # and nothing that still has its default value is spelled out
    assert "drain" not in printed and "sensor_period" not in printed
