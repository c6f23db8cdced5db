#!/usr/bin/env python
"""Soak the fault-scenario invariants over many random seeds.

Runs N random fault scenarios (200-step plans by default) and dumps
every invariant-violating plan to ``tests/scenarios/corpus/`` as JSON,
where ``tests/scenarios/test_corpus.py`` replays it forever after.

Usage::

    python scripts/soak.py --runs 100
    python scripts/soak.py --runs 50 --steps 300 --start-seed 1000
    python scripts/soak.py --runs 20 --horizon 90 --keep-passing-digests
    python scripts/soak.py --runs 100 --retention-bytes 64000 \\
        --segment-events 32 --compaction-interval 1.0

The storage knobs shape the commit log under test: random plans draw
the storage fault kinds (compaction_stall / torn_segment / slow_disk /
disk_full) against it, and tight retention budgets plus small segments
put the compactor on the critical path, so the retention-scoped loss,
accounting, and rollup-consistency invariants soak under pressure.

Exit status is the number of failing seeds (0 = clean soak).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.scenarios import Scenario, run_scenario  # noqa: E402

CORPUS = ROOT / "tests" / "scenarios" / "corpus"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=25,
                        help="number of seeds to soak (default 25)")
    parser.add_argument("--start-seed", type=int, default=0,
                        help="first seed (seeds are sequential from here)")
    parser.add_argument("--steps", type=int, default=200,
                        help="fault-plan length per scenario")
    parser.add_argument("--horizon", type=float, default=60.0)
    parser.add_argument("--drain", type=float, default=20.0)
    parser.add_argument("--hosts", type=int, default=3,
                        help="sensor hosts in the scenario world")
    parser.add_argument("--keep-passing-digests", action="store_true",
                        help="print each passing run's digest (for "
                             "cross-machine determinism spot checks)")
    parser.add_argument("--storms", action="store_true",
                        help="let random plans raise congestion storms "
                             "(background traffic contending for the "
                             "shared links)")
    parser.add_argument("--flaky", action="store_true",
                        help="let random plans draw flaky_rpc events "
                             "(transient sender-visible RPC failures "
                             "against the directory and gateway — the "
                             "retry-storm ingredient)")
    storage = parser.add_argument_group(
        "storage", "commit-log shape: segments, retention, compaction")
    storage.add_argument("--segment-events", type=_positive_int, default=64,
                         help="seal a segment every N admissions "
                              "(default 64; must be >= 1)")
    storage.add_argument("--retention-bytes", type=int, default=None,
                         help="byte budget for the commit log (retention "
                              "pressure + disk_full degradation)")
    storage.add_argument("--retention-age", type=float, default=None,
                         help="retire sealed segments older than this "
                              "many sim-seconds")
    storage.add_argument("--downsample-after", type=float, default=None,
                         help="drop raw events (keep rollups) for "
                              "segments older than this many sim-seconds")
    storage.add_argument("--compaction-interval", type=float, default=2.0,
                         help="compactor pass cadence in sim-seconds "
                              "(default 2.0)")
    args = parser.parse_args(argv)

    failures = 0
    total_events = 0
    total_wall = 0.0
    #: aggregated dynamic-sanitizer counters across all runs (scenarios
    #: run under the sanitizer by default; a violation fails the seed)
    san_totals: dict[str, int] = {}
    t_start = time.time()
    for seed in range(args.start_seed, args.start_seed + args.runs):
        scenario = Scenario(name=f"soak-{seed}", seed=seed,
                            horizon=args.horizon, drain=args.drain,
                            n_sensor_hosts=args.hosts,
                            random_steps=args.steps,
                            archive_segment_events=args.segment_events,
                            archive_retention_bytes=args.retention_bytes,
                            archive_retention_age=args.retention_age,
                            archive_downsample_after=args.downsample_after,
                            compaction_interval=args.compaction_interval,
                            storms=args.storms, flaky=args.flaky)
        result = run_scenario(scenario)
        perf = result.stats.get("perf") or {}
        total_events += perf.get("events", 0)
        total_wall += perf.get("wall_s", 0.0)
        for key, value in (result.stats.get("sanitizer") or {}).items():
            san_totals[key] = san_totals.get(key, 0) + value
        if result.ok:
            extra = f" digest={result.digest()[:16]}" \
                if args.keep_passing_digests else ""
            print(f"seed {seed:>6}: ok  committed={len(result.committed):>4}"
                  f"  {perf.get('events', 0):>6} ev in "
                  f"{perf.get('wall_s', 0.0):6.3f}s "
                  f"({perf.get('events_per_s', 0.0):>9,.0f} ev/s){extra}")
            continue
        failures += 1
        CORPUS.mkdir(parents=True, exist_ok=True)
        dump = CORPUS / f"plan_seed{seed}.json"
        dump.write_text(json.dumps({
            "scenario": {"seed": seed, "horizon": args.horizon,
                         "drain": args.drain,
                         "n_sensor_hosts": args.hosts,
                         "random_steps": args.steps,
                         "archive_segment_events": args.segment_events,
                         "archive_retention_bytes": args.retention_bytes,
                         "archive_retention_age": args.retention_age,
                         "archive_downsample_after": args.downsample_after,
                         "compaction_interval": args.compaction_interval,
                         "storms": args.storms, "flaky": args.flaky},
            "plan": result.plan.to_dict(),
            "violations": result.violations,
        }, indent=2, sort_keys=True) + "\n")
        print(f"seed {seed:>6}: FAIL -> {dump.relative_to(ROOT)}")
        for violation in result.violations:
            print(f"    {violation}")

    elapsed = time.time() - t_start
    rate = total_events / total_wall if total_wall > 0 else 0.0
    print(f"\n{args.runs} scenario(s) in {elapsed:.1f}s, "
          f"{failures} failure(s); {total_events:,} simulated events "
          f"at {rate:,.0f} ev/s inside the runs")
    if san_totals:
        print("sanitizer: " + "  ".join(
            f"{key}={san_totals[key]}" for key in sorted(san_totals)))
    if failures:
        print("failing plans dumped to tests/scenarios/corpus/ — "
              "replayed by tests/scenarios/test_corpus.py")
    return failures


if __name__ == "__main__":
    sys.exit(main())
