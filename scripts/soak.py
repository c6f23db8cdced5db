#!/usr/bin/env python
"""Soak the fault-scenario invariants over many random seeds.

Runs one scenario document over N sequential seeds and dumps every
invariant-violating run to ``tests/scenarios/corpus/`` as JSON, where
``tests/scenarios/test_corpus.py`` replays it forever after.

A scenario document is ``Scenario.to_dict()`` from ``repro.scenarios``:
a JSON object of the fields off their defaults.  The soak file holds
one without ``name`` and ``seed``; each run is named ``soak-<seed>``
and seeded with its seed.  Without ``--scenario`` the document is
``{"random_steps": 200}``: 200-step random plans in the default world.
The nightly rows are the documents in ``scripts/soak/`` (storage
pressure, congestion storms, retry storms).

Usage::

    python scripts/soak.py --runs 100
    python scripts/soak.py --runs 100 --start-seed 2000 \\
        --scenario scripts/soak/storage-budget.json
    python scripts/soak.py --runs 20 --keep-passing-digests \\
        --scenario scripts/soak/retry-storms.json

A failing seed writes ``plan_seed<seed>.json``:
``{"scenario": <its document, drawn plan included>, "violations": [...]}``.

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
#: the document a soak runs without ``--scenario``
DEFAULT_DOCUMENT = {"random_steps": 200}


def seeded(doc: dict, seed: int) -> Scenario:
    """The scenario the soak runs for one seed of a document."""
    return Scenario.from_dict({**doc, "name": f"soak-{seed}", "seed": seed})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scenario", type=pathlib.Path,
                        help="scenario document (JSON, without name and "
                             "seed; default: random_steps 200)")
    parser.add_argument("--runs", type=int, default=25,
                        help="number of seeds to soak (default 25)")
    parser.add_argument("--start-seed", type=int, default=0,
                        help="first seed (seeds are sequential from here)")
    parser.add_argument("--keep-passing-digests", action="store_true",
                        help="print each passing run's digest (for "
                             "cross-machine determinism spot checks)")
    args = parser.parse_args(argv)
    doc = json.loads(args.scenario.read_text()) if args.scenario \
        else DEFAULT_DOCUMENT
    if {"name", "seed"} & doc.keys():
        parser.error(f"{args.scenario}: the soak names and seeds each run")

    failures = 0
    total_events = 0
    total_wall = 0.0
    #: aggregated dynamic-sanitizer counters across all runs (scenarios
    #: run under the sanitizer by default; a violation fails the seed)
    san_totals: dict[str, int] = {}
    t_start = time.time()
    for seed in range(args.start_seed, args.start_seed + args.runs):
        scenario = seeded(doc, seed)
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
        # pin the drawn plan, so the corpus replays exactly what ran
        scenario.plan = result.plan
        CORPUS.mkdir(parents=True, exist_ok=True)
        dump = CORPUS / f"plan_seed{seed}.json"
        dump.write_text(json.dumps({
            "scenario": scenario.to_dict(),
            "violations": result.violations,
        }, indent=2, sort_keys=True) + "\n")
        print(f"seed {seed:>6}: FAIL -> {dump}")
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
        print("failing scenarios dumped to tests/scenarios/corpus/ — "
              "replayed by tests/scenarios/test_corpus.py")
    return failures


if __name__ == "__main__":
    sys.exit(main())
