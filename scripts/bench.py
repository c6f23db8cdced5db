#!/usr/bin/env python
"""Microbenchmark harness for the layers ``BENCHMARK.json`` cannot see.

The repository's perf contract is the end-to-end benchmark
(``BENCHMARK.json`` + ``benchmarks/e2e/``).  This harness keeps only the
microbenchmarks in ``benchmarks/perf`` whose layer no end-to-end
workload drives at rate — ULM text codec, gateway summary ingest,
directory search, sim kernel dispatch — and writes the results to a
``BENCH_*.json`` file so successive PRs leave a comparable perf
trajectory.  Gateway fan-out, archive queries and whole-scenario
throughput are measured end to end, not here; PERFORMANCE.md says
which number answers which question.

Usage::

    PYTHONPATH=src python scripts/bench.py            # full run
    PYTHONPATH=src python scripts/bench.py --quick    # CI smoke mode
    PYTHONPATH=src python scripts/bench.py --only directory_search
    PYTHONPATH=src python scripts/bench.py --out path/to/file.json

``--only <section>`` (repeatable, or comma-separated) re-measures just
the named sections; the other sections are carried forward unchanged
from the existing output file, so the document stays complete.  Every
section carries its own ``measured_unix``, so a carried-forward one
keeps the stamp of the run that measured it.

The JSON schema is ``repro-bench/5`` — exactly the four sections above;
see PERFORMANCE.md for the field list.  Rates are items (messages,
samples, searches, events) per second, best of N repeats; ``seed_*``
rates time the seed-equivalent reference implementations in
``benchmarks/perf/baseline.py`` and ``speedup_*`` is current/seed.
``--quick`` shrinks workloads to smoke-test the harness itself — its
timings are not comparable measurements.

Re-running against an existing output file *appends* rather than
forgets: the previous run's headline rates are folded into a
``history`` list (oldest first), so ``BENCH_event_path.json`` carries
the perf trajectory across PRs, not just the latest point.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SCHEMA = "repro-bench/5"

#: section name -> benchmarks.perf module name, in run order
SECTIONS = {
    "ulm_codec": "codec_bench",
    "summary_ingest": "summary_bench",
    "directory_search": "directory_bench",
    "sim_kernel": "kernel_bench",
}


def _headline(doc: dict) -> dict:
    """The compact per-run record kept in the history list."""
    benches = doc.get("benchmarks", {})
    codec = benches.get("ulm_codec", {})
    summary = benches.get("summary_ingest", {})
    directory = benches.get("directory_search", {}).get("indexed_eq", {})
    kernel = benches.get("sim_kernel", {}).get("immediate_dispatch", {})
    return {
        "generated_unix": doc.get("generated_unix"),
        "quick": doc.get("quick"),
        "parse_msgs_per_s": codec.get("parse_msgs_per_s"),
        "serialize_msgs_per_s": codec.get("serialize_msgs_per_s"),
        "summary_samples_per_s": summary.get("samples_per_s"),
        "directory_searches_per_s": directory.get("searches_per_s"),
        "kernel_dispatch_events_per_s": kernel.get("events_per_s"),
    }


def _load_previous(out: Path) -> dict:
    try:
        previous = json.loads(out.read_text())
    except (OSError, ValueError):
        return {}
    if not isinstance(previous, dict) or "benchmarks" not in previous:
        return {}
    return previous


def _report(results: dict) -> None:
    if "ulm_codec" in results:
        codec = results["ulm_codec"]
        print(f"[bench] codec: parse {codec['parse_msgs_per_s']:,.0f}/s "
              f"({codec['speedup_parse']:.1f}x seed), serialize "
              f"{codec['serialize_msgs_per_s']:,.0f}/s "
              f"({codec['speedup_serialize']:.1f}x seed)")
    if "summary_ingest" in results:
        summary = results["summary_ingest"]
        print(f"[bench] summary ingest: {summary['samples_per_s']:,.0f} "
              f"samples/s ({summary['speedup']:.1f}x seed)")
    if "directory_search" in results:
        for key in ("indexed_eq", "full_scan_fallback"):
            row = results["directory_search"][key]
            print(f"[bench] directory {key}: "
                  f"{row['searches_per_s']:,.0f} searches/s "
                  f"({row['speedup']:.1f}x seed)")
    if "sim_kernel" in results:
        for key in ("immediate_dispatch", "flag_wakeups", "timer_churn",
                    "cancel_churn"):
            row = results["sim_kernel"][key]
            print(f"[bench] kernel {key}: {row['events_per_s']:,.0f} "
                  f"ev/s ({row['speedup']:.1f}x seed)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="tiny workloads: verify the harness runs, "
                             "not the timings")
    parser.add_argument("--only", action="append", default=None,
                        metavar="SECTION",
                        help="re-measure only this section (repeatable or "
                             f"comma-separated); one of: "
                             f"{', '.join(SECTIONS)}.  Other sections are "
                             "carried forward from the existing output file")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_event_path.json",
                        help="output JSON path (default: "
                             "BENCH_event_path.json at the repo root)")
    args = parser.parse_args(argv)
    # fail on an unwritable destination now, not after minutes of timing
    args.out.parent.mkdir(parents=True, exist_ok=True)

    selected = list(SECTIONS)
    if args.only:
        selected = [name for spec in args.only for name in spec.split(",")
                    if name]
        unknown = [name for name in selected if name not in SECTIONS]
        if unknown:
            parser.error(f"unknown section(s) {', '.join(unknown)}; "
                         f"choose from {', '.join(SECTIONS)}")

    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(REPO_ROOT))
    import importlib

    previous = _load_previous(args.out)
    if args.only and not previous:
        # without a document to carry the other sections forward from,
        # --only would silently write a partial (schema-breaking) file
        parser.error(f"--only needs an existing benchmark document at "
                     f"{args.out} to carry the other sections forward; "
                     "run a full benchmark first")
    if args.only and previous and bool(previous.get("quick")) != args.quick:
        # carried-forward sections would silently mix quick (smoke-mode)
        # and full (real) timings inside one document
        parser.error(
            f"--only would merge a {'quick' if args.quick else 'full'} run "
            f"into {args.out}, which holds a "
            f"{'quick' if previous.get('quick') else 'full'} run; re-run "
            "without --only (or point --out elsewhere)")
    history = list(previous.get("history", []))
    if previous:
        history.append(_headline(previous))

    results = {name: section for name, section
               in previous.get("benchmarks", {}).items()
               if name in SECTIONS and name not in selected}
    for name in SECTIONS:
        if name not in selected:
            continue
        module = importlib.import_module(f"benchmarks.perf.{SECTIONS[name]}")
        print(f"[bench] {name} ({'quick' if args.quick else 'full'}) ...",
              flush=True)
        # stamped per section: a later --only run carries this one
        # forward with the day it was measured, not the day it was copied
        results[name] = {**module.run(quick=args.quick),
                         "measured_unix": int(time.time())}

    doc = {
        "schema": SCHEMA,
        "name": "event_path",
        "quick": args.quick,
        "only": sorted(selected) if args.only else None,
        "generated_unix": int(time.time()),
        "benchmarks": results,
        "history": history,
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    _report({name: results[name] for name in selected if name in results})
    print(f"[bench] wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
