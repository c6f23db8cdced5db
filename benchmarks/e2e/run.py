"""The end-to-end benchmark's one command.

Driver form (the contract in ``BENCHMARK.json``)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

runs workload ``W`` in this process — set-up, run phase, output check —
over and over on the inputs seed ``N`` generates until ``S`` seconds
have passed, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` (tracing off), the per-layer ledger with
``--trace 1`` (one untraced pass for the overhead baseline, then traced
passes).

Suite form (no ``--workload``)::

    python3 benchmarks/e2e/run.py [--seed N] [--runs K] [--seconds S] [--out F]

runs every workload ``K`` times untraced plus once traced, each in a
fresh child process, and prints every declared metric with its unit,
median, quartiles and sample count; ``--out`` saves the set for
``check.py``.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: list) -> tuple:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# ---------------------------------------------------------------------------
# driver form: one workload in this process
# ---------------------------------------------------------------------------

def run_workload(args: argparse.Namespace, contract: dict) -> int:
    if not (SRC / "repro").is_dir():
        print(f"e2e benchmark: no program to measure ({SRC}/repro is "
              "missing)", file=sys.stderr)
        return 2
    # the build step of a pure-Python program: byte-compile once, so
    # set-up time never depends on whether an earlier run left .pyc files
    compileall.compile_dir(str(SRC), quiet=2, workers=1)
    sys.path[:0] = [str(SRC), str(ROOT)]
    t0 = time.perf_counter()
    from benchmarks.e2e.ledger import per_layer
    from benchmarks.e2e.tracer import Tracer
    from benchmarks.e2e.workloads import WORKLOADS
    import_s = time.perf_counter() - t0

    workload_cls = WORKLOADS[args.workload]
    tracer = None
    setups: list[float] = []
    rates: list[float] = []
    walls: list[float] = []
    ledgers: list[dict] = []
    digests: set[str] = set()
    attempted = failed = 0
    begun = time.perf_counter()
    while True:
        pass_begun = time.perf_counter()
        gc.collect()
        traced = bool(args.trace) and bool(walls)
        if traced and tracer is None:
            # before the world is built: ports hold bound methods
            tracer = Tracer(lifelines=bool(args.trace_out)).install()
        if traced:
            tracer.begin_run()
        t0 = time.perf_counter()
        workload = workload_cls(args.seed, smoke=args.smoke)
        workload.setup()
        setups.append(time.perf_counter() - t0)
        if traced:
            tracer.end_run()
            setup_by_name = tracer.ledger()["by_name"]
        outcome = workload.run(tracer if traced else None)
        attempted += outcome.attempted
        failed += outcome.failed
        digests.add(outcome.digest)
        if traced:
            ledgers.append(per_layer(tracer, outcome, walls[0], setup_by_name))
            if args.trace_out and len(ledgers) == 1:
                tracer.dump(args.trace_out)
        else:
            walls.append(outcome.run_wall_s)
            rates.append(outcome.events / outcome.run_wall_s)
        print(f"pass {len(setups)}: setup {setups[-1]:.3f}s run "
              f"{outcome.run_wall_s:.3f}s events {outcome.events} "
              f"attempted {outcome.attempted} failed {outcome.failed}"
              f"{' traced' if traced else ''}", flush=True)
        del workload, outcome
        now = time.perf_counter()
        enough = len(setups) >= (2 if args.trace else 1)
        # stop before a pass that would overrun --seconds
        if enough and (args.smoke or
                       now + (now - pass_begun) > begun + args.seconds):
            break
    if tracer is not None:
        tracer.uninstall()

    if args.trace:
        values = {name: statistics.median(ledger[name] for ledger in ledgers)
                  for name in ledgers[0]}
        declared = contract["per_layer"]
    else:
        values = {
            "setup_s": import_s + statistics.median(setups),
            "events_per_s": statistics.median(rates),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = contract["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(values) != set(units):
        print("e2e benchmark: metrics computed and metrics declared in "
              f"BENCHMARK.json differ: {sorted(set(values) ^ set(units))}",
              file=sys.stderr)
        return 1
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "passes": len(setups), "digests": sorted(digests)}))
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0


# ---------------------------------------------------------------------------
# suite form: every workload, each run in a fresh child
# ---------------------------------------------------------------------------

def _child(workload: str, args: argparse.Namespace, trace: int) -> tuple:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    info, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


def run_suite(args: argparse.Namespace, contract: dict) -> int:
    names = [w["name"] for w in contract["workloads"]]
    doc = {"schema": "repro-e2e/1", "seed": args.seed,
           "seconds": args.seconds, "smoke": args.smoke,
           "box": {"nproc": os.cpu_count(),
                   "python": platform.python_version()},
           "workloads": {}}
    ok = True
    for workload in names:
        runs = [_child(workload, args, 0) for _ in range(args.runs)]
        trace_info, trace_result = _child(workload, args, 1)
        digests = sorted({d for info, _ in runs for d in info["digests"]}
                         | set(trace_info["digests"]))
        attempted = sum(result["attempted"] for _, result in runs)
        failed = sum(result["failed"] for _, result in runs) \
            + trace_result["failed"]
        end_to_end = {}
        for metric in contract["end_to_end"]:
            values = [result["metrics"][metric["name"]]["value"]
                      for _, result in runs]
            q1, median, q3 = quartiles(values)
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "n": len(values), "values": values}
        layers = {name: {"unit": m["unit"], "value": m["value"]}
                  for name, m in trace_result["metrics"].items()}
        # a void run: outputs wrong, or one seed gave two digests
        # (between repeats, or between traced and untraced passes)
        valid = failed == 0 and len(digests) == 1
        ok = ok and valid
        doc["workloads"][workload] = {
            "digest": digests[0] if len(digests) == 1 else digests,
            "ops_attempted": attempted, "ops_failed": failed, "valid": valid,
            "end_to_end": end_to_end, "per_layer": layers}
        print(f"\n== {workload}: attempted {attempted} failed {failed} "
              f"digest {'|'.join(d[:12] for d in digests)}"
              f"{'' if valid else '  ** VOID **'}")
        print(f"  {'metric':<40}{'unit':<10}{'median':>14}{'q1':>14}"
              f"{'q3':>14}{'n':>4}")
        for name, row in end_to_end.items():
            print(f"  {name:<40}{row['unit']:<10}{row['median']:>14.6g}"
                  f"{row['q1']:>14.6g}{row['q3']:>14.6g}{row['n']:>4}")
        for name, row in layers.items():
            print(f"  {name:<40}{row['unit']:<10}{row['value']:>14.6g}"
                  f"{'':>14}{'':>14}{1:>4}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True)
                                  + "\n")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one pass: checks the harness, "
                             "measures nothing")
    parser.add_argument("--runs", type=int, default=5,
                        help="suite form: untraced child runs per workload")
    parser.add_argument("--out", help="suite form: write the result set here")
    parser.add_argument("--trace-out",
                        help="driver form with --trace 1: dump the first "
                             "traced pass's spans here as JSON")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_suite(args, contract)
    return run_workload(args, contract)


if __name__ == "__main__":
    sys.exit(main())
