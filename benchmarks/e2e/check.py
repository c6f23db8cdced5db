"""Compare two result sets of the suite: ``check.py A.json B.json``.

``A`` is the reference (the parent commit, or an earlier run of the
same code), ``B`` the candidate.  One row per workload × end-to-end
metric, judged against the bound ``BENCHMARK.json`` fixes for it:

* ``regression`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the inter-quartile spread of either side is wider
  than the bound, so the medians cannot be told apart (unless every run
  of B reads better than every run of A);
* ``ok`` otherwise.

Digests and every deterministic per-layer metric (counts, ratios,
simulated time — any unit not derived from the host clock) are compared
exactly: a speed-up must leave them bit-identical.  Exits non-zero on a
regression, an exact mismatch, a void run, or a higher failed share.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: per-layer units measured with the host clock; everything else must
#: repeat exactly for a fixed seed
HOST_CLOCK_UNITS = frozenset({"us", "ms", "share", "1/s", "x", "sim_s/s"})


def _spread(row: dict) -> float:
    return abs(row["q3"] - row["q1"]) / abs(row["median"])


def compare(a: dict, b: dict, contract: dict) -> tuple[list[str], bool]:
    lines: list[str] = []
    bad = False
    if a["seed"] != b["seed"]:
        lines.append(f"seeds differ ({a['seed']} vs {b['seed']}): digests "
                     "and deterministic metrics are not compared")
    lines.append(f"{'workload':<17}{'metric':<30}{'A median':>13}"
                 f"{'B median':>13}{'change':>9}{'bound':>7}  verdict")
    for workload in (w["name"] for w in contract["workloads"]):
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            ra, rb = wa["end_to_end"][name], wb["end_to_end"][name]
            change = (rb["median"] - ra["median"]) / ra["median"]
            worse = -change if metric["better"] == "higher" else change
            if metric["better"] == "higher":
                all_better = min(rb["values"]) > max(ra["values"])
            else:
                all_better = max(rb["values"]) < min(ra["values"])
            if max(_spread(ra), _spread(rb)) > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                bad = True
            else:
                verdict = "ok"
            lines.append(f"{workload:<17}{name:<30}{ra['median']:>13.6g}"
                         f"{rb['median']:>13.6g}{change:>+9.1%}{bound:>7.0%}"
                         f"  {verdict}")
        for side, run in (("A", wa), ("B", wb)):
            if not run["valid"]:
                lines.append(f"{workload:<17}{side} is void: "
                             f"{run['ops_failed']} failed ops, digest "
                             f"{run['digest']}")
                bad = True
        if wb["ops_failed"] * wa["ops_attempted"] > \
                wa["ops_failed"] * wb["ops_attempted"]:
            lines.append(f"{workload:<17}failed share rose: "
                         f"{wa['ops_failed']}/{wa['ops_attempted']} -> "
                         f"{wb['ops_failed']}/{wb['ops_attempted']}")
            bad = True
        if a["seed"] != b["seed"]:
            continue
        mismatches = [] if wa["digest"] == wb["digest"] else ["digest"]
        for name, row in wa["per_layer"].items():
            if row["unit"] not in HOST_CLOCK_UNITS and \
                    row["value"] != wb["per_layer"][name]["value"]:
                mismatches.append(f"{name} {row['value']!r} -> "
                                  f"{wb['per_layer'][name]['value']!r}")
        if mismatches:
            lines.append(f"{workload:<17}exact mismatch: "
                         + "; ".join(mismatches))
            bad = True
        else:
            lines.append(f"{workload:<17}digest and deterministic per-layer "
                         "metrics identical")
    return lines, bad


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in paths)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, bad = compare(a, b, contract)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
