"""Smoke test for the end-to-end benchmark: ``run.py --smoke`` must run
every workload traced and untraced, emit exactly the metrics
``BENCHMARK.json`` declares, check its outputs, and close the per-layer
ledger.  Smoke sizes measure nothing — no assertion here is about speed.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
CONTRACT = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
SIMULATED = [w for w in WORKLOADS if w != "archive_mixed"]


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--runs", "1",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out, json.loads(out.read_text())


def test_emits_exactly_the_declared_metrics(results):
    _, doc = results
    assert sorted(doc["workloads"]) == sorted(WORKLOADS)
    for group in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in CONTRACT[group]}
        assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
                   for name in declared)
        for workload in WORKLOADS:
            rows = doc["workloads"][workload][group]
            assert {n: r["unit"] for n, r in rows.items()} == declared


def test_catalog_covers_the_contract():
    catalog = json.loads((HERE / "catalog.json").read_text())
    assert sorted(catalog["workloads"]) == sorted(WORKLOADS)
    assert {m["name"].split(".")[0] for m in CONTRACT["per_layer"]} \
        == set(catalog["layers"])
    end_to_end = {m["name"] for m in CONTRACT["end_to_end"]}
    for layer in catalog["layers"].values():
        for metric, workload in layer["moves"]:
            assert metric in end_to_end and workload in WORKLOADS


def test_outputs_are_checked_and_correct(results):
    _, doc = results
    for workload in WORKLOADS:
        run = doc["workloads"][workload]
        assert run["ops_attempted"] > 0
        assert run["ops_failed"] == 0
        # one digest across the untraced and the traced passes
        assert run["valid"] and isinstance(run["digest"], str)
        for row in run["end_to_end"].values():
            assert row["median"] > 0


def test_ledger_closes(results):
    _, doc = results
    for workload in WORKLOADS:
        layers = doc["workloads"][workload]["per_layer"]
        shares = sum(row["value"] for name, row in layers.items()
                     if row["unit"] == "share")
        assert shares == pytest.approx(1.0, abs=0.02)
    for workload in SIMULATED:
        layers = doc["workloads"][workload]["per_layer"]
        assert layers["trace.unattributed_share"]["value"] <= 0.10


def test_predicted_bypasses_hold(results):
    _, doc = results
    layer = {w: {n: r["value"] for n, r in doc["workloads"][w]["per_layer"].items()}
             for w in WORKLOADS}
    assert layer["wide_fanout"]["archive.share"] == 0
    assert layer["steady_pipeline"]["faults.applied"] == 0
    assert layer["steady_pipeline"]["resilience.retries_per_first_try"] == 0
    assert layer["fault_storm"]["faults.applied"] > 0
    assert layer["archive_mixed"]["kernel.events_dispatched"] == 0
    assert layer["archive_mixed"]["transport.share"] == 0
    assert layer["steady_pipeline"]["gateway.deliveries_per_ingest"] == 2
    assert layer["wide_fanout"]["gateway.deliveries_per_ingest"] > 4


def test_check_accepts_a_set_against_itself(results):
    out, _ = results
    proc = subprocess.run(
        [sys.executable, str(HERE / "check.py"), str(out), str(out)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "REGRESSION" not in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to
    measure: the command must fail without printing a result."""
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "steady_pipeline", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
