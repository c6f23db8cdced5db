"""Smoke test for the perf harness: ``scripts/bench.py --quick`` must
run end to end and emit a schema-valid BENCH json.

This guards against harness rot (import breaks, renamed internals the
baselines reach into) without asserting any timing — quick-mode
numbers are not measurements.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def run_bench(out, *extra):
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "bench.py"),
         "--quick", "--out", str(out), *extra],
        capture_output=True, text=True, timeout=300)


def test_bench_quick_runs_and_writes_schema(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    started = int(time.time())
    proc = run_bench(out)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro-bench/5"
    assert doc["quick"] is True
    assert doc["only"] is None
    benches = doc["benchmarks"]
    # exactly the layers no BENCHMARK.json workload drives at rate,
    # each stamped with when it was measured
    assert set(benches) == {"ulm_codec", "summary_ingest",
                            "directory_search", "sim_kernel"}
    for section in benches.values():
        assert started <= section["measured_unix"] <= doc["generated_unix"]
    codec = benches["ulm_codec"]
    for key in ("parse_msgs_per_s", "serialize_msgs_per_s",
                "seed_parse_msgs_per_s", "speedup_parse",
                "speedup_roundtrip"):
        assert codec[key] > 0
    summary = benches["summary_ingest"]
    assert summary["samples_per_s"] > 0
    assert summary["speedup"] > 0
    directory = benches["directory_search"]
    for key in ("indexed_eq", "full_scan_fallback"):
        assert directory[key]["searches_per_s"] > 0
        assert directory[key]["seed_searches_per_s"] > 0
        assert directory[key]["speedup"] > 0
    kernel = benches["sim_kernel"]
    for key in ("immediate_dispatch", "flag_wakeups", "timer_churn",
                "cancel_churn"):
        assert kernel[key]["events"] > 0
        assert kernel[key]["events_per_s"] > 0
        assert kernel[key]["seed_events_per_s"] > 0
        assert kernel[key]["speedup"] > 0
    # a fresh output file starts an empty perf history
    assert doc["history"] == []


def test_bench_rerun_appends_history(tmp_path):
    """A re-run against an existing file folds the previous run's
    headline rates into ``history`` instead of forgetting them."""
    out = tmp_path / "BENCH_smoke.json"
    previous = {
        "schema": "repro-bench/5", "name": "event_path", "quick": True,
        "generated_unix": 1700000000,
        "benchmarks": {
            "ulm_codec": {"parse_msgs_per_s": 1.0,
                          "serialize_msgs_per_s": 2.0},
            "summary_ingest": {"samples_per_s": 4.0},
            "directory_search": {"indexed_eq": {"searches_per_s": 5.0}},
            "sim_kernel": {"immediate_dispatch": {"events_per_s": 7.0}}},
        "history": [{"generated_unix": 1600000000,
                     "scenario_events_per_s": 8.0}]}
    out.write_text(json.dumps(previous))
    proc = run_bench(out)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert len(doc["history"]) == 2  # the seeded entry + the previous run
    # older entries are records: kept as written, retired fields and all
    assert doc["history"][0] == {"generated_unix": 1600000000,
                                 "scenario_events_per_s": 8.0}
    assert doc["history"][1]["generated_unix"] == 1700000000
    assert doc["history"][1]["parse_msgs_per_s"] == 1.0
    assert doc["history"][1]["summary_samples_per_s"] == 4.0
    assert doc["history"][1]["directory_searches_per_s"] == 5.0
    assert doc["history"][1]["kernel_dispatch_events_per_s"] == 7.0


def test_bench_only_reruns_one_section_and_carries_the_rest(tmp_path):
    """``--only`` re-measures the named sections and carries every other
    section forward unchanged from the existing file — including the
    stamp of the run that measured it."""
    out = tmp_path / "BENCH_smoke.json"
    previous = {
        "schema": "repro-bench/5", "name": "event_path", "quick": True,
        "generated_unix": 1700000000,
        "benchmarks": {
            "ulm_codec": {"parse_msgs_per_s": 123.0,
                          "measured_unix": 1650000000},
            "directory_search": {"indexed_eq": {"searches_per_s": 5.0},
                                 "measured_unix": 1650000000},
            "summary_ingest": {"samples_per_s": 4.0,
                               "measured_unix": 1700000000}},
        "history": []}
    out.write_text(json.dumps(previous))
    proc = run_bench(out, "--only", "directory_search,summary_ingest")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["only"] == ["directory_search", "summary_ingest"]
    benches = doc["benchmarks"]
    # re-measured sections are fresh, and say so...
    assert benches["directory_search"]["indexed_eq"]["searches_per_s"] > 5.0
    assert benches["summary_ingest"]["samples_per_s"] > 4.0
    for name in ("directory_search", "summary_ingest"):
        assert benches[name]["measured_unix"] > 1700000000
    # ...and an untouched one is carried forward verbatim: another
    # day's number keeps that day's stamp
    assert benches["ulm_codec"] == {"parse_msgs_per_s": 123.0,
                                    "measured_unix": 1650000000}
    # sections absent from the previous file stay absent (not re-run)
    assert "sim_kernel" not in benches


def test_bench_only_sim_kernel(tmp_path):
    """``--only sim_kernel`` re-measures the kernel section (with its
    seed-parity asserts) and carries the rest forward."""
    out = tmp_path / "BENCH_smoke.json"
    previous = {
        "schema": "repro-bench/5", "name": "event_path", "quick": True,
        "generated_unix": 1700000000,
        "benchmarks": {
            "ulm_codec": {"parse_msgs_per_s": 123.0},
            "summary_ingest": {"samples_per_s": 4.0}},
        "history": []}
    out.write_text(json.dumps(previous))
    proc = run_bench(out, "--only", "sim_kernel")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["only"] == ["sim_kernel"]
    benches = doc["benchmarks"]
    kernel = benches["sim_kernel"]
    for key in ("immediate_dispatch", "flag_wakeups", "timer_churn",
                "cancel_churn"):
        assert kernel[key]["events_per_s"] > 0
        assert kernel[key]["speedup"] > 0
    assert benches["ulm_codec"] == {"parse_msgs_per_s": 123.0}
    assert benches["summary_ingest"] == {"samples_per_s": 4.0}


def test_bench_only_rejects_unknown_section(tmp_path):
    # a section retired to the end-to-end benchmark is as unknown as junk
    for name in ("nonsense", "gateway_fanout"):
        proc = run_bench(tmp_path / "out.json", "--only", name)
        assert proc.returncode != 0
        assert "unknown section" in proc.stderr


def test_bench_only_requires_an_existing_document(tmp_path):
    """--only against a fresh path would write a partial document; it
    must refuse and point at a full run instead."""
    out = tmp_path / "BENCH_fresh.json"
    proc = run_bench(out, "--only", "ulm_codec")
    assert proc.returncode != 0
    assert "run a full benchmark first" in proc.stderr
    assert not out.exists()


def test_bench_only_refuses_to_mix_quick_and_full_runs(tmp_path):
    """Carry-forward must not splice smoke-mode timings into a full
    document (or vice versa)."""
    out = tmp_path / "BENCH_smoke.json"
    full_run = {"schema": "repro-bench/5", "name": "event_path",
                "quick": False, "generated_unix": 1700000000,
                "benchmarks": {"ulm_codec": {"parse_msgs_per_s": 1.0}},
                "history": []}
    out.write_text(json.dumps(full_run))
    proc = run_bench(out, "--only", "summary_ingest")  # run_bench is --quick
    assert proc.returncode != 0
    assert "would merge" in proc.stderr
    # the existing document is left untouched
    assert json.loads(out.read_text()) == full_run
