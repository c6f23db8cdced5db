"""``scripts/soak.py``: one scenario document over many seeds.

The nightly rows are the documents in ``scripts/soak/``; each must build
the scenario its flag row built before the soak took documents.  A short
soak runs here too, so a broken soak shows up in tier-1, not in the
nightly.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

from repro.scenarios import Scenario, run_scenario

ROOT = pathlib.Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "soak", ROOT / "scripts" / "soak.py")
soak = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(soak)

#: what the flag-driven soak passed to ``Scenario`` when a row set no flag
FLAG_DEFAULTS = dict(horizon=60.0, drain=20.0, n_sensor_hosts=3,
                     random_steps=200, archive_segment_events=64,
                     archive_retention_bytes=None, archive_retention_age=None,
                     archive_downsample_after=None, compaction_interval=2.0,
                     storms=False, flaky=False)

#: the nightly rows: document (None = no ``--scenario``), start seed, and
#: the kwargs the row's flags gave ``Scenario``
NIGHTLY_ROWS = [
    # --runs 200
    (None, 0, {}),
    # --start-seed 2000 --retention-bytes 48000 --segment-events 32
    #     --compaction-interval 1.0
    ("storage-budget", 2000,
     dict(archive_retention_bytes=48000, archive_segment_events=32,
          compaction_interval=1.0)),
    # --start-seed 3000 --retention-age 25 --downsample-after 12
    #     --segment-events 32 --compaction-interval 1.0
    ("storage-age", 3000,
     dict(archive_retention_age=25.0, archive_downsample_after=12.0,
          archive_segment_events=32, compaction_interval=1.0)),
    # --start-seed 4000 --retention-bytes 24000 --segment-events 16
    #     --compaction-interval 4.0
    ("storage-tiny-segments", 4000,
     dict(archive_retention_bytes=24000, archive_segment_events=16,
          compaction_interval=4.0)),
    # --start-seed 5000 --storms
    ("storms", 5000, dict(storms=True)),
    # --start-seed 6000 --storms --retention-bytes 48000
    #     --segment-events 32 --compaction-interval 1.0
    ("storms-storage", 6000,
     dict(storms=True, archive_retention_bytes=48000,
          archive_segment_events=32, compaction_interval=1.0)),
    # --start-seed 7000 --flaky; and resilience on, which no flag reached
    ("retry-storms", 7000, dict(flaky=True, resilience=True)),
    # --start-seed 8000 --flaky --storms; resilience on, as above
    ("retry-storms-congested", 8000,
     dict(flaky=True, storms=True, resilience=True)),
]


def test_every_nightly_document_has_a_row():
    documents = {p.stem for p in (ROOT / "scripts" / "soak").glob("*.json")}
    assert documents == {name for name, _, _ in NIGHTLY_ROWS if name}


@pytest.mark.parametrize("name,seed,kwargs", NIGHTLY_ROWS,
                         ids=[row[0] or "default" for row in NIGHTLY_ROWS])
def test_a_nightly_document_builds_its_flag_row(name, seed, kwargs):
    doc = soak.DEFAULT_DOCUMENT if name is None else json.loads(
        (ROOT / "scripts" / "soak" / f"{name}.json").read_text())
    expected = Scenario(name=f"soak-{seed}", seed=seed,
                        **{**FLAG_DEFAULTS, **kwargs})
    assert soak.seeded(doc, seed) == expected


def _tiny(tmp_path, monkeypatch) -> pathlib.Path:
    monkeypatch.setattr(soak, "CORPUS", tmp_path / "corpus")
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(
        {"horizon": 8.0, "random_steps": 5, "n_sensor_hosts": 2}))
    return path


def test_a_short_soak_runs_clean(tmp_path, monkeypatch):
    path = _tiny(tmp_path, monkeypatch)
    assert soak.main(["--runs", "1", "--scenario", str(path)]) == 0
    assert not soak.CORPUS.exists()


def test_a_failing_seed_dumps_a_document_that_replays_it(tmp_path,
                                                         monkeypatch):
    path = _tiny(tmp_path, monkeypatch)
    runs = []

    def failing(scenario):
        result = run_scenario(scenario)
        result.violations.append("planted violation")
        runs.append(result)
        return result

    monkeypatch.setattr(soak, "run_scenario", failing)
    assert soak.main(["--runs", "1", "--start-seed", "3",
                      "--scenario", str(path)]) == 1
    dump = json.loads((soak.CORPUS / "plan_seed3.json").read_text())
    assert dump["violations"] == ["planted violation"]
    replayed = Scenario.from_dict(dump["scenario"])
    assert replayed.plan.to_dict() == runs[0].plan.to_dict()
    assert run_scenario(replayed).digest() == runs[0].digest()


def test_the_soak_names_and_seeds_its_runs(tmp_path):
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps({"seed": 4, "random_steps": 5}))
    with pytest.raises(SystemExit):
        soak.main(["--scenario", str(path)])
