"""Per-rule fixture tests: every rule catches its bad fixture and stays
quiet on the matching clean one.

Fixtures live in ``fixtures/`` (non-``test_`` names, so pytest never
collects them) and are analyzed with ``select=[code]`` so one fixture
tripping a neighbouring rule can't blur the assertion.
"""

from pathlib import Path

import pytest

from repro.analysis.engine import analyze_paths
from repro.analysis.rules import RULES, rule_catalog

FIXTURES = Path(__file__).resolve().parent / "fixtures"

CASES = [
    ("DET001", "det001_bad.py", "det001_ok.py"),
    ("DET002", "det002_bad.py", "det002_ok.py"),
    ("DET003", "det003_bad.py", "det003_ok.py"),
    ("DET004", "det004_bad.py", "det004_ok.py"),
    ("DET005", "det005_bad.py", "det005_ok.py"),
    ("SIM001", "sim001_bad.py", "sim001_ok.py"),
    ("RES001", "res001_bad.py", "res001_ok.py"),
    ("RES002", "res002_bad.py", "res002_ok.py"),
    ("RES003", "res003_bad.py", "res003_ok.py"),
    ("SLOT001", "slot001_bad.py", "slot001_ok.py"),
]


def _run(code, fixture):
    return analyze_paths([FIXTURES / fixture], select=[code], root=FIXTURES)


@pytest.mark.parametrize("code,bad,good", CASES)
def test_rule_fires_on_bad_fixture(code, bad, good):
    result = _run(code, bad)
    hits = [f for f in result.findings if f.rule == code]
    assert hits, f"{code} produced no findings on {bad}"
    for finding in hits:
        assert finding.line >= 1 and finding.snippet


@pytest.mark.parametrize("code,bad,good", CASES)
def test_rule_quiet_on_clean_fixture(code, bad, good):
    result = _run(code, good)
    assert not result.findings, (
        f"{code} false-positived on {good}: "
        + "; ".join(f.message for f in result.findings))


def test_every_catalog_rule_has_a_fixture():
    assert {code for code, _b, _g in CASES} == {r.code for r in RULES}


def test_catalog_entries_are_complete():
    for entry in rule_catalog():
        assert entry["code"] and entry["title"] and entry["rationale"]


def test_multiple_findings_reported_per_file():
    result = _run("DET001", "det001_bad.py")
    assert len(result.findings) >= 3  # time.time, ctime, now, bare localtime
