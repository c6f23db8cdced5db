"""Tier-1 smoke: the static analyzer must stay clean on ``src/``.

This is the test CI's lint job mirrors (``python -m repro.analysis
src/``): zero unsuppressed findings, zero parse errors, and a baseline
that stays **empty for src/** — real violations get fixed or carry an
inline ``# repro: noqa[RULE]`` with a justification.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.analysis.baseline import Baseline
from repro.analysis.engine import analyze_paths

ROOT = Path(__file__).resolve().parents[1]
BASELINE = ROOT / ".repro-analysis-baseline.json"


def test_analyzer_clean_on_src():
    result = analyze_paths([ROOT / "src"], baseline=Baseline.load(BASELINE),
                           root=ROOT / "src")
    assert result.ok, "analyzer findings on src/:\n" + "\n".join(
        f"  {f.location()}: {f.rule} {f.message}" for f in result.findings)
    assert not result.stale_baseline


def test_baseline_is_empty_for_src():
    doc = json.loads(BASELINE.read_text(encoding="utf-8"))
    assert doc["schema"] == "repro-analysis-baseline/1"
    assert doc["findings"] == []


def test_suppressions_are_justified():
    """Every inline noqa in src/ must carry a trailing justification
    (text after the ``]``), so suppressions stay auditable."""
    result = analyze_paths([ROOT / "src"], baseline=Baseline.load(BASELINE),
                           root=ROOT / "src")
    unjustified = []
    for finding in result.suppressed:
        source_line = (ROOT / "src" / finding.path).read_text(
            encoding="utf-8").splitlines()[finding.line - 1]
        marker = source_line.split("repro: noqa", 1)[1]
        trailer = marker.split("]", 1)[1] if "]" in marker else ""
        if not trailer.strip(" -—"):
            unjustified.append(f"{finding.path}:{finding.line}")
    assert not unjustified, (
        "noqa without justification: " + ", ".join(unjustified))


def test_setup_py_is_self_contained():
    """``pip install -e .`` takes the ``setup.py develop`` path here, so
    the metadata must live in setup.py itself (there is no
    pyproject.toml): an unnamed distribution installs nothing."""
    proc = subprocess.run([sys.executable, "setup.py", "--name"], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["repro"]
