"""Replay every scenario in the fault corpus as a regression test.

``scripts/soak.py`` dumps any invariant-violating run here as
``{"scenario": <Scenario.to_dict() with its plan>, "violations": [...]}``;
replaying the corpus keeps those counterexamples fixed.  An empty corpus
(the happy steady state) collects zero parametrized cases and one sanity
check that the loader works.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.scenarios import Scenario, run_scenario

CORPUS = sorted(pathlib.Path(__file__).parent.glob("corpus/*.json"))


def _load(path: pathlib.Path) -> Scenario:
    return Scenario.from_dict(json.loads(path.read_text())["scenario"])


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_plan_holds_invariants(path):
    run_scenario(_load(path)).check()


def test_corpus_directory_exists():
    assert (pathlib.Path(__file__).parent / "corpus" / "README.md").exists()
