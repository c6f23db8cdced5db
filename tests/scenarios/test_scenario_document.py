"""A scenario is one JSON document: ``Scenario.to_dict`` / ``from_dict``.

The soak reads it, the corpus stores it and the rerun line prints it,
so every field must survive the round trip — a field added to
:class:`Scenario` without a sample below fails here first.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.core.resilience import ResilienceConfig
from repro.scenarios import Scenario
from repro.simgrid import FaultPlan

#: one non-default value per field (``resilience`` twice: the flag and
#: a config object)
SAMPLES = {
    "name": ["doc"],
    "seed": [7],
    "plan": [FaultPlan(seed=3).crash_host(2.0, "gw.siteA").heal(5.0)],
    "n_sensor_hosts": [2],
    "horizon": [12.5],
    "drain": [4.0],
    "sensor_period": [0.25],
    "random_steps": [9],
    "storms": [True],
    "flaky": [True],
    "resilience": [True, ResilienceConfig(jitter=0.5)],
    "outbox_limit": [8],
    "sanitize": [False],
    "archive_segment_events": [16],
    "archive_retention_age": [30.0],
    "archive_retention_bytes": [4096],
    "archive_downsample_after": [15.0],
    "compaction_interval": [None],
}

CASES = [(f.name, value) for f in fields(Scenario)
         for value in SAMPLES.get(f.name, [KeyError])]


@pytest.mark.parametrize("name,value", CASES,
                         ids=[f"{n}-{type(v).__name__}" for n, v in CASES])
def test_every_field_survives_the_document(name, value):
    assert value is not KeyError, f"add a non-default sample for {name!r}"
    scenario = Scenario(**{"name": "doc", name: value})
    doc = scenario.to_dict()
    assert name in doc
    rebuilt = Scenario.from_json(scenario.to_json())
    if name == "plan":
        assert rebuilt.plan.to_dict() == value.to_dict()
    else:
        assert rebuilt == scenario


def test_a_default_scenario_is_just_its_name():
    assert Scenario(name="bare").to_dict() == {"name": "bare"}


def test_a_resilience_document_builds_the_config():
    scenario = Scenario.from_dict(
        {"name": "r", "resilience": {"jitter": 0.0, "max_attempts": 2}})
    assert scenario.resilience == ResilienceConfig(jitter=0.0,
                                                   max_attempts=2)


def test_unknown_keys_fail_loudly():
    with pytest.raises(ValueError, match="random_step"):
        Scenario.from_dict({"name": "typo", "random_step": 200})
