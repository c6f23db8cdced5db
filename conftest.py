"""Root pytest configuration: fault-scenario markers.

Scenario tests (tests/scenarios/) are end-to-end fault-injection runs.
A fast subset runs in tier-1 by default; the heavy random matrices are
marked ``slow`` and run only with ``--runslow`` (or ``RUN_SLOW=1``),
e.g. in a nightly soak alongside ``scripts/soak.py``.
"""

import os

import pytest
from hypothesis import settings

# the nightly job's budget for tests that pin none of their own
# (tests/core/test_archive_oracle.py, the two random scripts of
# tests/simgrid/test_transport_oracle.py): --hypothesis-profile=nightly
settings.register_profile("nightly", max_examples=2000,
                          stateful_step_count=120, deadline=None)


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False,
        help="run the slow scenario matrices (also: RUN_SLOW=1)")
    parser.addoption(
        "--sanitize", action="store_true", default=False,
        help="run every simulator under the dynamic sanitizer "
             "(also: REPRO_SANITIZE=1)")


def pytest_configure(config):
    if config.getoption("--sanitize"):
        # every Simulator() created without an explicit sanitize= picks
        # this up via repro.analysis.sanitizer.env_enabled()
        os.environ["REPRO_SANITIZE"] = "1"
    config.addinivalue_line(
        "markers",
        "scenario: end-to-end fault-injection scenario test "
        "(select with -m scenario)")
    config.addinivalue_line(
        "markers",
        "slow: heavy scenario matrix, skipped unless --runslow / RUN_SLOW=1")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow") or os.environ.get("RUN_SLOW"):
        return
    skip_slow = pytest.mark.skip(
        reason="slow scenario matrix (enable with --runslow or RUN_SLOW=1)")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)
