"""The four end-to-end workloads' digests, pinned at seed 4242.

``benchmarks/e2e/run.py`` voids a run whose passes disagree on their
digest, but holds the digest to no value: a change that moved what a
workload delivers would still measure as "correct".  This runs one
untraced pass of each workload at the driver's default seed — the
sizes the driver measures, not ``--smoke`` — and holds its outputs to
the reference check (``failed == 0``) and its digest to the value the
code produced when it was pinned.  A digest covers what the run
delivered (``wide_fanout``: every session's events; the scenario
workloads: the scenario result; ``archive_mixed``: every query and
summary answer), so a refactor of the event path must keep all four.
"""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SEED = 4242
DIGESTS = {
    "steady_pipeline":
        "416e4c89c012711231377d1779058600b8837d3ecaf6776827366f2328f6044e",
    "wide_fanout":
        "a46e6bc7c30fb9fe0ba794876175b1d57b3577464bace5edd07c707167c8abc9",
    "fault_storm":
        "dc277bf34c6436394cd9464580f7adc7e73b499c92ce3c0f40f815058d4a6d9d",
    "archive_mixed":
        "d1295796e948e5c8fca4c9bdcd69c01da9d2195da4b7d18496c0cd293174c0d1",
}


@pytest.mark.parametrize("name", list(DIGESTS))
def test_workload_digest_is_pinned(name, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from benchmarks.e2e.workloads import WORKLOADS
    workload = WORKLOADS[name](SEED)
    workload.setup()
    outcome = workload.run()
    assert outcome.failed == 0, outcome.attempted
    assert outcome.digest == DIGESTS[name]
