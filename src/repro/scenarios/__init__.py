"""Declarative end-to-end fault scenarios.

A :class:`Scenario` describes a standard two-site monitoring world plus
a :class:`~repro.simgrid.faults.FaultPlan`; :class:`ScenarioRunner`
builds it, runs it, and evaluates the system-wide invariants every
fault schedule must preserve:

* **no committed-event loss** — every event that reached the
  gateway-side archive is eventually delivered to the (self-healing)
  consumer session;
* **monotonic per-stream ids** — live deliveries of one sensor stream
  never reorder, and no stream ever delivers the same id twice;
* **directory convergence** — after the world heals, every replica's
  tree equals the master's;
* **bounded backpressure** — gateway outboxes never exceed their caps
  (a full one sheds its oldest event, which replay recovers);
* **closed archive accounting** — every event the commit log admitted
  is retained, shed, retired, downsampled, or quarantined (storage
  faults and retention drop events, never lose count of them);
* **rollup-vs-raw consistency** — summaries served from segment
  rollups agree with a brute-force scan of the raw events.

The loss invariant is *retention-scoped*: events at or below the
archive's ``loss_floor`` (retired, downsampled, or shed by policy) are
exempt — deliberate, accounted expiry is not loss.

A scenario's one serialized form is :meth:`Scenario.to_dict` (JSON via
:meth:`Scenario.to_json`): ``scripts/soak.py`` runs such a document over
many seeds, dumps each failing run's document (plan included) to
``tests/scenarios/corpus/``, and a failed :meth:`ScenarioResult.check`
prints it as the rerun line.  See ``docs/FAULTS.md`` for the fault model
and how to write a scenario test.
"""

from .netaware import NetAwareResult, run_netaware_scenario
from .retrystorm import (ArmResult, RetryStormResult, RetryStormScenario,
                         run_retrystorm)
from .runner import (Scenario, ScenarioResult, ScenarioRunner, SeqSensor,
                     check_archive_accounting, check_bounded_queues,
                     check_directory_convergence, check_monotonic_streams,
                     check_no_committed_loss, check_rollup_consistency,
                     run_scenario)

__all__ = ["ArmResult", "NetAwareResult", "RetryStormResult",
           "RetryStormScenario", "Scenario", "ScenarioResult",
           "ScenarioRunner", "SeqSensor", "check_archive_accounting",
           "check_bounded_queues", "check_directory_convergence",
           "check_monotonic_streams", "check_no_committed_loss",
           "check_rollup_consistency", "run_netaware_scenario",
           "run_retrystorm", "run_scenario"]
