"""Unit tests for the unified resilience layer (repro.core.resilience).

Covers the breaker state machine, the retry-budget token identity, the
deadline stack (nested tightening, propagation through nested calls),
config JSON round-trips, watchdog-gate backoff parity with the
historical base->x2->cap sequence, and the async ``drive()`` generator.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.resilience import (CLOSED, Deadline, EDGE_COUNTERS,
                                   HALF_OPEN, OPEN, CircuitBreaker,
                                   HealthScore, ResilienceConfig,
                                   ResiliencePolicy, RetryBudget,
                                   merge_edge_counters)
from repro.simgrid.kernel import EventFlag, Simulator, Timeout


# -- circuit breaker -----------------------------------------------------


class TestCircuitBreaker:
    def test_closed_to_open_on_threshold(self):
        br = CircuitBreaker(threshold=3, cooldown=5.0)
        for _ in range(2):
            br.record_failure(0.0)
        assert br.state == CLOSED
        br.record_failure(0.0)
        assert br.state == OPEN
        assert br.allow(1.0) is False  # inside cooldown

    def test_half_open_probe_success_closes(self):
        br = CircuitBreaker(threshold=1, cooldown=5.0, probes=1)
        br.record_failure(0.0)
        assert br.state == OPEN
        assert br.peek(4.9) == OPEN
        assert br.peek(5.0) == HALF_OPEN   # peek never consumes a slot
        assert br.allow(5.0) is True       # the single probe slot
        assert br.allow(5.0) is False      # no second concurrent probe
        br.record_success(5.1)
        assert br.state == CLOSED
        assert br.allow(5.2) is True

    def test_half_open_probe_failure_reopens(self):
        br = CircuitBreaker(threshold=1, cooldown=5.0, probes=1)
        br.record_failure(0.0)
        assert br.allow(5.0) is True       # probe granted
        br.record_failure(5.1)             # probe failed
        assert br.state == OPEN
        # the cooldown clock restarted at the probe failure
        assert br.allow(9.0) is False
        assert br.allow(10.2) is True

    def test_success_resets_failure_streak(self):
        br = CircuitBreaker(threshold=3, cooldown=5.0)
        br.record_failure(0.0)
        br.record_failure(0.0)
        br.record_success(0.1)
        br.record_failure(0.2)
        br.record_failure(0.3)
        assert br.state == CLOSED  # streak broken; 2 < threshold again


# -- retry budget --------------------------------------------------------


class TestRetryBudget:
    def test_starts_full_and_spends(self):
        budget = RetryBudget(ratio=0.5, burst=2.0)
        assert budget.try_spend() is True
        assert budget.try_spend() is True
        assert budget.try_spend() is False  # burst exhausted
        budget.record_first_try()           # deposits 0.5
        budget.record_first_try()           # deposits 0.5
        assert budget.try_spend() is True
        assert budget.try_spend() is False

    def test_deposits_cap_at_burst(self):
        budget = RetryBudget(ratio=1.0, burst=3.0)
        for _ in range(100):
            budget.record_first_try()
        granted = 0
        while budget.try_spend():
            granted += 1
        assert granted == 3

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           ratio=st.floats(min_value=0.05, max_value=1.0),
           burst=st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=50, deadline=None)
    def test_token_identity(self, seed, ratio, burst):
        """retries_granted <= burst + ratio * first_tries — always."""
        budget = RetryBudget(ratio=ratio, burst=burst)
        rng = random.Random(seed)
        for _ in range(300):
            if rng.random() < 0.5:
                budget.record_first_try()
            else:
                budget.try_spend()
        slack = 1e-6
        assert budget.retries_granted <= (budget.burst
                                          + ratio * budget.first_tries
                                          + slack)
        stats = budget.stats()
        assert stats["retries_granted"] == budget.retries_granted
        assert stats["retries_denied"] == budget.retries_denied


# -- deadlines -----------------------------------------------------------


class TestDeadlines:
    def test_absolute_deadline_math(self):
        dl = Deadline.after(10.0, 5.0)
        assert dl.at == 15.0
        assert dl.remaining(12.0) == 3.0
        assert not dl.expired(14.999)
        assert dl.expired(15.0)

    def test_expired_deadline_blocks_attempts(self):
        policy = ResiliencePolicy(None, ResilienceConfig())
        dl = Deadline.after(0.0, 1.0)
        assert policy.allow_attempt("e", "k", now=0.5, deadline=dl)
        policy.succeed("e", "k", now=0.5)
        assert not policy.allow_attempt("e", "k", now=1.5, deadline=dl)
        assert policy.edge("e")["deadline_expired"] == 1


# -- config --------------------------------------------------------------


class TestConfig:
    def test_json_round_trip(self):
        cfg = ResilienceConfig(max_attempts=7, backoff_base=0.25,
                               jitter=0.5, deadline=12.0,
                               budget_ratio=0.3, breaker_threshold=2,
                               slow_latency=0.75)
        assert ResilienceConfig.from_json(cfg.to_json()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises((TypeError, ValueError)):
            ResilienceConfig.from_dict({"max_attempts": 3, "bogus": 1})

    def test_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(max_attempts=0)
        with pytest.raises(ValueError):
            ResilienceConfig(jitter=1.5)
        with pytest.raises(ValueError):
            ResilienceConfig(budget_ratio=-0.1)


# -- watchdog gates ------------------------------------------------------


class TestWatchdogGates:
    def test_backoff_parity_with_historical_sequence(self):
        """base->x2->cap, no jitter: the exact delays the old ad-hoc
        backoff dicts produced (dedup is behavior-preserving)."""
        policy = ResiliencePolicy(None, ResilienceConfig(
            backoff_base=1.0, backoff_factor=2.0, backoff_max=30.0))
        delays = []
        now = 0.0
        for _ in range(6):
            retry_at = policy.gate_failure("edge", "k", now=now)
            delays.append(retry_at - now)
        assert delays == [1.0, 2.0, 4.0, 8.0, 16.0, 30.0]

    def test_retry_ready_and_success_clears(self):
        policy = ResiliencePolicy(None, ResilienceConfig(backoff_base=2.0))
        assert policy.retry_ready("e", "k", now=0.0)  # no gate yet
        policy.gate_failure("e", "k", now=0.0)
        assert not policy.retry_ready("e", "k", now=1.0)
        assert policy.retry_ready("e", "k", now=2.0)
        policy.gate_success("e", "k", now=2.0)
        assert policy.retry_ready("e", "k", now=2.0)
        counters = policy.edge("e")
        assert counters["attempts"] == 2
        assert counters["failures"] == 1
        assert counters["retries"] == 1  # the success after a gate

    def test_jitter_draws_only_when_configured(self):
        """jitter=0 must not touch the RNG (digest neutrality)."""
        rng = random.Random(1)
        policy = ResiliencePolicy(None, ResilienceConfig(jitter=0.0),
                                  rng=rng)
        state = rng.getstate()
        policy.backoff_delay(3)
        assert rng.getstate() == state
        jittered = ResiliencePolicy(None, ResilienceConfig(jitter=1.0),
                                    rng=random.Random(1))
        draws = {round(jittered.backoff_delay(1), 9) for _ in range(8)}
        assert len(draws) > 1  # full jitter actually varies


# -- endpoint health / ranking -------------------------------------------


class TestRanking:
    def test_untouched_endpoints_keep_order(self):
        policy = ResiliencePolicy(None, ResilienceConfig())
        keys = [("ldap", "a"), ("ldap", "b"), ("ldap", "c")]
        assert policy.rank_endpoints(keys) == keys

    def test_failures_sink_an_endpoint(self):
        policy = ResiliencePolicy(None, ResilienceConfig())
        keys = [("ldap", "a"), ("ldap", "b")]
        policy.fail("e", ("ldap", "a"), now=0.0)
        assert policy.rank_endpoints(keys)[0] == ("ldap", "b")
        # recovery: successes raise a's score back above a newly-failing b
        for _ in range(10):
            policy.succeed("e", ("ldap", "a"), now=1.0)
        policy.fail("e", ("ldap", "b"), now=1.0)
        assert policy.rank_endpoints(keys) == keys

    def test_open_breaker_ranks_last(self):
        """Breaker state dominates health score: an OPEN endpoint ranks
        last even when its health EWMA is the best of the lot."""
        policy = ResiliencePolicy(None, ResilienceConfig(
            breaker_threshold=3, breaker_cooldown=100.0))
        keys = ["a", "b"]
        for _ in range(3):
            policy.fail("e", "a", now=0.0)   # opens a's breaker
        for _ in range(50):
            policy.health("a").record(True)  # ...but a looks healthy
        policy.fail("e", "b", now=0.0)       # b degraded, breaker closed
        assert policy.health("a").score() > policy.health("b").score()
        assert policy.rank_endpoints(keys, now=1.0) == ["b", "a"]

    def test_slow_success_scores_half(self):
        h = HealthScore(alpha=1.0, slow_latency=0.5)
        h.record(True, 0.1)
        assert h.score() == 1.0
        h.record(True, 2.0)  # alive but slow
        assert h.score() == 0.5


# -- async driver --------------------------------------------------------


def _request_stub(sim, outcomes, log):
    """start_attempt returning flags scripted by ``outcomes[key]``."""
    def start(key, timeout):
        flag = EventFlag(sim)
        script = outcomes[key]
        result = script.pop(0) if script else TimeoutError("empty")
        log.append((sim.now, key))
        sim.call_in(0.01, flag.trigger,
                    result if not isinstance(result, type) else result())
        return flag
    return start


class TestDrive:
    def test_fails_over_to_healthy_endpoint(self):
        sim = Simulator()
        policy = ResiliencePolicy(sim, ResilienceConfig(
            max_attempts=4, backoff_base=0.1, op_timeout=1.0))
        log, out = [], {}
        outcomes = {"a": [ConnectionError("boom"), ConnectionError("boom")],
                    "b": [{"ok": True}]}

        def proc():
            result = yield from policy.drive(
                "e", ["a", "b"], _request_stub(sim, outcomes, log),
                size_bytes=100)
            out["result"] = result
        sim.spawn(proc())
        sim.run()
        ok, value, key, attempts = out["result"]
        assert ok and value == {"ok": True}
        assert key == "b" and attempts == 2
        # first try hit "a" (configured order), retry ranked "b" first
        assert [k for _, k in log] == ["a", "b"]
        counters = policy.edge("e")
        assert counters["attempts"] == 2
        assert counters["retries"] == 1
        assert counters["retry_bytes"] == 100

    def test_deadline_stops_the_retry_loop(self):
        sim = Simulator()
        policy = ResiliencePolicy(sim, ResilienceConfig(
            max_attempts=10, backoff_base=1.0, backoff_factor=2.0,
            op_timeout=0.5, deadline=2.0))
        outcomes = {"a": [ConnectionError("x")] * 10}
        out = {}

        def proc():
            out["result"] = yield from policy.drive(
                "e", ["a"], _request_stub(sim, outcomes, []))
        sim.spawn(proc())
        sim.run()
        ok, value, key, attempts = out["result"]
        assert not ok and isinstance(value, Exception)
        assert attempts < 10  # the deadline cut it short
        assert policy.edge("e")["deadline_expired"] >= 1

    def test_budget_caps_retries(self):
        sim = Simulator()
        policy = ResiliencePolicy(sim, ResilienceConfig(
            max_attempts=8, backoff_base=0.01, budget_ratio=0.5,
            budget_burst=1.0, breaker_threshold=100, op_timeout=1.0))
        outcomes = {"a": [ConnectionError("x")] * 50}
        results = []

        def proc():
            for _ in range(6):
                r = yield from policy.drive(
                    "e", ["a"], _request_stub(sim, outcomes, []))
                results.append(r)
        sim.spawn(proc())
        sim.run()
        counters = policy.edge("e")
        assert counters["budget_exhausted"] > 0
        budget = policy.budget
        assert budget.retries_granted <= (budget.burst
                                          + budget.ratio
                                          * budget.first_tries + 1e-6)


# -- stats plumbing ------------------------------------------------------


class TestStats:
    def test_merge_edge_counters(self):
        p1 = ResiliencePolicy(None, ResilienceConfig())
        p2 = ResiliencePolicy(None, ResilienceConfig())
        p1.edge("x")["attempts"] += 3
        p2.edge("y")["attempts"] += 4
        p2.edge("y")["retry_bytes"] += 100
        totals = merge_edge_counters([p1.stats(), p2.stats()])
        assert totals["attempts"] == 7
        assert totals["retry_bytes"] == 100
        assert set(totals) == set(EDGE_COUNTERS)

    def test_stats_shape(self):
        policy = ResiliencePolicy(None, ResilienceConfig())
        policy.fail("e", ("ldap", "m"), now=0.0)
        stats = policy.stats()
        assert stats["edges"]["e"]["failures"] == 1
        assert "ldap/m" in stats["breakers"]
        assert "ldap/m" in stats["health"]
        assert "tokens" in stats["budget"]
