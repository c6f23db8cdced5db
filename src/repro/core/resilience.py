"""Unified resilience policy for the monitoring control plane.

Every RPC edge in the monitoring plane — client↔directory searches,
session↔gateway subscribe/resubscribe/replay, archiver catalog
publishes, directory delta replication, sensor-manager restarts — used
to carry its own ad-hoc retry logic: retry forever, retry never, or a
hand-rolled exponential backoff duplicated per call site.  PR 9's
shared-link queues make that dangerous: naive retries under congestion
*add* load exactly when the network has none to spare, which is how a
transient brown-out becomes a metastable retry storm (the monitoring
plane keeps itself down).

This module concentrates the policy in one object:

* **Deadlines** — an absolute time budget per operation, passed
  explicitly to :meth:`ResiliencePolicy.drive` (a retry never outlives
  the deadline of the operation it serves, and per-attempt timeouts
  shrink to fit).
* **Bounded retries with seeded jitter** — exponential backoff
  (``base · factor^(n-1)``, capped), optionally spread by full jitter
  drawn from a world-seeded RNG so retry waves decorrelate without
  breaking replay determinism.  Jitter defaults to **0.0**: the wired
  watchdog edges reproduce the historical base→×2→cap sequence
  bit-for-bit.
* **Retry budget** — a token bucket per client: each first try earns
  ``budget_ratio`` tokens (capped at ``budget_burst``), each retry
  spends one.  Long-run identity: granted retries can never exceed
  ``budget_burst + budget_ratio × first_tries``, so retry traffic is
  a bounded fraction of offered load no matter how bad the outage.
* **Circuit breakers** — per ``(host, service)`` endpoint, classic
  closed → open (after ``breaker_threshold`` consecutive failures) →
  half-open (after ``breaker_cooldown``, admitting ``breaker_probes``
  probes) → closed on probe success, re-open on probe failure.
* **Health scores** — per-endpoint EWMA over success/latency used to
  *rank* candidate endpoints (directory master vs replica, gateway
  pick at resubscribe).  Liveness that is directly observable (an
  in-process ``server.up`` flag) stays authoritative; health ranking
  earns its keep on remote endpoints where "up" cannot be seen.

Determinism contract: the policy draws from its RNG **only** when
``jitter > 0``, and records nothing until a failure happens, so the
no-fault fast path is bit-identical with or without a policy wired in.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Iterable, Optional, Sequence

from ..simgrid.kernel import Timeout

__all__ = [
    "ResilienceConfig", "ResiliencePolicy", "Deadline", "RetryBudget",
    "CircuitBreaker", "HealthScore", "ResilienceError", "DeadlineExpired",
    "BreakerOpen", "BudgetExhausted", "CLOSED", "OPEN", "HALF_OPEN",
]

#: circuit-breaker states
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: per-edge counter names (all always present in ``stats()``)
EDGE_COUNTERS = ("attempts", "retries", "failures", "retry_bytes",
                 "deadline_expired", "breaker_rejections",
                 "budget_exhausted")


class ResilienceError(RuntimeError):
    """Base class for policy-enforced rejections."""


class DeadlineExpired(ResilienceError):
    """The operation's absolute deadline passed before it completed."""


class BreakerOpen(ResilienceError):
    """The endpoint's circuit breaker rejected the attempt."""


class BudgetExhausted(ResilienceError):
    """The client's retry budget had no token for this retry."""


@dataclass(frozen=True, slots=True)
class Deadline:
    """An absolute point in simulated time an operation must finish by."""

    at: float

    @classmethod
    def after(cls, now: float, timeout: float) -> "Deadline":
        return cls(at=now + timeout)

    def remaining(self, now: float) -> float:
        return max(0.0, self.at - now)

    def expired(self, now: float) -> bool:
        return now >= self.at


@dataclass(frozen=True, slots=True)
class ResilienceConfig:
    """JSON-round-trippable knobs for one :class:`ResiliencePolicy`.

    Defaults are chosen so that a policy dropped onto an existing edge
    is behavior-preserving: no jitter, generous attempts, breaker and
    budget sized so they only bite under sustained failure.
    """

    #: attempts per driven operation (first try + retries)
    max_attempts: int = 4
    #: exponential backoff: ``base * factor**(n-1)`` capped at ``max``
    backoff_base: float = 1.0
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    #: fraction of each delay spread by seeded full jitter (0 = none)
    jitter: float = 0.0
    #: default per-attempt RPC timeout, seconds
    op_timeout: float = 5.0
    #: default per-operation absolute budget, seconds (None = no deadline)
    deadline: Optional[float] = None
    #: retry budget: tokens earned per first try / bucket cap
    budget_ratio: float = 0.5
    budget_burst: float = 10.0
    #: breaker: consecutive failures to open / cooldown / half-open probes
    breaker_threshold: int = 5
    breaker_cooldown: float = 10.0
    breaker_probes: int = 1
    #: health EWMA smoothing and the latency beyond which a success
    #: still counts as degraded (None = latency never degrades health)
    health_alpha: float = 0.2
    slow_latency: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.budget_ratio < 0 or self.budget_burst < 0:
            raise ValueError("budget must be non-negative")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_cooldown < 0 or self.breaker_probes < 1:
            raise ValueError("bad breaker cooldown/probes")
        if not 0.0 < self.health_alpha <= 1.0:
            raise ValueError("health_alpha must be in (0, 1]")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ResilienceConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown resilience config keys: {sorted(unknown)}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ResilienceConfig":
        return cls.from_dict(json.loads(text))


class RetryBudget:
    """Token-bucket retry budget (client-wide).

    Each first try deposits ``ratio`` tokens (capped at ``burst``);
    each granted retry withdraws one.  The bucket starts full so a cold
    client can ride out a brief brown-out, but sustained retrying is
    capped at ``ratio`` retries per first try.
    """

    __slots__ = ("ratio", "burst", "tokens", "first_tries",
                 "retries_granted", "retries_denied")

    def __init__(self, ratio: float = 0.5, burst: float = 10.0):
        self.ratio = ratio
        self.burst = burst
        self.tokens = burst
        self.first_tries = 0
        self.retries_granted = 0
        self.retries_denied = 0

    def record_first_try(self) -> None:
        self.first_tries += 1
        self.tokens = min(self.burst, self.tokens + self.ratio)

    def try_spend(self) -> bool:
        """Withdraw one token for a retry; False = budget exhausted."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.retries_granted += 1
            return True
        self.retries_denied += 1
        return False

    def stats(self) -> dict:
        return {"tokens": round(self.tokens, 6), "burst": self.burst,
                "ratio": self.ratio, "first_tries": self.first_tries,
                "retries_granted": self.retries_granted,
                "retries_denied": self.retries_denied}


class CircuitBreaker:
    """Per-endpoint breaker: closed → open → half-open → closed.

    ``allow(now)`` consumes a half-open probe slot when it grants an
    attempt in that state — every granted attempt must be settled with
    :meth:`record_success` or :meth:`record_failure`.
    """

    __slots__ = ("threshold", "cooldown", "max_probes", "state",
                 "failures", "opened_at", "probes", "opens", "rejections")

    def __init__(self, threshold: int = 5, cooldown: float = 10.0,
                 probes: int = 1):
        self.threshold = threshold
        self.cooldown = cooldown
        self.max_probes = probes
        self.state = CLOSED
        self.failures = 0          # consecutive failures while closed
        self.opened_at = 0.0
        self.probes = 0            # half-open probes in flight
        self.opens = 0             # lifetime closed/half-open -> open edges
        self.rejections = 0

    def peek(self, now: float) -> str:
        """Effective state at ``now`` without consuming a probe slot."""
        if self.state == OPEN and now - self.opened_at >= self.cooldown:
            return HALF_OPEN
        return self.state

    def allow(self, now: float) -> bool:
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now - self.opened_at < self.cooldown:
                self.rejections += 1
                return False
            self.state = HALF_OPEN
            self.probes = 0
        if self.probes < self.max_probes:
            self.probes += 1
            return True
        self.rejections += 1
        return False

    def record_success(self, now: float) -> None:
        self.state = CLOSED
        self.failures = 0
        self.probes = 0

    def record_failure(self, now: float) -> None:
        if self.state == HALF_OPEN:
            # a failed probe re-opens and restarts the cooldown clock
            self.state = OPEN
            self.opened_at = now
            self.probes = 0
            self.opens += 1
            return
        self.failures += 1
        if self.state == CLOSED and self.failures >= self.threshold:
            self.state = OPEN
            self.opened_at = now
            self.opens += 1

    def stats(self) -> dict:
        return {"state": self.state, "failures": self.failures,
                "opens": self.opens, "rejections": self.rejections}


class HealthScore:
    """EWMA endpoint health over recent success/latency.

    ``score()`` is the success EWMA in ``[0, 1]``; a success slower
    than ``slow_latency`` (when configured) counts as half a failure,
    so a saturated-but-technically-alive endpoint loses rank too.
    A fresh endpoint scores 1.0 and records nothing until an outcome
    arrives — ranking untouched endpoints preserves their given order.
    """

    __slots__ = ("alpha", "slow_latency", "success_ewma", "latency_ewma",
                 "samples")

    def __init__(self, alpha: float = 0.2,
                 slow_latency: Optional[float] = None):
        self.alpha = alpha
        self.slow_latency = slow_latency
        self.success_ewma = 1.0
        self.latency_ewma = 0.0
        self.samples = 0

    def record(self, ok: bool, latency: float = 0.0) -> None:
        value = 1.0 if ok else 0.0
        if ok and self.slow_latency is not None and latency > self.slow_latency:
            value = 0.5
        self.success_ewma += self.alpha * (value - self.success_ewma)
        if ok:
            self.latency_ewma += self.alpha * (latency - self.latency_ewma)
        self.samples += 1

    def score(self) -> float:
        return self.success_ewma

    def stats(self) -> dict:
        return {"score": round(self.success_ewma, 6),
                "latency_ewma": round(self.latency_ewma, 6),
                "samples": self.samples}


class _RetryGate:
    """Backoff state for one (edge, key) on a watchdog-driven edge."""

    __slots__ = ("failures", "retry_at")

    def __init__(self) -> None:
        self.failures = 0
        self.retry_at = 0.0


class ResiliencePolicy:
    """One policy object per client/agent, shared across its RPC edges.

    Three interaction styles, matched to how the repo's edges work:

    * **Watchdog gates** (:meth:`retry_ready` / :meth:`gate_failure` /
      :meth:`gate_success`) for loops that already wake on a cadence
      (session heal, sensor-manager supervision).  Pure backoff
      scheduling plus accounting — the watchdog cadence is the rate
      limit, so budget/breaker do not gate these (preserves historical
      behavior bit-for-bit; ``jitter=0`` reproduces base→×2→cap).
    * **Attempt gating** (:meth:`rank_endpoints` / :meth:`allow_attempt`
      / :meth:`succeed` / :meth:`fail`) for synchronous call sites that
      drive their own failover loop.
    * **The async driver** (:meth:`drive`) for request/response RPC
      over :class:`~repro.simgrid.sockets.MessageTransport`: a
      generator a process delegates to with ``yield from``, which
      applies deadline, backoff, budget, breaker, and health-ranked
      endpoint selection around ``EventFlag``-returning attempts.

    Breakers and health scores are keyed per ``(host, service)`` and
    shared across edges — a gateway that fails resubscribes is also
    suspect for replay.
    """

    def __init__(self, sim=None, config: Optional[ResilienceConfig] = None, *,
                 rng: Optional[random.Random] = None, name: str = "resilience"):
        self.sim = sim
        self.config = config or ResilienceConfig()
        self.name = name
        self._rng = rng
        cfg = self.config
        self.budget = RetryBudget(cfg.budget_ratio, cfg.budget_burst)
        self._breakers: dict[Any, CircuitBreaker] = {}
        self._health: dict[Any, HealthScore] = {}
        self._edges: dict[str, dict[str, int]] = {}
        self._gates: dict[tuple, _RetryGate] = {}

    # -- plumbing -----------------------------------------------------------

    def _now(self, now: Optional[float]) -> float:
        if now is not None:
            return now
        return self.sim.now if self.sim is not None else 0.0

    def edge(self, name: str) -> dict[str, int]:
        counters = self._edges.get(name)
        if counters is None:
            counters = self._edges[name] = {c: 0 for c in EDGE_COUNTERS}
        return counters

    def breaker(self, key: Any) -> CircuitBreaker:
        br = self._breakers.get(key)
        if br is None:
            cfg = self.config
            br = self._breakers[key] = CircuitBreaker(
                cfg.breaker_threshold, cfg.breaker_cooldown,
                cfg.breaker_probes)
        return br

    def health(self, key: Any) -> HealthScore:
        h = self._health.get(key)
        if h is None:
            cfg = self.config
            h = self._health[key] = HealthScore(cfg.health_alpha,
                                                cfg.slow_latency)
        return h

    # -- deadlines ----------------------------------------------------------

    def deadline_expired(self, *, now: Optional[float] = None,
                         deadline: Optional[Deadline] = None) -> bool:
        return deadline is not None and deadline.expired(self._now(now))

    # -- backoff ------------------------------------------------------------

    def backoff_delay(self, failures: int) -> float:
        """Delay before the retry after the ``failures``-th failure."""
        cfg = self.config
        delay = min(cfg.backoff_max,
                    cfg.backoff_base * cfg.backoff_factor ** max(0, failures - 1))
        if cfg.jitter > 0.0 and self._rng is not None:
            delay = delay * (1.0 - cfg.jitter) \
                + self._rng.random() * delay * cfg.jitter
        return delay

    # -- watchdog retry gates ----------------------------------------------

    def retry_ready(self, edge: str, key: Any, *,
                    now: Optional[float] = None) -> bool:
        gate = self._gates.get((edge, key))
        return gate is None or self._now(now) >= gate.retry_at

    def gate_failure(self, edge: str, key: Any, *, now: Optional[float] = None,
                     size_bytes: int = 0) -> float:
        """Record a failed watchdog attempt; returns the next retry time."""
        now = self._now(now)
        counters = self.edge(edge)
        counters["attempts"] += 1
        counters["failures"] += 1
        gate = self._gates.get((edge, key))
        if gate is None:
            gate = self._gates[(edge, key)] = _RetryGate()
        else:
            counters["retries"] += 1
            counters["retry_bytes"] += size_bytes
        gate.failures += 1
        gate.retry_at = now + self.backoff_delay(gate.failures)
        self.breaker(key).record_failure(now)
        self.health(key).record(False)
        return gate.retry_at

    def gate_success(self, edge: str, key: Any, *, latency: float = 0.0,
                     now: Optional[float] = None,
                     size_bytes: int = 0) -> None:
        now = self._now(now)
        counters = self.edge(edge)
        counters["attempts"] += 1
        if self._gates.pop((edge, key), None) is not None:
            counters["retries"] += 1
            counters["retry_bytes"] += size_bytes
        self.breaker(key).record_success(now)
        self.health(key).record(True, latency)

    def clear_gate(self, edge: str, key: Any) -> None:
        """Forget one gate without touching counters (the endpoint was
        seen healthy by some side channel — retry immediately)."""
        self._gates.pop((edge, key), None)

    def reset_gates(self, edge: Optional[str] = None,
                    key: Any = None) -> None:
        """Forget backoff state (e.g. the endpoint restarted: retry now)."""
        if edge is None and key is None:
            self._gates.clear()
            return
        drop = [gk for gk in self._gates
                if (edge is None or gk[0] == edge)
                and (key is None or gk[1] == key)]
        for gk in drop:
            del self._gates[gk]

    # -- attempt gating (sync + driver) ------------------------------------

    def rank_endpoints(self, keys: Sequence[Any], *,
                       now: Optional[float] = None) -> list:
        """Order candidates: closed breakers first, then by health
        score, preserving the given order on ties (fresh endpoints all
        score 1.0, so an untouched list comes back unchanged)."""
        now = self._now(now)

        def sort_key(pair):
            i, k = pair
            br = self._breakers.get(k)
            is_open = 1 if br is not None and br.peek(now) == OPEN else 0
            h = self._health.get(k)
            score = 1.0 if h is None else round(h.score(), 6)
            return (is_open, -score, i)

        return [k for _, k in sorted(enumerate(keys), key=sort_key)]

    def allow_attempt(self, edge: str, key: Any, *, retry: bool = False,
                      size_bytes: int = 0, now: Optional[float] = None,
                      deadline: Optional[Deadline] = None) -> bool:
        """Gate one attempt at ``key``: deadline, breaker, then budget.

        Counts the attempt (and its retry bytes) when granted; counts
        the rejection reason when denied.  A granted attempt MUST be
        settled with :meth:`succeed` or :meth:`fail` (half-open probe
        slots are consumed here)."""
        now = self._now(now)
        counters = self.edge(edge)
        if self.deadline_expired(now=now, deadline=deadline):
            counters["deadline_expired"] += 1
            return False
        if not self.breaker(key).allow(now):
            counters["breaker_rejections"] += 1
            return False
        if retry:
            if not self.budget.try_spend():
                counters["budget_exhausted"] += 1
                return False
            counters["retries"] += 1
            counters["retry_bytes"] += size_bytes
        else:
            self.budget.record_first_try()
        counters["attempts"] += 1
        return True

    def succeed(self, edge: str, key: Any, *, latency: float = 0.0,
                now: Optional[float] = None) -> None:
        now = self._now(now)
        self.breaker(key).record_success(now)
        self.health(key).record(True, latency)
        self._gates.pop((edge, key), None)

    def fail(self, edge: str, key: Any, *, latency: float = 0.0,
             now: Optional[float] = None) -> None:
        now = self._now(now)
        self.edge(edge)["failures"] += 1
        self.breaker(key).record_failure(now)
        self.health(key).record(False, latency)

    # -- async RPC driver ---------------------------------------------------

    def drive(self, edge: str, keys: Sequence[Any],
              start_attempt: Callable[[Any, float], Any], *,
              size_bytes: int = 0, timeout: Optional[float] = None,
              deadline: Optional[Deadline] = None):
        """Drive an async RPC to completion under the policy.

        A generator for ``yield from`` inside a simulation process.
        ``start_attempt(key, attempt_timeout)`` launches one attempt at
        endpoint ``key`` and returns an :class:`EventFlag` that
        triggers with the reply payload — or with an ``Exception``
        instance on timeout/failure (the ``transport.request``
        convention).  Returns ``(ok, value, key, attempts)``.

        The deadline is explicit, never ambient state on the policy,
        which processes that interleave share.  When ``deadline`` is
        None and the config sets one, the operation gets
        ``config.deadline`` seconds from now.
        """
        sim = self.sim
        cfg = self.config
        if deadline is None and cfg.deadline is not None:
            deadline = Deadline.after(sim.now, cfg.deadline)
        counters = self.edge(edge)
        attempts = 0
        last_exc: Optional[Exception] = None
        while attempts < cfg.max_attempts:
            retry = attempts > 0
            if retry:
                delay = self.backoff_delay(attempts)
                if deadline is not None and sim.now + delay >= deadline.at:
                    counters["deadline_expired"] += 1
                    break
                yield Timeout(delay)
            chosen = None
            for key in self.rank_endpoints(keys):
                if self.allow_attempt(edge, key, retry=retry,
                                      size_bytes=size_bytes,
                                      deadline=deadline):
                    chosen = key
                    break
            if chosen is None:
                # every candidate rejected (deadline / breaker / budget)
                break
            per_attempt = timeout if timeout is not None else cfg.op_timeout
            if deadline is not None:
                rem = deadline.remaining(sim.now)
                if rem <= 0.0:
                    counters["deadline_expired"] += 1
                    break
                per_attempt = min(per_attempt, rem)
            started = sim.now
            value = yield start_attempt(chosen, per_attempt)
            latency = sim.now - started
            attempts += 1
            if isinstance(value, Exception):
                self.fail(edge, chosen, latency=latency)
                last_exc = value
                continue
            self.succeed(edge, chosen, latency=latency)
            return True, value, chosen, attempts
        return False, last_exc, None, attempts

    # -- stats --------------------------------------------------------------

    def stats(self) -> dict:
        totals = {c: 0 for c in EDGE_COUNTERS}
        for counters in self._edges.values():
            for c in EDGE_COUNTERS:
                totals[c] += counters[c]
        return {
            "edges": {e: dict(c) for e, c in sorted(self._edges.items())},
            "totals": totals,
            "budget": self.budget.stats(),
            "breakers": {_key_str(k): br.stats()
                         for k, br in sorted(self._breakers.items(),
                                             key=lambda kv: _key_str(kv[0]))},
            "health": {_key_str(k): h.stats()
                       for k, h in sorted(self._health.items(),
                                          key=lambda kv: _key_str(kv[0]))},
        }


def _key_str(key: Any) -> str:
    """Stringify a breaker/health key for JSON-able stats output."""
    if isinstance(key, tuple):
        return "/".join(str(part) for part in key)
    return str(key)


def merge_edge_counters(stats_list: Iterable[dict]) -> dict:
    """Sum the ``totals`` blocks of several ``ResiliencePolicy.stats()``
    dicts — the runner-level rollup."""
    totals = {c: 0 for c in EDGE_COUNTERS}
    for stats in stats_list:
        for c, v in (stats.get("totals") or {}).items():
            if c in totals:
                totals[c] += v
    return totals
