"""The dynamic sanitizer: kernel/world hygiene asserted at teardown.

The static rules in :mod:`repro.analysis.rules` catch what the AST can
see; this module catches what only a *run* can see — the stale-waiter
and orphaned-timer kernel bugs PR 5 fixed by hand, the stale
subscription handles PR 2/4 fixed by hand, and cross-world object
sharing (the PR 1/2 id-leak class, generalized to object graphs).

Enable it per world (``GridWorld(sanitize=True)`` /
``Simulator(sanitize=True)``) or process-wide (``REPRO_SANITIZE=1``).
While enabled, the kernel:

* registers every :class:`EventFlag` and every
  :class:`~repro.core.subscriptions.SubscriptionHandle` opened by a
  gateway with this state object (weakly — tracking keeps nothing
  alive);
* stamps flag-waiter callbacks with their process and wait token so
  teardown can *see* a stale registration;
* rejects cross-world waits immediately (a process yielding a flag of
  another simulator raises :class:`SanitizeError` at the wait point,
  where the stack still names the culprit).

``Simulator.sanitize_check()`` (or ``GridWorld.sanitize_check()``) then
audits, raising :class:`SanitizeError` listing every violation:

1. **queue accounting** — ``pending_events`` equals the live calls
   actually queued, the cancelled-entry counter matches the heap, the
   heap satisfies the heap property, and the immediate deque is
   (time, seq)-sorted;
2. **orphaned timers** — no queued, non-cancelled call would step a
   dead process;
3. **stale waiters** — no flag holds a waiter for a live process whose
   wait token has moved on (such a wake-up would resume the process at
   an unrelated wait point); waiters of dead processes are counted
   (``inert_waiters``) but tolerated — they are unreachable and inert;
4. **subscription handles** — every tracked handle agrees with its
   gateway: a closed/reaped handle is deregistered, a live handle is
   registered, and the gateway's two registration structures
   (``_subs`` and the per-sensor lists) mirror each other.

The checks run *after* the run, so sanitize mode never perturbs event
order: scenario digests are bit-identical with it on or off (tier-1
asserts this).
"""

from __future__ import annotations

import weakref
from typing import Any, Optional

__all__ = ["SanitizeError", "SanitizerState"]


class SanitizeError(AssertionError):
    """A sanitizer invariant failed.  Subclasses AssertionError so test
    frameworks report it as a failed assertion, not an error."""


class SanitizerState:
    """Per-simulator sanitizer bookkeeping + the teardown audit."""

    def __init__(self, sim: Any):
        self.sim = sim
        self._flags: "weakref.WeakSet" = weakref.WeakSet()
        self._handles: "weakref.WeakSet" = weakref.WeakSet()
        self.counters: dict[str, int] = {
            "flags_tracked": 0,
            "handles_tracked": 0,
            "checks_run": 0,
            "violations": 0,
            "inert_waiters": 0,
            "cross_world_blocked": 0,
        }

    # -- tracking (called by the kernel / gateway) --------------------------

    def track_flag(self, flag: Any) -> None:
        self._flags.add(flag)
        self.counters["flags_tracked"] += 1

    def track_handle(self, handle: Any) -> None:
        self._handles.add(handle)
        self.counters["handles_tracked"] += 1

    def cross_world(self, owner: Any, obj: Any) -> None:
        """A process touched a kernel object stamped with another
        simulator.  Raises immediately: the wait point names the bug."""
        self.counters["cross_world_blocked"] += 1
        self.counters["violations"] += 1
        owner_name = getattr(owner, "name", owner)
        raise SanitizeError(
            f"cross-world object sharing: {owner_name!r} (sim "
            f"{id(self.sim):#x}) waited on {obj!r} belonging to a "  # repro: noqa[DET004] — diagnostic text, never persisted
            f"different simulator — kernel objects must not cross worlds")

    # -- the audit ----------------------------------------------------------

    def check(self, *, raise_on_violation: bool = True) -> list[str]:
        """Run every teardown check; returns the violation list."""
        self.counters["checks_run"] += 1
        violations: list[str] = []
        violations.extend(self._check_queues())
        violations.extend(self._check_orphaned_timers())
        violations.extend(self._check_stale_waiters())
        violations.extend(self._check_handles())
        self.counters["violations"] += len(violations)
        if violations and raise_on_violation:
            detail = "\n".join(f"  - {v}" for v in violations)
            raise SanitizeError(
                f"sanitizer: {len(violations)} violation(s) at "
                f"teardown\n{detail}")
        return violations

    # -- 1: queue accounting ------------------------------------------------

    def _check_queues(self) -> list[str]:
        sim = self.sim
        problems: list[str] = []
        heap = sim._heap
        imm = sim._immediate
        live = sum(1 for entry in heap if not entry[2].cancelled) \
            + sum(1 for call in imm if not call.cancelled)
        if live != sim._pending:
            problems.append(
                f"pending_events counter {sim._pending} != {live} live "
                f"queued calls (leaked or double-counted cancellation)")
        cancelled_in_heap = sum(1 for entry in heap if entry[2].cancelled)
        if cancelled_in_heap != sim._heap_cancelled:
            problems.append(
                f"heap-cancelled counter {sim._heap_cancelled} != "
                f"{cancelled_in_heap} cancelled entries actually in heap")
        for i in range(1, len(heap)):
            parent = (i - 1) >> 1
            if heap[i][:2] < heap[parent][:2]:
                problems.append(
                    f"heap property violated at index {i} "
                    f"({heap[i][:2]} < parent {heap[parent][:2]})")
                break
        last = None
        for call in imm:
            key = (call.time, call.seq)
            if last is not None and key < last:
                problems.append(
                    f"immediate deque out of (time, seq) order "
                    f"({key} after {last})")
                break
            last = key
        return problems

    # -- 2: orphaned timers --------------------------------------------------

    def _check_orphaned_timers(self) -> list[str]:
        problems: list[str] = []
        sim = self.sim
        queued = [entry[2] for entry in sim._heap]
        queued.extend(sim._immediate)
        for call in queued:
            if call.cancelled:
                continue
            proc = getattr(call.fn, "__self__", None)
            if proc is None or not hasattr(proc, "alive") \
                    or not hasattr(proc, "_wait_token"):
                continue
            if not proc.alive:
                problems.append(
                    f"orphaned timer: {call!r} would step dead process "
                    f"{getattr(proc, 'name', proc)!r}")
        return problems

    # -- 3: stale waiters ----------------------------------------------------

    def _check_stale_waiters(self) -> list[str]:
        problems: list[str] = []
        for flag in sorted(self._flags, key=lambda f: (f.name, id(f))):  # repro: noqa[DET004] — diagnostic-only tie-break
            for waiter in flag._waiters:
                proc = getattr(waiter, "__repro_proc__", None)
                if proc is None:
                    continue
                if not proc.alive:
                    self.counters["inert_waiters"] += 1
                    continue
                token = getattr(waiter, "__repro_token__", None)
                if token is not None and token != proc._wait_token:
                    problems.append(
                        f"stale waiter: flag {flag.name!r} still holds a "
                        f"resume for live process {proc.name!r} registered "
                        f"under wait token {token} (now "
                        f"{proc._wait_token}) — a trigger would resume it "
                        f"at an unrelated wait point")
        return problems

    # -- 4: subscription handles ---------------------------------------------

    def _check_handles(self) -> list[str]:
        problems: list[str] = []
        gateways: dict[int, Any] = {}
        handles = sorted(self._handles,
                         key=lambda h: (getattr(h.gateway, "name", ""),
                                        h.sub_id))
        for handle in handles:
            gateway = handle.gateway
            subs = getattr(gateway, "_subs", None)
            if subs is None:
                continue
            gateways.setdefault(id(gateway), gateway)  # repro: noqa[DET004] — in-process dedup key, never persisted
            registered = handle.sub_id in subs
            if handle.closed and registered:
                problems.append(
                    f"leaked subscription: handle #{handle.sub_id} "
                    f"({handle.sensor!r}) is closed but gateway "
                    f"{gateway.name!r} still has it registered")
            elif not handle.closed and not handle.reaped and not registered:
                problems.append(
                    f"leaked handle: #{handle.sub_id} ({handle.sensor!r}) "
                    f"believes it is open but gateway {gateway.name!r} "
                    f"dropped it without close/reap")
        for gateway in sorted(gateways.values(),
                              key=lambda g: getattr(g, "name", "")):
            problems.extend(self._check_gateway_structures(gateway))
        return problems

    @staticmethod
    def _check_gateway_structures(gateway: Any) -> list[str]:
        problems: list[str] = []
        subs = getattr(gateway, "_subs", {})
        sensor_handles = getattr(gateway, "_handles", {})
        listed: dict[int, str] = {}
        for sensor_name in sorted(sensor_handles):
            sensor_handle = sensor_handles[sensor_name]
            for sub in sensor_handle.subscriptions:
                listed[sub.sub_id] = sensor_name
        for sub_id in sorted(subs):
            if sub_id not in listed:
                problems.append(
                    f"gateway {gateway.name!r}: subscription #{sub_id} in "
                    f"_subs but in no sensor's fan-out list")
        for sub_id in sorted(listed):
            if sub_id not in subs:
                problems.append(
                    f"gateway {gateway.name!r}: subscription #{sub_id} in "
                    f"sensor {listed[sub_id]!r} fan-out list but not in "
                    f"_subs")
        return problems

    # -- reporting -----------------------------------------------------------

    def stats(self) -> dict:
        """Counter snapshot (soak runs export this)."""
        snap = dict(self.counters)
        snap["flags_live"] = len(self._flags)
        snap["handles_live"] = len(self._handles)
        return snap


def env_enabled(environ: Optional[dict] = None) -> bool:
    """The ``REPRO_SANITIZE`` process-wide hook (1/true/yes/on)."""
    import os
    env = environ if environ is not None else os.environ
    return str(env.get("REPRO_SANITIZE", "")).lower() in (
        "1", "true", "yes", "on")
