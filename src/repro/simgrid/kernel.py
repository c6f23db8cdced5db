"""Discrete-event simulation kernel.

Everything in this reproduction runs on a single deterministic
discrete-event simulator.  The kernel provides:

* :class:`Simulator` — a priority-queue event loop with virtual time.
* :class:`Process` — generator-based cooperative processes.  A process
  body is a Python generator that ``yield``\\ s one of four waits: a
  bare ``yield`` (a cooperative yield point), a :class:`Timeout`, an
  :class:`EventFlag` (a process's end is its ``done`` flag) or an
  :class:`AllOf`, in the style of SimPy, mpi4py-free and
  dependency-free.  Processes are started and killed, never
  interrupted; yielding anything else throws :class:`SimulationError`
  into the process at its yield point.
* :class:`EventFlag` — a one-shot or reusable synchronization point that
  processes can wait on and that callbacks can be attached to.

Determinism contract
--------------------
Events scheduled for the same virtual time fire in FIFO order of
scheduling (stable tie-break by a monotonically increasing sequence
number), so a run with a fixed RNG seed is fully reproducible.  Tests
and benchmarks rely on this.

The kernel is allocation-light and split into two queues that together
form one totally ordered event sequence:

* a ``heapq`` of ``(time, seq, call)`` tuples for future events, and
* an O(1) FIFO *immediate queue* (a deque) for calls scheduled at the
  current instant — :meth:`EventFlag.trigger` wake-ups, process steps,
  and bare ``yield`` s never touch the heap.

Because virtual time never decreases, immediate-queue entries are
already sorted by ``(time, seq)``; dispatch is a two-way merge of two
sorted sequences, so the executed order is *identical* to the single
heap's ``(time, seq)`` order (the determinism audit in
``tests/scenarios/test_determinism_audit.py`` proves this bit-for-bit).
Cancelled calls are discarded lazily on pop; when cancelled entries
come to dominate the heap (kill-heavy fault runs) it is compacted in
place, and ``pending_events`` is a live O(1) counter.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "Process",
    "Timeout",
    "AllOf",
    "EventFlag",
    "SimulationError",
    "ScheduledCall",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling into the past)."""


# ---------------------------------------------------------------------------
# Wait conditions
# ---------------------------------------------------------------------------


class Timeout:
    """Yielded by a process to sleep for ``delay`` units of virtual time."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0 or math.isnan(delay):
            raise SimulationError(f"negative or NaN timeout: {delay!r}")
        self.delay = delay

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay!r})"


class AllOf:
    """Wait until *all* of the given flags have triggered.

    Resumes with a list of the flags' values in the order given.
    """

    __slots__ = ("flags",)

    def __init__(self, flags: Iterable["EventFlag"]):
        self.flags = tuple(flags)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AllOf({self.flags!r})"


class EventFlag:
    """A triggerable synchronization point.

    A flag starts un-triggered.  :meth:`trigger` wakes every waiting
    process and runs every attached callback.  By default a flag is
    *one-shot*: waiting on an already-triggered flag resumes immediately
    with the stored value.  Pass ``reusable=True`` for a flag that can
    be triggered repeatedly (waiters only see triggers that happen while
    they wait).
    """

    # __weakref__ lets the sanitizer track live flags without pinning them
    __slots__ = ("sim", "name", "reusable", "_triggered", "_value", "_waiters",
                 "_callbacks", "__weakref__")

    def __init__(self, sim: "Simulator", name: str = "", *, reusable: bool = False):
        self.sim = sim
        self.name = name
        self.reusable = reusable
        self._triggered = False
        self._value: Any = None
        self._waiters: list[Callable[[Any], None]] = []
        self._callbacks: list[Callable[[Any], None]] = []
        if sim._sanitize is not None:
            sim._sanitize.track_flag(self)

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        return self._value

    def on_trigger(self, callback: Callable[[Any], None]) -> None:
        """Attach ``callback(value)`` to run at every trigger.

        If the flag already triggered (non-reusable), the callback runs
        immediately via a zero-delay event to preserve ordering.
        """
        if self._triggered and not self.reusable:
            self.sim.call_soon(callback, self._value)
        else:
            self._callbacks.append(callback)

    def _add_waiter(self, resume: Callable[[Any], None]) -> None:
        if self._triggered and not self.reusable:
            self.sim.call_soon(resume, self._value)
        else:
            self._waiters.append(resume)

    def trigger(self, value: Any = None) -> None:
        """Trigger the flag, waking waiters and firing callbacks.

        Wake-ups go through the O(1) immediate queue — triggering a
        flag with W waiters never touches the heap.
        """
        if self._triggered and not self.reusable:
            raise SimulationError(f"flag {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        call_soon = self.sim.call_soon
        waiters, self._waiters = self._waiters, []
        for resume in waiters:
            call_soon(resume, value)
        callbacks = list(self._callbacks)
        if not self.reusable:
            self._callbacks.clear()
        for cb in callbacks:
            call_soon(cb, value)
        if self.reusable:
            # re-arm for the next trigger
            self._triggered = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self._triggered else "pending"
        return f"<EventFlag {self.name!r} {state}>"


class ScheduledCall:
    """Handle for a scheduled callback; allows cancellation.

    A plain slotted object: heap ordering lives in the ``(time, seq,
    call)`` tuples the simulator enqueues (``(time, seq)`` is unique,
    so the call object itself is never compared).  Only the simulator
    makes one, with ``__new__`` and slot stores.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "sim", "in_heap")

    def cancel(self) -> None:
        """Prevent the call from firing (no-op if it already fired)."""
        if self.cancelled or self.sim is None:
            return
        self.cancelled = True
        self.sim._on_cancel(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else (
            "fired" if self.sim is None else "pending")
        return f"<ScheduledCall t={self.time:.6f} seq={self.seq} {state}>"


class Process:
    """A generator-based cooperative process.

    Created via :meth:`Simulator.spawn`.  The ``done`` attribute is an
    :class:`EventFlag` triggered with the generator's return value when
    the process finishes (or with the exception if it died).
    """

    __slots__ = ("sim", "name", "gen", "done", "alive", "failed", "error",
                 "_pending_cancel", "_wait_token")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self.gen = gen
        self.done = EventFlag(sim, name=f"{self.name}.done")
        self.alive = True
        self.failed = False
        self.error: Optional[BaseException] = None
        self._pending_cancel: Optional[ScheduledCall] = None
        #: bumped at every step; flag-waiter resumes registered under an
        #: older token are stale (the process moved on without them) and
        #: must not step it
        self._wait_token = 0

    # -- lifecycle ----------------------------------------------------------

    def _start(self) -> None:
        self.sim.call_soon(self._step, None)

    def _step(self, send_value: Any, *, throw: Optional[BaseException] = None) -> None:
        if not self.alive:
            return
        self._pending_cancel = None
        self._wait_token += 1
        try:
            if throw is not None:
                condition = self.gen.throw(throw)
            else:
                condition = self.gen.send(send_value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - surfaced via .done/.error
            self._finish(None, error=exc, failed=True)
            return
        # kill() cancels a timer wait outright; a flag wait stays
        # registered (flags keep no per-waiter handles) and the dead
        # process ignores its wake-up
        if condition is None:
            self._pending_cancel = self.sim.call_soon(self._step, None)
        elif type(condition) is Timeout:
            self._pending_cancel = self.sim.call_in(
                condition.delay, self._step, None)
        elif type(condition) is EventFlag:
            if condition.sim is not self.sim:
                self._guard_world(condition)
            condition._add_waiter(self._flag_resume())
        elif type(condition) is AllOf:
            self._wait_all(condition.flags)
        else:
            self._step(None, throw=SimulationError(
                f"process {self.name!r} yielded unsupported condition {condition!r}"))

    def _guard_world(self, obj: Any) -> None:
        """A wait target belongs to a different simulator.

        Historically this "worked" silently — the waiter was parked on
        the other world's flag and either never fired or fired at that
        world's virtual time, corrupting both event orders.  Under the
        sanitizer it is a hard error; without it the legacy behavior is
        preserved (some tests deliberately bridge worlds).
        """
        san = self.sim._sanitize
        if san is not None:
            san.cross_world(self, obj)

    def _flag_resume(self) -> Callable[[Any], None]:
        """A waiter callback valid only for the current wait.

        If the process moved on before the flag fired, the token no
        longer matches and the wake-up is dropped instead of stepping
        the process at some unrelated wait point.  No wait leaves its
        process that way today (a killed process is simply dead), so
        this is a guard, and the sanitizer's stale-waiter check its
        audit.
        """
        token = self._wait_token

        def resume(value: Any) -> None:
            if token == self._wait_token and self.alive:
                self._step(value)
        if self.sim._sanitize is not None:
            # stamp the closure so the sanitizer can map queued waiters
            # back to (process, wait-token) at teardown
            resume.__repro_proc__ = self
            resume.__repro_token__ = token
        return resume

    def _wait_all(self, flags: tuple) -> None:
        remaining = len(flags)
        values: list[Any] = [None] * len(flags)
        if remaining == 0:
            self._pending_cancel = self.sim.call_soon(self._step, [])
            return
        token = self._wait_token

        def make_cb(i: int) -> Callable[[Any], None]:
            def cb(value: Any) -> None:
                nonlocal remaining
                if token != self._wait_token or not self.alive:
                    return  # stale: the process moved on
                values[i] = value
                remaining -= 1
                if remaining == 0:
                    self._step(values)
            if self.sim._sanitize is not None:
                cb.__repro_proc__ = self
                cb.__repro_token__ = token
            return cb

        for i, flag in enumerate(flags):
            if flag.sim is not self.sim:
                self._guard_world(flag)
            flag._add_waiter(make_cb(i))

    def _finish(self, value: Any, *, error: Optional[BaseException] = None,
                failed: bool = False) -> None:
        self.alive = False
        self.failed = failed
        self.error = error
        self.sim._live_processes.discard(self)
        if failed and error is not None:
            self.sim._record_crash(self, error)
        self.done.trigger(value if error is None else error)

    # -- external control ---------------------------------------------------

    def kill(self) -> None:
        """Terminate the process without running any more of its body."""
        if not self.alive:
            return
        if self._pending_cancel is not None:
            self._pending_cancel.cancel()
        self.gen.close()
        self._finish(None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else ("failed" if self.failed else "done")
        return f"<Process {self.name!r} {state}>"


class Simulator:  # repro: noqa[SLOT001] — one per world, not per event
    """The discrete-event loop.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield Timeout(1.5)
            ...

        sim.spawn(worker(sim), name="worker")
        sim.run(until=100.0)
    """

    #: heap compaction: rebuild once cancelled entries exceed this count
    #: AND at least half the heap (lazy deletion stays O(1) per cancel,
    #: but kill-heavy fault runs must not leak cancelled calls until
    #: their pop time comes around)
    COMPACT_MIN_CANCELLED = 64

    def __init__(self, *, strict: bool = True,
                 sanitize: Optional[bool] = None):
        #: dynamic sanitizer state, or None when off.  ``sanitize=None``
        #: defers to the ``REPRO_SANITIZE`` environment variable, so a
        #: whole test run can be put under the sanitizer without code
        #: changes.  Must be set before any EventFlag is created.
        if sanitize is None:
            from ..analysis.sanitizer import env_enabled
            sanitize = env_enabled()
        if sanitize:
            from ..analysis.sanitizer import SanitizerState
            self._sanitize: Optional[Any] = SanitizerState(self)
        else:
            self._sanitize = None
        #: current virtual time (seconds)
        self.now: float = 0.0
        #: raise on process crash immediately (strict) or record and continue
        self.strict = strict
        #: total events dispatched over this simulator's lifetime
        self.events_executed: int = 0
        #: future events: (time, seq, ScheduledCall) tuples
        self._heap: list[tuple[float, int, ScheduledCall]] = []
        #: calls scheduled at the current instant, FIFO.  Virtual time
        #: never decreases, so this deque is always (time, seq)-sorted
        #: and dispatch is a two-way sorted merge with the heap.
        self._immediate: deque[ScheduledCall] = deque()
        self._seq = 0
        self._pending = 0          # live (non-cancelled) scheduled calls
        self._heap_cancelled = 0   # cancelled entries still in the heap
        self._serials: dict[str, int] = {}
        self._live_processes: set[Process] = set()
        self._crashes: list[tuple[Process, BaseException]] = []
        self._running = False
        self._stopped = False
        #: exclusive bound on the time of the run's next dispatch but for
        #: the queues: just past ``until`` (``inf`` without one), or None
        #: outside :meth:`run` and in a run bounded by ``max_events``
        self._horizon: Optional[float] = None

    def serial(self, kind: str) -> int:
        """Next id in a per-simulation numbered sequence (1-based).

        Object names derived from these ids seed per-name random
        streams, so they must not depend on how many simulations ran
        earlier in the same process.
        """
        n = self._serials.get(kind, 0) + 1
        self._serials[kind] = n
        return n

    # -- scheduling ---------------------------------------------------------

    def call_at(self, when: float, fn: Callable, *args: Any) -> ScheduledCall:
        """Schedule ``fn(*args)`` at absolute virtual time ``when``."""
        now = self.now
        if when < now:
            raise SimulationError(
                f"cannot schedule into the past ({when} < now={now})")
        self._seq = seq = self._seq + 1
        # allocation fast path: __new__ + slot stores skips the __init__
        # call frame, which is measurable at millions of events/run
        call = ScheduledCall.__new__(ScheduledCall)
        call.sim = self
        call.time = when
        call.seq = seq
        call.fn = fn
        call.args = args
        call.cancelled = False
        if when == now:
            call.in_heap = False
            self._immediate.append(call)
        else:
            call.in_heap = True
            heapq.heappush(self._heap, (when, seq, call))
        self._pending += 1
        return call

    def call_in(self, delay: float, fn: Callable, *args: Any) -> ScheduledCall:
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        return self.call_at(self.now + delay, fn, *args)

    def call_soon(self, fn: Callable, *args: Any) -> ScheduledCall:
        """Schedule ``fn(*args)`` at the current instant — O(1), no heap.

        Equivalent to ``call_in(0.0, ...)`` (which also takes this
        path); same-instant calls fire in FIFO scheduling order, after
        every event already queued for this instant.
        """
        self._seq = seq = self._seq + 1
        call = ScheduledCall.__new__(ScheduledCall)
        call.sim = self
        call.time = self.now
        call.seq = seq
        call.fn = fn
        call.args = args
        call.cancelled = False
        call.in_heap = False
        self._immediate.append(call)
        self._pending += 1
        return call

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a new process from a generator."""
        proc = Process(self, gen, name=name)
        self._live_processes.add(proc)
        proc._start()
        return proc

    def flag(self, name: str = "", *, reusable: bool = False) -> EventFlag:
        """Create an :class:`EventFlag` bound to this simulator."""
        return EventFlag(self, name=name, reusable=reusable)

    # -- dynamic sanitizer ---------------------------------------------------

    def sanitize_check(self, *, raise_on_violation: bool = True) -> list[str]:
        """Run the sanitizer's teardown checks (no-op list when off).

        Intended to run after the simulation finishes: verifies queue
        invariants, and looks for orphaned timers, stale flag waiters,
        and leaked subscription handles.  Raises
        :class:`repro.analysis.sanitizer.SanitizeError` on violation
        unless ``raise_on_violation=False``.
        """
        if self._sanitize is None:
            return []
        return self._sanitize.check(raise_on_violation=raise_on_violation)

    def sanitizer_stats(self) -> dict:
        """Counter snapshot from the sanitizer (empty dict when off)."""
        if self._sanitize is None:
            return {}
        return self._sanitize.stats()

    # -- execution ----------------------------------------------------------

    def run(self, until: Optional[float] = None, *, max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the virtual time at which the run stopped.  An
        ``until`` before the current time is an error, as scheduling
        into the past is: the clock never moves back.
        """
        if self._running:
            raise SimulationError("run() re-entered")
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until the past ({until} < now={self.now})")
        self._running = True
        self._stopped = False
        if max_events is None:
            self._horizon = math.inf if until is None \
                else math.nextafter(until, math.inf)
        events = 0
        imm = self._immediate
        heap = self._heap
        heappop = heapq.heappop
        unbounded = until is None and max_events is None
        try:
            while not self._stopped:
                # discard cancelled heads before the horizon check: a
                # cancelled call at t <= until must not let the loop run
                # a live event scheduled past the horizon — this holds
                # for the immediate queue exactly as it did for the heap
                while imm and imm[0].cancelled:
                    imm.popleft()
                while heap and heap[0][2].cancelled:
                    heappop(heap)
                    self._heap_cancelled -= 1
                # next live event: two-way merge of the sorted queues
                if imm:
                    call = imm[0]
                    if heap:
                        head = heap[0]
                        if head[0] < call.time or (head[0] == call.time
                                                   and head[1] < call.seq):
                            call = head[2]
                elif heap:
                    call = heap[0][2]
                else:
                    break
                if not unbounded:
                    if until is not None and call.time > until:
                        self.now = until
                        break
                    if max_events is not None and events >= max_events:
                        break
                if call.in_heap:
                    heappop(heap)
                else:
                    imm.popleft()
                events += 1
                self.now = call.time
                self._pending -= 1
                call.sim = None  # fired: cancel() is a no-op from here on
                call.fn(*call.args)
                if self._crashes and self.strict:
                    self._maybe_raise_crash()
        finally:
            self._running = False
            self._horizon = None
            self.events_executed += events
        if until is not None and not imm and not heap and self.now < until:
            # drained early: advance the clock to the requested horizon
            self.now = until
        return self.now

    def stop(self) -> None:
        """Stop :meth:`run` after the current event completes."""
        self._stopped = True

    def run_ahead_limit(self) -> float:
        """An exclusive time bound ``L``: a call scheduled now at any
        ``t`` with ``now < t < L`` would be the very next dispatch.

        So a timer whose work schedules nothing may do each of its ticks
        below ``L`` inline and re-arm once, with the outcome of one
        dispatch a tick (inline ticks are not in ``events_executed``);
        its last tick, which does not re-arm, must be a dispatch, since
        only a dispatch moves the clock.  ``L`` is the heap head's time
        (a cancelled head only lowers it) or just past ``until``; it is
        strict because at equal times the queued call, with the lower
        seq, goes first — SimPy's FIFO rule, which this kernel keeps.
        ``L`` is ``now`` outside :meth:`run`, in a ``max_events`` run,
        after :meth:`stop`, and while a call waits in the immediate
        queue."""
        horizon = self._horizon
        if horizon is None or self._immediate or self._stopped:
            return self.now
        heap = self._heap
        if heap and heap[0][0] < horizon:
            return heap[0][0]
        return horizon

    # -- cancellation accounting -------------------------------------------

    def _on_cancel(self, call: ScheduledCall) -> None:
        """Bookkeeping for :meth:`ScheduledCall.cancel` (lazy deletion)."""
        self._pending -= 1
        if call.in_heap:
            n = self._heap_cancelled = self._heap_cancelled + 1
            if n >= self.COMPACT_MIN_CANCELLED and 2 * n >= len(self._heap):
                self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.

        In-place (slice assignment) because :meth:`run` holds a local
        reference to the heap list.  (time, seq) keys are unique, so
        pop order — and therefore determinism — is unaffected by the
        rebuilt layout.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._heap_cancelled = 0

    # -- diagnostics --------------------------------------------------------

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled) scheduled calls — an O(1) counter."""
        return self._pending

    @property
    def live_processes(self) -> frozenset:
        return frozenset(self._live_processes)

    @property
    def crashes(self) -> list:
        """(process, exception) pairs recorded in non-strict mode."""
        return list(self._crashes)

    def _record_crash(self, proc: Process, error: BaseException) -> None:
        self._crashes.append((proc, error))

    def _maybe_raise_crash(self) -> None:
        if self.strict and self._crashes:
            proc, error = self._crashes[0]
            raise SimulationError(
                f"process {proc.name!r} crashed: {error!r}") from error

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self.now:.6f} queue={self.pending_events}>"
