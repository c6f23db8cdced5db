"""Unit tests for the discrete-event kernel."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simgrid import AllOf, EventFlag, SimulationError, Simulator, Timeout


class TestScheduling:
    def test_call_in_runs_at_right_time(self, sim):
        seen = []
        sim.call_in(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_call_at_absolute_time(self, sim):
        seen = []
        sim.call_at(7.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.0]

    def test_same_time_events_fire_fifo(self, sim):
        order = []
        for i in range(10):
            sim.call_in(1.0, order.append, i)
        sim.run()
        assert order == list(range(10))

    def test_cannot_schedule_into_past(self, sim):
        sim.call_in(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(0.5, lambda: None)

    def test_cancel_prevents_execution(self, sim):
        seen = []
        call = sim.call_in(1.0, seen.append, "x")
        call.cancel()
        sim.run()
        assert seen == []

    def test_run_until_stops_clock_at_horizon(self, sim):
        sim.call_in(100.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 10.0
        assert sim.pending_events == 1

    def test_run_until_advances_clock_when_queue_drains(self, sim):
        sim.call_in(1.0, lambda: None)
        sim.run(until=50.0)
        assert sim.now == 50.0

    def test_stop_halts_run(self, sim):
        seen = []
        sim.call_in(1.0, lambda: (seen.append(1), sim.stop()))
        sim.call_in(2.0, seen.append, 2)
        sim.run()
        assert seen == [(None, None)] or len(seen) == 1

    def test_max_events_bounds_run(self, sim):
        seen = []
        for i in range(5):
            sim.call_in(float(i + 1), seen.append, i)
        sim.run(max_events=3)
        assert len(seen) == 3

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-1.0)


class TestProcesses:
    def test_process_timeout_sequence(self, sim):
        trace = []

        def proc():
            trace.append(sim.now)
            yield Timeout(1.0)
            trace.append(sim.now)
            yield Timeout(2.5)
            trace.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert trace == [0.0, 1.0, 3.5]

    def test_process_return_value_on_done_flag(self, sim):
        def proc():
            yield Timeout(1.0)
            return 42

        p = sim.spawn(proc())
        sim.run()
        assert p.done.triggered
        assert p.done.value == 42
        assert not p.alive

    def test_wait_event_resumes_with_value(self, sim):
        """A process parked on a flag resumes at the trigger's instant
        with the trigger's value, not at the end of the run."""
        flag = sim.flag("data")
        got = []

        def waiter():
            value = yield flag
            got.append((value, sim.now))

        sim.spawn(waiter())
        sim.call_in(3.0, flag.trigger, "payload")
        sim.call_in(5.0, lambda: None)
        sim.run()
        assert got == [("payload", 3.0)]
        assert sim.now == 5.0

    def test_yielding_flag_directly_works(self, sim):
        flag = sim.flag()
        got = []

        def waiter():
            got.append((yield flag))

        sim.spawn(waiter())
        sim.call_in(1.0, flag.trigger, 7)
        sim.run()
        assert got == [7]
        assert sim.now == 1.0

    def test_wait_on_already_triggered_flag_resumes_immediately(self, sim):
        flag = sim.flag()
        flag.trigger("early")
        got = []

        def waiter():
            got.append((yield flag))

        sim.spawn(waiter())
        sim.run()
        assert got == ["early"]

    def test_wait_on_other_process(self, sim):
        def worker():
            yield Timeout(2.0)
            return "done"

        results = []

        def boss():
            w = sim.spawn(worker())
            value = yield w.done
            results.append((sim.now, value))

        sim.spawn(boss())
        sim.run()
        assert results == [(2.0, "done")]

    def test_all_of_waits_for_every_flag(self, sim):
        flags = [sim.flag(str(i)) for i in range(3)]
        got = []

        def waiter():
            values = yield AllOf(flags)
            got.append((sim.now, values))

        sim.spawn(waiter())
        for i, f in enumerate(flags):
            sim.call_in(float(i + 1), f.trigger, i * 10)
        sim.run()
        assert got == [(3.0, [0, 10, 20])]

    def test_kill_terminates_without_running_body(self, sim):
        trace = []

        def proc():
            yield Timeout(10.0)
            trace.append("never")

        p = sim.spawn(proc())
        sim.call_in(1.0, p.kill)
        sim.run()
        assert trace == []
        assert not p.alive

    def test_crash_raises_in_strict_mode(self, sim):
        def bad():
            yield Timeout(1.0)
            raise ValueError("boom")

        sim.spawn(bad())
        with pytest.raises(SimulationError, match="boom"):
            sim.run()

    def test_crash_recorded_in_nonstrict_mode(self):
        sim = Simulator(strict=False)

        def bad():
            yield Timeout(1.0)
            raise ValueError("boom")

        p = sim.spawn(bad())
        sim.run()
        assert len(sim.crashes) == 1
        assert p.failed
        assert isinstance(p.error, ValueError)

    def test_bare_yield_is_cooperative_point(self, sim):
        trace = []

        def proc():
            trace.append("a")
            yield
            trace.append("b")

        sim.spawn(proc())
        sim.run()
        assert trace == ["a", "b"]
        assert sim.now == 0.0

    @pytest.mark.parametrize("target", ["process", "object", "flag list"])
    def test_unsupported_yield_kills_process_at_its_yield_point(self, target):
        """Only a bare yield, Timeout, EventFlag and AllOf are waits; a
        process (wait on its ``done`` flag instead) or any other object
        throws SimulationError into the process where it yielded, so its
        ``finally`` runs and it dies failed."""
        sim = Simulator(strict=False)

        def idle():
            yield Timeout(5.0)

        wait = {"process": sim.spawn(idle()), "object": object(),
                "flag list": [sim.flag("a")]}[target]
        trace = []

        def proc():
            try:
                yield Timeout(1.0)
                trace.append("waiting")
                yield wait
                trace.append("resumed")
            finally:
                trace.append(("finally", sim.now))

        p = sim.spawn(proc())
        sim.run()
        assert trace == ["waiting", ("finally", 1.0)]
        assert p.failed and not p.alive
        assert isinstance(p.error, SimulationError)
        assert "unsupported condition" in str(p.error)
        assert sim.pending_events == 0

    def test_unsupported_yield_can_be_caught_at_the_yield_point(self, sim):
        caught = []

        def proc():
            try:
                yield "not a wait"
            except SimulationError as exc:
                caught.append((sim.now, "unsupported" in str(exc)))
            yield Timeout(2.0)
            return "carried on"

        p = sim.spawn(proc())
        sim.run()
        assert caught == [(0.0, True)]
        assert p.done.value == "carried on" and not p.failed

    def test_live_processes_tracking(self, sim):
        def proc():
            yield Timeout(5.0)

        p = sim.spawn(proc())
        assert p in sim.live_processes
        sim.run()
        assert p not in sim.live_processes


class TestEventFlag:
    def test_double_trigger_raises(self, sim):
        flag = sim.flag()
        flag.trigger()
        with pytest.raises(SimulationError):
            flag.trigger()

    def test_reusable_flag_triggers_repeatedly(self, sim):
        flag = sim.flag(reusable=True)
        seen = []
        flag.on_trigger(seen.append)
        flag.trigger(1)
        flag.trigger(2)
        sim.run()
        assert seen == [1, 2]

    def test_callback_on_already_triggered_flag_fires(self, sim):
        flag = sim.flag()
        flag.trigger("v")
        seen = []
        flag.on_trigger(seen.append)
        sim.run()
        assert seen == ["v"]

    def test_callbacks_and_waiters_fire_in_order(self, sim):
        flag = sim.flag()
        order = []

        def waiter():
            yield flag
            order.append("waiter")

        sim.spawn(waiter())
        flag.on_trigger(lambda _v: order.append("callback"))
        sim.call_in(1.0, flag.trigger)
        sim.run()
        assert order == ["waiter", "callback"]


class TestImmediateQueue:
    """The O(1) zero-delay fast path must be observationally identical
    to the old all-heap kernel (FIFO seq ordering included)."""

    def test_call_soon_runs_this_instant_in_fifo(self, sim):
        order = []
        sim.call_soon(order.append, 1)
        sim.call_in(0.0, order.append, 2)     # same path as call_soon
        sim.call_soon(order.append, 3)
        sim.run()
        assert order == [1, 2, 3]
        assert sim.now == 0.0

    def test_zero_delay_interleaves_with_same_time_heap_events(self, sim):
        """An immediate call queued at time t fires after heap events
        already scheduled for exactly t with smaller seq — the merged
        order is the single heap's (time, seq) order, not 'immediate
        first'."""
        order = []

        def a():
            order.append("a")
            sim.call_soon(order.append, "b")  # seq AFTER c's

        sim.call_at(1.0, a)
        sim.call_at(1.0, order.append, "c")
        sim.run()
        assert order == ["a", "c", "b"]

    def test_cancelled_immediate_head_does_not_leak_events_past_until(self):
        """The immediate-queue analog of the PR-4 heap regression: a
        cancelled zero-delay call at the queue head must not let run()
        execute a live event scheduled past the horizon."""
        sim = Simulator()
        fired = []
        doomed = sim.call_soon(fired.append, "doomed")
        sim.call_in(4.0, fired.append, "late")
        doomed.cancel()
        sim.run(until=3.0)
        assert fired == []
        assert sim.now == 3.0
        sim.run(until=5.0)
        assert fired == ["late"]

    def test_kill_races_zero_delay_resume(self, sim):
        """A process parked on a bare `yield` (its resume already queued)
        and killed in the same instant runs no more of its body: kill
        cancels the queued resume, and only the ``finally`` runs."""
        trace = []

        def proc():
            try:
                yield          # zero-delay resume goes on the immediate queue
                trace.append("resumed")
            finally:
                trace.append(("finally", sim.now))

        p = sim.spawn(proc())
        sim.call_soon(p.kill)  # queued before the resume the step will queue
        sim.run()
        assert trace == [("finally", 0.0)]
        assert not p.alive and sim.pending_events == 0
        assert sim.events_executed == 2   # the first step and the kill

    def test_interrupted_flag_wait_leaves_no_stale_waiter(self, sim):
        """A process taken out of a flag wait (kill is the one control
        that does so) must not be stepped by a later trigger of that
        flag: its registration stays on the flag but is inert."""
        flag = sim.flag("never-mind")
        trace = []

        def proc():
            try:
                yield flag
                trace.append("flag-resumed")
            finally:
                trace.append(("finally", sim.now))

        p = sim.spawn(proc())
        sim.call_in(1.0, p.kill)
        sim.call_in(2.0, flag.trigger, "late")   # stale for p
        sim.run()
        assert trace == [("finally", 1.0)]
        assert not p.alive and not p.failed
        assert flag.triggered and sim.pending_events == 0

    def test_same_instant_flag_resume_then_kill_cancels_new_timer(self, sim):
        """If a flag resume and a kill land in the same instant (resume
        first), the resumed step parks the process on a fresh Timeout
        before the kill runs.  The kill must cancel that timer, not
        orphan it."""
        f = sim.flag("f")
        trace = []

        def proc():
            v = yield f
            trace.append(("f", v, sim.now))
            yield Timeout(10.0)          # parked again, same instant
            trace.append(("timeout", sim.now))

        p = sim.spawn(proc())

        def fire():
            f.trigger("v")          # resume queued first ...
            sim.call_soon(p.kill)   # ... kill queued second, same instant

        sim.call_in(5.0, fire)
        sim.run(until=6.0)
        assert trace == [("f", "v", 5.0)]
        assert not p.alive and sim.pending_events == 0   # no timer at 15

    def test_killed_all_of_wait_ignores_later_triggers(self, sim):
        """A process killed while some of its AllOf flags are still
        pending is not stepped when they fire."""
        a, b = sim.flag("a"), sim.flag("b")
        trace = []

        def proc():
            trace.append((yield AllOf([a, b])))

        p = sim.spawn(proc())
        sim.call_in(1.0, a.trigger, 1)
        sim.call_in(2.0, p.kill)
        sim.call_in(3.0, b.trigger, 2)
        sim.run()
        assert trace == []
        assert not p.alive and not p.failed

    def test_reusable_flag_same_instant_trigger_ordering(self, sim):
        """Two same-instant triggers of a reusable flag keep FIFO order:
        each trigger's wake-ups fire before the next trigger's."""
        flag = sim.flag("tick", reusable=True)
        seen = []
        flag.on_trigger(lambda v: seen.append(("cb", v)))

        def waiter():
            seen.append(("wait", (yield flag)))

        sim.spawn(waiter())

        def fire_twice():
            flag.trigger(1)
            flag.trigger(2)

        sim.call_in(1.0, fire_twice)
        sim.run()
        # the waiter was waiting only for the first trigger; the callback
        # sees both, in trigger order
        assert seen == [("wait", 1), ("cb", 1), ("cb", 2)]


class TestAccounting:
    def test_pending_events_is_live_counter(self, sim):
        calls = [sim.call_in(float(i + 1), lambda: None) for i in range(5)]
        imm = sim.call_soon(lambda: None)
        assert sim.pending_events == 6
        calls[2].cancel()
        assert sim.pending_events == 5
        calls[2].cancel()  # idempotent
        assert sim.pending_events == 5
        imm.cancel()
        assert sim.pending_events == 4
        sim.run()
        assert sim.pending_events == 0

    def test_cancel_after_fire_is_a_noop(self, sim):
        fired = []
        call = sim.call_in(1.0, fired.append, "x")
        sim.run()
        call.cancel()  # already fired: must not corrupt the counter
        assert fired == ["x"]
        assert sim.pending_events == 0

    def test_events_executed_counts_live_events_only(self, sim):
        for i in range(4):
            sim.call_in(float(i + 1), lambda: None)
        sim.call_in(2.5, lambda: None).cancel()
        sim.call_soon(lambda: None)
        sim.run()
        assert sim.events_executed == 5

    def test_heap_compaction_reclaims_cancelled_entries(self):
        """Kill-heavy runs cancel far-future timers en masse;
        the heap must shrink without waiting for their pop time."""
        sim = Simulator()
        keep = []
        calls = [sim.call_in(1000.0 + i, keep.append, i) for i in range(500)]
        for i, call in enumerate(calls):
            if i % 10 != 0:
                call.cancel()
        # lazy deletion compacted the heap in place (50 live + slack)
        assert sim.pending_events == 50
        assert len(sim._heap) < 200
        sim.run()
        assert keep == [i for i in range(500) if i % 10 == 0]

    def test_compaction_preserves_order_and_counter(self):
        sim = Simulator()
        order = []
        calls = [sim.call_in(1.0 + (i * 37 % 101), order.append, i)
                 for i in range(300)]
        cancelled = {i for i in range(300) if i % 3 != 0}
        for i in sorted(cancelled):
            calls[i].cancel()
        assert sim.pending_events == 300 - len(cancelled)
        sim.run()
        expected = sorted((i for i in range(300) if i not in cancelled),
                          key=lambda i: (1.0 + (i * 37 % 101), i))
        assert order == expected
        assert sim.pending_events == 0


class TestRunHorizon:
    def test_cancelled_head_does_not_leak_events_past_until(self):
        """Regression: a cancelled call at the queue head used to pass
        run()'s horizon check, letting step() skip it and execute a
        live event scheduled PAST `until` (hit whenever Process.kill
        cancelled a pending timeout — i.e. constantly under fault
        injection)."""
        sim = Simulator()
        fired = []
        doomed = sim.call_in(2.6, lambda: fired.append("doomed"))
        sim.call_in(4.0, lambda: fired.append("late"))
        doomed.cancel()
        sim.run(until=3.0)
        assert fired == []
        assert sim.now == 3.0
        sim.run(until=5.0)
        assert fired == ["late"]

    def test_run_until_the_past_is_an_error(self):
        """Regression: ``run(until=)`` below ``now`` used to set the
        clock back to ``until``, after which a call scheduled for that
        earlier time fired after events already run later."""
        sim = Simulator()
        fired = []
        sim.call_at(10.0, fired.append, 10)
        sim.call_at(20.0, fired.append, 20)
        sim.run(until=12.0)
        with pytest.raises(SimulationError, match="past"):
            sim.run(until=5.0)
        assert sim.now == 12.0
        with pytest.raises(SimulationError, match="past"):
            sim.call_at(6.0, fired.append, 6)
        sim.run(until=12.0)   # until == now is an empty window, not an error
        assert sim.now == 12.0
        sim.run()
        assert fired == [10, 20]


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run_once():
            sim = Simulator()
            trace = []

            def proc(name, delay):
                for _ in range(5):
                    yield Timeout(delay)
                    trace.append((round(sim.now, 9), name))

            sim.spawn(proc("a", 0.7))
            sim.spawn(proc("b", 1.1))
            sim.run()
            return trace

        assert run_once() == run_once()


# -- running ahead: Simulator.run_ahead_limit ---------------------------------


class TestRunAheadLimit:
    def test_outside_run_it_is_now(self, sim):
        sim.call_at(5.0, lambda: None)
        assert sim.run_ahead_limit() == sim.now == 0.0

    def test_the_heap_head_or_just_past_until(self, sim):
        seen = []

        def probe():
            seen.append(sim.run_ahead_limit())
        sim.call_at(1.0, probe)
        sim.call_at(3.0, lambda: None)
        sim.run(until=2.0)
        sim.call_at(2.5, probe)
        sim.run()
        assert seen == [math.nextafter(2.0, math.inf), 3.0]

    def test_a_cancelled_head_still_bounds_it(self, sim):
        seen = []
        sim.call_at(1.0, lambda: seen.append(sim.run_ahead_limit()))
        sim.call_at(2.0, lambda: None).cancel()
        sim.run()
        assert seen == [2.0]

    def test_it_is_now_with_a_call_due_now_a_stop_or_max_events(self, sim):
        seen = []

        def probe(then=None):
            if then is not None:
                then()
            seen.append(sim.run_ahead_limit())
        sim.call_at(1.0, probe, lambda: sim.call_soon(int))
        sim.call_at(2.0, probe, sim.stop)
        sim.run()
        sim.call_at(3.0, probe)
        sim.run(max_events=5)
        assert seen == [1.0, 2.0, 3.0]


#: every time in the oracle is a multiple of this, so float sums are
#: exact and ticks land on other calls' times and on horizons
STEP = 0.25
#: a ticker stops after this many ticks, so a run without a horizon ends
TICKS = 40


class Ticking:
    """A simulator with one ticker beside the calls a script makes.
    The ticker's tick records itself and re-arms ``gaps`` later (cycled).
    A stepping ticker re-arms after every tick; one that runs ahead
    records every tick below :meth:`Simulator.run_ahead_limit` inline
    and re-arms once — the two must be indistinguishable.  The last
    tick, which does not re-arm, is always a dispatch of its own: the
    clock moves only at dispatches."""

    def __init__(self, ahead: bool, gaps: list):
        self.sim = Simulator()
        self.ahead, self.gaps = ahead, gaps
        self.ticks = 0
        self.trace: list = []
        self.handles: list = []
        self.ticker = None

    def tick(self) -> None:
        sim = self.sim
        t = sim.now
        limit = sim.run_ahead_limit() if self.ahead else t
        while True:
            self.trace.append(("tick", t))
            self.ticks += 1
            if self.ticks == TICKS:
                return
            t += self.gaps[self.ticks % len(self.gaps)] * STEP
            if not t < limit or self.ticks + 1 == TICKS:
                break
        self.ticker = sim.call_at(t, self.tick)

    def fire(self, label: int, actions: tuple) -> None:
        self.trace.append((label, self.sim.now))
        for action in actions:
            self.apply(action)

    def apply(self, op: tuple) -> None:
        sim, kind = self.sim, op[0]
        if kind == "at":
            self.handles.append(sim.call_at(sim.now + op[1] * STEP, self.fire,
                                            op[2], op[3]))
        elif kind == "soon":
            self.handles.append(sim.call_soon(self.fire, op[1], op[2]))
        elif kind == "cancel":
            if self.handles:
                self.handles[op[1] % len(self.handles)].cancel()
        elif kind == "stop":
            sim.stop()
        elif kind == "ticker":
            if self.ticker is None:
                self.ticker = sim.call_at(sim.now + op[1] * STEP, self.tick)
        else:
            assert kind == "run"
            until = None if op[1] is None else sim.now + op[1] * STEP
            sim.run(until=until, max_events=op[2])

    def state(self) -> tuple:
        return list(self.trace), self.sim.now, self.sim.pending_events


labels = st.integers(0, 999)
# what a fired call does: queue more, cancel, stop the run
actions = st.lists(st.one_of(
    st.tuples(st.just("at"), st.integers(0, 6), labels, st.just(())),
    st.tuples(st.just("soon"), labels, st.just(())),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.tuples(st.just("stop"))), max_size=3).map(tuple)
script_ops = st.one_of(
    st.tuples(st.just("at"), st.integers(1, 12), labels, actions),
    st.tuples(st.just("at"), st.integers(1, 12), labels, actions),
    st.tuples(st.just("soon"), labels, actions),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.tuples(st.just("ticker"), st.integers(0, 4)),
    st.tuples(st.just("run"), st.one_of(st.none(), st.integers(0, 12)),
              st.one_of(st.none(), st.none(), st.integers(0, 8))),
    st.tuples(st.just("run"), st.integers(0, 12), st.none()))


@settings(max_examples=300, deadline=None)
@given(gaps=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       start=st.integers(0, 3), script=st.lists(script_ops, max_size=30))
def test_running_ahead_is_stepping(gaps, start, script):
    """The oracle for :meth:`Simulator.run_ahead_limit`: a ticker that
    runs ahead leaves the same dispatch trace, clock and pending count
    as one that steps, through calls queued at and between its ticks,
    cancels (of the heap head too), ``call_soon`` from inside a call,
    ``stop`` and ``run(until=, max_events=)`` windows.  Checked against
    these mutations of the bound, each of which fails it: the heap head
    allowed (``<=``), ``until`` ignored, the immediate queue ignored,
    ``max_events`` ignored."""
    twins = [Ticking(ahead, gaps) for ahead in (False, True)]
    for twin in twins:
        twin.apply(("ticker", start))
    for op in script + [("run", None, None)]:
        states = []
        for twin in twins:
            twin.apply(op)
            states.append(twin.state())
        assert states[0] == states[1], op
