"""Dynamic sanitizer: teardown checks, env hook, digest neutrality."""

import pytest

from repro.analysis.sanitizer import SanitizeError, env_enabled
from repro.client import Delivery, SubscriptionSpec
from repro.core import EventGateway
from repro.core.sensors import CPUSensor
from repro.scenarios import Scenario, run_scenario
from repro.simgrid import GridWorld, Simulator, Timeout


def sanitized_gateway(seed=11):
    world = GridWorld(seed=seed, sanitize=True)
    host = world.add_host("sensor-host")
    gw = EventGateway(world.sim, name="gw0")
    sensor = CPUSensor(host, period=1.0)
    gw.register_sensor(sensor)
    sensor.start()
    return world, gw, sensor


def open_stream(gw, sensor, sink):
    return gw.open(SubscriptionSpec(sensor=sensor.name,
                                    delivery=Delivery.callback(sink)))


# -- clean runs --------------------------------------------------------------


def test_clean_run_passes_and_counts(tmp_path):
    world, gw, sensor = sanitized_gateway()
    got = []
    handle = open_stream(gw, sensor, got.append)
    world.run(until=3.5)
    handle.close()
    assert world.sanitize_check() == []
    stats = world.sanitizer_stats()
    assert stats["handles_tracked"] >= 1
    assert stats["flags_tracked"] >= 1
    assert stats["checks_run"] == 1
    assert stats["violations"] == 0
    assert got


def test_sanitize_off_is_inert():
    world = GridWorld(seed=11, sanitize=False)
    assert world.sim._sanitize is None
    assert world.sanitize_check() == []
    assert world.sanitizer_stats() == {}


# -- leaked handles ----------------------------------------------------------


def test_closed_but_registered_handle_raises():
    world, gw, sensor = sanitized_gateway()
    handle = open_stream(gw, sensor, lambda m: None)
    world.run(until=2.5)
    # simulate a buggy close() that forgot the gateway deregistration
    handle.closed = True
    with pytest.raises(SanitizeError, match="leaked subscription"):
        world.sanitize_check()
    assert world.sanitizer_stats()["violations"] >= 1


def test_open_handle_dropped_by_gateway_raises():
    world, gw, sensor = sanitized_gateway()
    handle = open_stream(gw, sensor, lambda m: None)
    world.run(until=2.5)
    # simulate the gateway losing the registration while the handle
    # still believes it is open
    gw._subs.pop(handle.sub_id)
    with pytest.raises(SanitizeError, match="dropped it without"):
        world.sanitize_check()


def test_violations_list_without_raise():
    world, gw, sensor = sanitized_gateway()
    handle = open_stream(gw, sensor, lambda m: None)
    world.run(until=2.5)
    handle.closed = True
    violations = world.sanitize_check(raise_on_violation=False)
    assert any("leaked subscription" in v for v in violations)


# -- orphaned timers ---------------------------------------------------------


def test_orphaned_timer_for_dead_process_raises():
    sim = Simulator(sanitize=True)

    def worker(sim):
        yield Timeout(50.0)

    proc = sim.spawn(worker(sim), name="w")
    sim.run(until=1.0)
    # a timer someone scheduled against the process and forgot to
    # cancel before killing it (the pre-PR-5 bug class)
    sim.call_at(5.0, proc._step, None)
    proc.kill()
    with pytest.raises(SanitizeError, match="orphaned timer"):
        sim.sanitize_check()


def test_kill_leaves_no_orphans():
    sim = Simulator(sanitize=True)

    def worker(sim):
        yield Timeout(50.0)

    proc = sim.spawn(worker(sim), name="w")
    sim.run(until=1.0)
    proc.kill()
    assert sim.sanitize_check() == []


# -- stale waiters -----------------------------------------------------------


def test_stale_flag_waiter_raises():
    """No wait leaves its flag registration behind any more, so the
    stale registration is fabricated: the process's wait token moves on
    while it is parked on the flag."""
    sim = Simulator(sanitize=True)
    flag = sim.flag("gate")
    trace = []

    def worker(sim, flag):
        trace.append((yield flag))

    proc = sim.spawn(worker(sim, flag), name="w")
    sim.run(until=1.0)          # parked on the flag
    proc._wait_token += 1       # the wait is abandoned; flag keeps the waiter
    assert proc.alive
    with pytest.raises(SanitizeError, match="stale waiter"):
        sim.sanitize_check()
    flag.trigger("late")        # the stale resume is dropped, not run
    sim.run(until=2.0)
    assert trace == [] and proc.alive


def test_dead_process_waiter_is_inert_not_violating():
    sim = Simulator(sanitize=True)
    flag = sim.flag("gate")

    def worker(sim, flag):
        yield flag

    proc = sim.spawn(worker(sim, flag), name="w")
    sim.run(until=1.0)
    proc.kill()
    assert sim.sanitize_check() == []
    assert sim.sanitizer_stats()["inert_waiters"] == 1


# -- cross-world sharing -----------------------------------------------------


def test_cross_world_flag_wait_raises():
    sim_a = Simulator(sanitize=True)
    sim_b = Simulator(sanitize=True)
    foreign = sim_b.flag("foreign")

    def worker(sim):
        yield foreign

    sim_a.spawn(worker(sim_a), name="bad")
    with pytest.raises(SanitizeError, match="cross-world"):
        sim_a.run(until=1.0)
    assert sim_a.sanitizer_stats()["cross_world_blocked"] == 1


def test_cross_world_process_wait_raises():
    sim_a = Simulator(sanitize=True)
    sim_b = Simulator(sanitize=True)

    def idle(sim):
        yield Timeout(10.0)

    foreign_proc = sim_b.spawn(idle(sim_b), name="foreign")

    def worker(sim):
        yield foreign_proc.done

    sim_a.spawn(worker(sim_a), name="bad")
    with pytest.raises(SanitizeError, match="cross-world"):
        sim_a.run(until=1.0)


def test_same_world_wait_is_fine():
    sim = Simulator(sanitize=True)
    flag = sim.flag("gate")

    def worker(sim, flag):
        value = yield flag
        return value

    proc = sim.spawn(worker(sim, flag), name="w")
    sim.call_in(1.0, flag.trigger, "ok")
    sim.run(until=2.0)
    assert not proc.alive
    assert sim.sanitize_check() == []


# -- queue accounting --------------------------------------------------------


def test_corrupted_pending_counter_raises():
    sim = Simulator(sanitize=True)
    sim.call_in(1.0, lambda: None)
    sim.run(until=2.0)
    sim._pending += 1  # simulate a lost cancellation decrement
    with pytest.raises(SanitizeError, match="pending_events"):
        sim.sanitize_check()


# -- env hook ----------------------------------------------------------------


def test_env_enabled_values():
    assert env_enabled({"REPRO_SANITIZE": "1"})
    assert env_enabled({"REPRO_SANITIZE": "true"})
    assert env_enabled({"REPRO_SANITIZE": "on"})
    assert not env_enabled({"REPRO_SANITIZE": "0"})
    assert not env_enabled({})


def test_env_var_arms_new_simulators(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert Simulator()._sanitize is not None
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert Simulator()._sanitize is None
    # explicit argument beats the environment
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert Simulator(sanitize=False)._sanitize is None


# -- digest neutrality -------------------------------------------------------


def _scenario_digest(sanitize: bool) -> str:
    scenario = Scenario(name="san-digest", seed=7, horizon=30.0, drain=10.0,
                        random_steps=40, sanitize=sanitize)
    result = run_scenario(scenario)
    assert result.ok, result.violations
    return result.digest()


def test_sanitizer_does_not_perturb_scenario_digest():
    assert _scenario_digest(True) == _scenario_digest(False)


def test_scenario_stats_export_sanitizer_counters():
    scenario = Scenario(name="san-stats", seed=9, horizon=20.0, drain=10.0,
                        random_steps=30)
    result = run_scenario(scenario)
    counters = result.stats["sanitizer"]
    assert counters["checks_run"] == 1
    assert counters["violations"] == 0
    off = run_scenario(Scenario(name="san-off", seed=9, horizon=20.0,
                                drain=10.0, random_steps=30, sanitize=False))
    assert off.stats["sanitizer"] == {}
