"""Tier-1 guard: the codec work one event costs, counted, not timed.

This file used to hold a wall-clock floor (4,000 simulated ev/s against
a measured ~50,000) that a 10x regression would have cleared.  Like
``test_send_call_budget.py`` it now counts instead: every binding of the
six codec functions inside ``repro`` is replaced by a counting wrapper
for the duration of a run, and the counts must come out exact.

An event is encoded once, where it is born, and decoded never: the
sensor host's relay renders the ULM line, the gateway hands that same
text to its ``ulm`` subscribers and renders each other requested format
once, and every receiver reads the message its frame carries.  A
``parse`` / ``from_xml`` / ``decode`` on this path, or a second render
of one (event, format), is a regression no matter how fast the box is.
"""

from __future__ import annotations

import sys

import pytest

import repro.ulm
from repro.core import JAMMConfig, JAMMDeployment
from repro.scenarios import Scenario, run_scenario
from repro.scenarios.runner import ScenarioRunner
from repro.simgrid import FaultPlan, GridWorld

CODEC = ("serialize", "parse", "to_xml", "from_xml", "encode", "decode")
#: the workload must be big enough that a per-event cost cannot hide
MIN_EVENTS = 1500


@pytest.fixture
def codec_calls(monkeypatch):
    """Calls of each codec function from anywhere inside ``repro``,
    counted on every name the function is bound to (callers import them
    with ``from ... import``, some under an alias)."""
    calls = dict.fromkeys(CODEC, 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in CODEC:
        original = getattr(repro.ulm, name)
        wrapper = counting(name, original)
        for module_name, module in list(sys.modules.items()):
            if module is not None and module_name.startswith("repro"):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapper)
    return calls


class _Runner(ScenarioRunner):
    """Snapshots the counts where the run phase ends: result collection
    re-serializes the whole archive for the digest."""

    def __init__(self, scenario: Scenario, calls: dict):
        super().__init__(scenario)
        self.calls = calls
        self.calls_in_run: dict = {}

    def collect(self):
        self.calls_in_run = dict(self.calls)
        return super().collect()


def test_scenario_events_per_second_floor(codec_calls):
    """The fault-free two-site scenario: one ``serialize`` per event a
    relay forwarded, nothing else, in the whole run phase."""
    runner = _Runner(Scenario(
        name="codec-budget", seed=77,
        plan=FaultPlan(seed=77),          # fault-free steady state
        n_sensor_hosts=4, sensor_period=0.05,
        horizon=20.0, drain=4.0), codec_calls)
    runner.build()
    assert not any(codec_calls.values())
    result = runner.run()
    result.check()
    forwarded = sum(sensor.events_emitted
                    for manager in runner.deployment.managers.values()
                    for sensor in manager.sensors.values())
    gateway = runner.deployment.gateways["gw0"].stats()
    assert forwarded >= MIN_EVENTS, f"workload shrank: {forwarded} events"
    # both of the scenario's consumers got every one of them
    assert gateway["events_in"] == forwarded
    assert gateway["events_delivered"] == 2 * forwarded
    assert runner.calls_in_run == {
        "serialize": forwarded, "parse": 0, "to_xml": 0, "from_xml": 0,
        "encode": 0, "decode": 0}


def test_three_format_fanout_renders_once_and_decodes_never(codec_calls):
    """Two remote subscribers per format behind one gateway: each event
    is rendered once per format — the ULM text at the sensor host — and
    no receiver decodes anything."""
    world = GridWorld(seed=16)
    sensor_host = world.add_host("s0")
    gw_host = world.add_host("gw")
    consumer_hosts = [world.add_host(f"c{i}") for i in range(2)]
    world.lan([sensor_host, gw_host] + consumer_hosts, switch="sw")
    jamm = JAMMDeployment(world)
    gateway = jamm.add_gateway("gw0", host=gw_host)
    config = JAMMConfig()
    config.add_sensor("cpu", "cpu", period=0.1)
    jamm.add_manager(sensor_host, config=config, gateway=gateway)
    world.run(until=0.3)
    collectors = []
    for host in consumer_hosts:
        for fmt in ("ulm", "xml", "binary"):
            collector = jamm.collector(host=host)
            assert len(collector.subscribe_all("(sensortype=cpu)",
                                               fmt=fmt)) == 1
            collectors.append(collector)
    world.run(until=20.0)
    jamm.managers["s0"].stop_sensor("cpu")
    world.run(until=20.5)               # what is in flight lands
    events = gateway.events_in
    assert events >= 150
    assert gateway.events_delivered == 6 * events
    assert all(c.decode_errors == 0 for c in collectors)
    assert sum(c.received for c in collectors) == 6 * events
    assert codec_calls == {
        "serialize": events, "to_xml": events, "encode": events,
        "parse": 0, "from_xml": 0, "decode": 0}


def test_perf_stats_shape():
    """Every scenario run reports its perf block (soak.py and the bench
    harness read it)."""
    result = run_scenario(Scenario(
        name="perf-shape", seed=3, plan=FaultPlan(seed=3),
        n_sensor_hosts=1, horizon=5.0, drain=1.0))
    perf = result.stats["perf"]
    assert set(perf) == {"events", "wall_s", "events_per_s", "sim_time"}
    assert perf["events"] > 0
    assert perf["wall_s"] > 0
    assert perf["sim_time"] > 0
