"""Scenario-level oracle for the wire frame: every frame, re-decoded.

Receivers read the message a :class:`~repro.ulm.Frame` carries and never
parse its wire, so nothing on the event path would notice a frame whose
message and wire disagree.  This test notices: it wraps frame
construction on the standard two-site scenario, decodes every frame's
wire with the plain codec the moment the frame is built, and again after
the run is torn down — by then each message has been through the
gateway, the outboxes, the archive, the healing session's replay and
every consumer callback, all of which share the one object, so a
handler that mutated a delivered event shows up as a second-pass
mismatch.  DATE is compared as a float: ``ULMMessage.__eq__`` forgives a
microsecond, the frame contract does not.

Two extra plain sessions subscribe in XML and binary, so all three
renderings of every event are audited, not just the ULM text the
scenario's own consumers ask for.

Checked against two mutations: ``Frame.of`` attaching the sensor's
original instead of its ``quantize_date`` twin fails both tests at
creation (and the property test in ``tests/ulm/test_ulm_properties.py``);
``Consumer._accept`` setting a field on the event it was handed passes
at creation and fails both at teardown.
"""

from __future__ import annotations

import pytest

from repro.scenarios import Scenario
from repro.scenarios.runner import ScenarioRunner
from repro.simgrid import FaultPlan
from repro.ulm import Frame, decode, from_xml, parse, quantize_date

_DECODE = {"ulm": parse, "xml": from_xml, "binary": decode}


class FrameAudit:
    """Every frame built with a message while the audit is installed,
    and every disagreement between a frame's wire and its message.
    Mismatches are collected, not raised: frames are built inside
    simulated processes, and the scenario kernel survives a crashing
    process by design."""

    def __init__(self) -> None:
        self.frames: list[Frame] = []
        self.mismatches: list[tuple] = []

    def check(self, frame: Frame, when: str) -> None:
        decoded, carried = _DECODE[frame.fmt](frame.wire), frame.message()
        if not (decoded == carried and decoded.date == carried.date
                and list(decoded.fields.items())
                == list(carried.fields.items())):
            self.mismatches.append((when, frame.fmt, frame.wire,
                                    repr(decoded.date), repr(carried.date),
                                    carried.fields))

    def recheck_all(self) -> None:
        for frame in self.frames:
            self.check(frame, "at teardown")


@pytest.fixture
def audit(monkeypatch):
    audit = FrameAudit()
    real_init = Frame.__init__

    def init(frame, fmt, wire, message=None):
        real_init(frame, fmt, wire, message)
        if message is not None:
            audit.check(frame, "at creation")
            audit.frames.append(frame)

    monkeypatch.setattr(Frame, "__init__", init)
    return audit


def run_audited(scenario: Scenario, audit: FrameAudit):
    runner = ScenarioRunner(scenario).build()
    client = runner.deployment.client(
        host=runner.world.hosts["consumer.siteB"])
    extra = []
    for fmt in ("xml", "binary"):
        session = client.session(name=f"audit-{fmt}")
        session.subscribe_all(client.sensors(type="seq"), fmt=fmt)
        extra.append(session)
    result = runner.run()
    for session in extra:
        session.close()
    audit.recheck_all()
    assert not audit.mismatches, audit.mismatches[:3]
    return runner, result


def test_every_frame_redecodes_on_the_fault_free_scenario(audit):
    runner, result = run_audited(
        Scenario(name="frame-oracle", seed=21, plan=FaultPlan(seed=21),
                 n_sensor_hosts=3, sensor_period=0.1, horizon=10.0,
                 drain=2.0),
        audit)
    result.check()
    gateway = runner.deployment.gateways["gw0"]
    by_fmt = {fmt: sum(1 for f in audit.frames if f.fmt == fmt)
              for fmt in _DECODE}
    # one ULM frame per event, built at the sensor host and reused by
    # the gateway; one XML and one binary rendering beside it
    assert by_fmt["ulm"] >= gateway.events_in > 250
    assert by_fmt["xml"] == by_fmt["binary"] == gateway.events_in
    assert gateway.intake_decode_errors == 0
    # the sensors' clock readings are finer than the wire's microsecond,
    # so the frames above carried quantized twins, not the originals
    last = [sensor.last_message.date
            for manager in runner.deployment.managers.values()
            for sensor in manager.sensors.values()]
    assert any(quantize_date(date) != date for date in last), last


def test_every_frame_redecodes_under_a_random_fault_plan(audit):
    """Crashes, partitions, a throttled consumer: frames wait in
    outboxes, are shed or abandoned, replayed from the archive — and
    still say what their wire says."""
    runner, result = run_audited(
        Scenario(name="frame-oracle-faults", seed=15, horizon=40.0,
                 drain=15.0, sensor_period=0.2, random_steps=40,
                 outbox_limit=4),
        audit)
    result.check()
    kinds = {event.kind for event in result.plan}
    assert "slow_consumer" in kinds, sorted(kinds)
    gateway = runner.deployment.gateways["gw0"].stats()
    assert gateway["outbox_peak"] > 0           # frames did queue
    assert len(audit.frames) > gateway["events_in"] > 0
