"""Self-healing ClientSession semantics (auto-heal watchdog).

Regression tests for the review findings on the healing path: per-
lineage (not per-sensor) dedupe trackers, filter-respecting replay, and
bounded tracker memory; and for the catch-up pass's one archive scan,
which must deliver exactly what one scan per handle would.
"""

from __future__ import annotations

from repro.client.facade import ClientSession
from repro.core import JAMMConfig, JAMMDeployment
from repro.core.archive import EventArchive, SamplingPolicy
from repro.core.filters import EventNames
from repro.scenarios import SeqSensor  # noqa: F401 - registers "seq"
from repro.simgrid import GridWorld
from repro.ulm import ULMMessage


def build(sensors: int = 1):
    world = GridWorld(seed=17)
    sensor_host = world.add_host("s0")
    gw_host = world.add_host("gw0h")
    monitor = world.add_host("mon")
    world.lan([sensor_host, gw_host, monitor], switch="sw")
    jamm = JAMMDeployment(world)
    gateway = jamm.add_gateway("gw0", host=gw_host)
    config = JAMMConfig()
    for n in range(sensors):
        config.add_sensor("seq" if n == 0 else f"seq{n}", "seq", period=0.5)
    jamm.add_manager(sensor_host, config=config, gateway=gateway)

    archive = EventArchive(policy=SamplingPolicy(normal_fraction=1.0))
    commit_client = jamm.client(host=gw_host)
    commit = commit_client.session(name="commit")
    commit.subscribe_all(commit_client.sensors(type="seq"),
                         on_event=archive.append)
    commit.enable_auto_heal(check_interval=1.0)

    client = jamm.client(host=monitor)
    session = client.session(name="consumer")
    return world, jamm, archive, client, session


def test_two_handles_on_one_sensor_both_receive():
    """Trackers are per subscription lineage: a second subscription to
    the same sensor must not be starved by the first one's dedupe."""
    world, jamm, archive, client, session = build()
    info = client.sensors(type="seq")[0]
    h1 = session.subscribe(info)
    h2 = session.subscribe(info)
    session.enable_auto_heal(archive=archive, check_interval=1.0)
    world.run(until=5.0)
    n1 = len(list(h1.events()))
    n2 = len(list(h2.events()))
    assert n1 > 0 and n2 > 0
    assert abs(n1 - n2) <= 1


def test_replay_respects_event_filter():
    """The catch-up replay must not deliver events the subscription's
    filter excludes from the live stream."""
    world, jamm, archive, client, session = build()
    info = client.sensors(type="seq")[0]
    matching = session.subscribe(info,
                                 event_filter=EventNames(["SEQ_TICK"]))
    excluded = session.subscribe(info,
                                 event_filter=EventNames(["NO_SUCH_EVENT"]))
    session.enable_auto_heal(archive=archive, check_interval=1.0)
    world.run(until=10.0)
    assert len(list(matching.events())) > 0
    assert list(excluded.events()) == []


def test_tracker_memory_is_bounded_by_replay_window():
    world, jamm, archive, client, session = build()
    info = client.sensors(type="seq")[0]
    handle = session.subscribe(info)
    session.enable_auto_heal(archive=archive, check_interval=1.0,
                             replay_slack=1.0)
    world.run(until=30.0)
    tracker = handle._heal_tracker
    # ~60 events delivered; only the slack window's worth is retained
    assert 0 < len(tracker._seen) <= 10


def count_scans(archive) -> list:
    """Record the ``t0`` of every ``iter_query`` the archive serves."""
    starts = []
    real = archive.iter_query

    def iter_query(*args, **kwargs):
        starts.append(kwargs.get("t0"))
        return real(*args, **kwargs)

    archive.iter_query = iter_query
    return starts


def per_handle_replay(session, handles) -> None:
    """The reference the shared scan must equal: each handle, re-checked
    at its turn as the watchdog loop would, gets an archive scan of its
    own."""
    for handle in handles:
        if not handle.closed:
            ClientSession._replay(session, [handle])


def test_a_pass_over_many_streams_scans_the_archive_once():
    world, jamm, archive, client, session = build(sensors=3)
    infos = client.sensors(type="seq")
    handles = [session.subscribe(info) for info in infos]
    handles.append(session.subscribe(infos[0]))
    session.enable_auto_heal(archive=archive, check_interval=1.0)
    world.run(until=5.0)
    starts = count_scans(archive)
    session.heal_now()
    floors = [h._heal_tracker.replay_floor for h in handles]
    assert len(starts) == 1
    assert len(set(floors)) == 1 and floors[0] > 3.0


def record_heal_run(replay=None) -> tuple:
    """A healing session over three streams, run through a handle that
    joins late (its floor is 0, the lowest, and it is last in line) and
    a consumer-host crash; returns every delivery, the
    heal counters, each tracker's end state and the scan count."""
    world, jamm, archive, client, session = build(sensors=3)
    if replay is not None:
        session._replay = replay.__get__(session)
    starts = count_scans(archive)
    log = []

    def recorder(label):
        def on_event(msg):
            log.append((label, msg.prog, msg.fields["SEQ"], msg.date,
                        session.in_replay))
        return on_event

    infos = client.sensors(type="seq")
    handles = [session.subscribe(info, on_event=recorder(n))
               for n, info in enumerate(infos)]
    handles.append(session.subscribe(
        infos[0], on_event=recorder("filtered"),
        event_filter=EventNames(["NO_SUCH_EVENT"])))
    session.enable_auto_heal(archive=archive, check_interval=1.0)
    world.run(until=6.0)
    session.subscribe(infos[2], on_event=recorder("late"))
    monitor = client.host
    world.sim.call_in(1.0, monitor.crash)
    world.sim.call_in(3.0, monitor.restart)
    world.run(until=14.0)
    trackers = [(t.replay_floor, t.duplicates, t.live_date)
                for t in session._trackers]
    return log, session.heal_stats(), trackers, len(starts)


def test_the_shared_scan_delivers_what_per_handle_scans_do():
    log, heal, trackers, scans = record_heal_run()
    ref_log, ref_heal, ref_trackers, ref_scans = \
        record_heal_run(per_handle_replay)
    assert heal["replayed"] > 0 and heal["resubscribes"] > 0
    assert any(row[0] == "late" and row[4] for row in log)
    assert log == ref_log
    assert heal == ref_heal
    assert trackers == ref_trackers
    assert scans < ref_scans


def missed(prog: str, seq: int, date: float) -> ULMMessage:
    """A committed event the live channel never delivered."""
    return ULMMessage(date=date, host="s0", prog=prog, lvl="Usage",
                      event="SEQ_TICK", fields={"SEQ": seq, "VALUE": 0})


def test_a_callback_that_appends_forces_a_rescan():
    world, jamm, archive, client, session = build(sensors=2)
    first, second = [session.subscribe(info)
                     for info in client.sensors(type="seq")]
    session.enable_auto_heal(archive=archive, check_interval=1.0)
    world.run(until=4.0)
    now = world.sim.now

    def commit_more(msg):
        if msg.fields["SEQ"] == "9001":
            archive.append(missed(second.spec.sensor, 9002, now - 0.25))

    first.attach(commit_more)
    archive.append(missed(first.spec.sensor, 9001, now - 0.25))
    starts = count_scans(archive)
    replayed = session.replayed
    session.heal_now()
    assert len(starts) == 2
    assert session.replayed - replayed == 2
    assert [m.fields["SEQ"] for m in second.events()][-1] == "9002"
