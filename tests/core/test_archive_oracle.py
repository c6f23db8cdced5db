"""Reference-model oracle for the event archive (ROADMAP aim 3).

:class:`EventArchive` keeps its events in a write head and a catalog of
sealed segments with postings, rollups and a rollup tree, and loses
events on purpose along four paths (retention, downsampling, byte-budget
shedding, quarantine).  The trivially-correct version of all of it is one
flat list of ``(date, arrival id, message)`` sorted by ``(date, arrival
id)``; :class:`Twin` drives both through the same operations and compares
everything a caller can observe, rows by message identity.

The model never re-implements a storage decision.  What retention took
comes from the report ``compact_once`` returns; what a tear or a byte
budget took is read back once, checked against what the archive itself
says about it (catalog descriptor, ``shed`` counter, loss floor), and
from then on the archive is held to it on every read.
"""

from __future__ import annotations

import itertools
import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.core import (ArchiveQuery, EventArchive, RetentionPolicy,
                        SamplingPolicy)
from repro.ulm import ULMMessage

HOSTS = ("h0", "h1", "h2")
EVENTS = ("CPU_USAGE", "NET_IO", None)      # None: no NL.EVNT field at all
LEVELS = ("Usage", "Error")
VALUES = ("0", "3", "7", "12", None, "n/a")  # integers sum exactly
#: dates and window edges live on one coarse grid, so equal dates and
#: windows that end exactly on an event are the common case, not a fluke
GRID = 0.5
RETENTIONS = (
    None,
    RetentionPolicy(max_age=8.0),
    RetentionPolicy(max_age=8.0, downsample_after=3.0),
    RetentionPolicy(max_bytes=1500),
    RetentionPolicy(max_age=12.0, max_bytes=3000, downsample_after=4.0),
)


def parse_value(msg):
    raw = msg.fields.get("VALUE")
    try:
        return None if raw is None else float(raw)
    except ValueError:
        return None


def summarize(messages) -> dict:
    """``summarize_window`` semantics over a plain list of messages."""
    out: dict = {}
    for msg in messages:
        row = out.setdefault(msg.event or "?",
                             [0, 0.0, 0, math.inf, -math.inf])
        row[0] += 1
        value = parse_value(msg)
        if value is not None:
            row[1] += value
            row[2] += 1
            row[3] = min(row[3], value)
            row[4] = max(row[4], value)
    return {event: tuple(row) for event, row in out.items()}


class Twin:
    """One archive and the flat sorted list that must agree with it."""

    def __init__(self, segment_events: int, retention):
        self.archive = EventArchive(
            "oracle", SamplingPolicy(normal_fraction=1.0),
            segment_events=segment_events, retention=retention)
        self.rows: list = []        # (date, arrival id, msg), raw-retained
        self.hidden: set = set()    # id(msg) inside quarantined segments
        #: event -> [count, value_sum, value_count] living on as rollups
        #: only; None once a byte budget shed a rollup-only segment (the
        #: archive does not report what was in it)
        self.rolled: dict | None = {}
        self.arrivals = 0
        self.shed = 0
        self.clock = 0.0
        self.seen_hosts: set = set()

    # -- what the model says ------------------------------------------------

    def visible(self) -> list:
        return [msg for _, _, msg in self.rows if id(msg) not in self.hidden]

    def rollup_only(self) -> bool:
        """May summaries hold events the raw rows no longer do?"""
        return self.rolled is None or any(r[0] for r in self.rolled.values())

    def unserved(self) -> list:
        """Rows the model still shows that a full read no longer returns."""
        served = {id(msg) for msg in self.archive.query()}
        return [row for row in self.rows
                if id(row[2]) not in self.hidden and id(row[2]) not in served]

    # -- operations -----------------------------------------------------------

    def append(self, kind: str, step: float, pick: int, host: str, event,
               lvl: str, value) -> None:
        if kind == "in_order":          # step 0 repeats the newest date
            self.clock += step
            date = self.clock
        elif kind == "late":
            date = max(0.0, self.clock - step - GRID)
        elif kind == "equal" and self.rows:
            date = self.rows[pick % len(self.rows)][0]
        else:                           # older than every sealed segment
            date = 0.0
        fields = {} if value is None else {"VALUE": value}
        msg = ULMMessage(date=date, host=host, prog="p", lvl=lvl, event=event,
                         fields=fields)
        before = self.rollup_only_seqs()
        if self.archive.append(msg):
            self.rows.append((date, self.arrivals, msg))
            self.rows.sort(key=lambda row: row[:2])
            self.arrivals += 1
            self.seen_hosts.add(host)
        else:
            # refusal is never silent: read-only mode, and the disk-full
            # kind sheds on the way in
            assert self.archive.degraded
            self.account_for_shed(before)

    def checkpoint(self) -> None:
        head = len(self.archive) - sum(
            d["events"] for d in self.archive.catalog()
            if not d["quarantined"] and not d["downsampled"])
        assert self.archive.checkpoint() == (head > 0)

    def compact(self) -> None:
        report = self.archive.compact_once()
        assert not report["stalled"]
        gone = {id(msg) for msg in report["retired"]}
        for msg in report["downsampled"]:
            gone.add(id(msg))
            if self.rolled is not None:
                row = self.rolled.setdefault(msg.event or "?", [0, 0.0, 0])
                row[0] += 1
                value = parse_value(msg)
                if value is not None:
                    row[1] += value
                    row[2] += 1
        for rollups in report["retired_rollups"]:
            if self.rolled is not None:
                for event, src in rollups.items():
                    row = self.rolled[event]
                    row[0] -= src[0]
                    row[1] -= src[1]
                    row[2] -= src[2]
        assert not gone & self.hidden   # retention never reaches quarantine
        assert len(gone) == len(report["retired"]) + len(report["downsampled"])
        kept = [row for row in self.rows if id(row[2]) not in gone]
        assert len(self.rows) - len(kept) == len(gone)
        self.rows = kept

    def tear(self, pick: int) -> None:
        catalog = [d for d in self.archive.catalog() if not d["quarantined"]]
        if not catalog:
            assert not self.archive.tear_segment(pick)
            return
        raw = [(index, d) for index, d in enumerate(catalog)
               if not d["downsampled"]]
        if not raw:
            return      # rollup-only segments are not modelled torn
        index, victim = raw[pick % len(raw)]
        assert self.archive.tear_segment(index)
        # detection is lazy: the next read that touches the extent
        lost = self.unserved()
        assert len(lost) == victim["events"]
        assert min(row[0] for row in lost) == victim["t_min"]
        assert max(row[0] for row in lost) == victim["t_max"]
        assert (victim["t_min"], victim["t_max"]) in \
            self.archive.quarantined_spans()
        self.hidden.update(id(row[2]) for row in lost)

    def mend(self) -> None:
        quarantined = sum(d["quarantined"] for d in self.archive.catalog())
        assert self.archive.mend_segments() == quarantined
        assert self.archive.quarantined_spans() == []
        self.hidden.clear()

    def set_budget(self, budget) -> None:
        before = self.rollup_only_seqs()
        self.archive.set_byte_budget(budget)
        self.account_for_shed(before)
        if budget is not None and not self.hidden:
            assert self.archive.bytes_stored <= budget

    def rollup_only_seqs(self) -> set:
        return {d["seq"] for d in self.archive.catalog() if d["downsampled"]}

    def account_for_shed(self, rollup_only_before: set) -> None:
        if rollup_only_before - self.rollup_only_seqs():
            self.rolled = None
        shed = self.archive.shed - self.shed
        if not shed:
            return
        self.shed += shed
        lost = self.unserved()
        assert len(lost) == shed
        assert max(row[0] for row in lost) <= self.archive.loss_floor
        gone = {id(row[2]) for row in lost}
        self.rows = [row for row in self.rows if id(row[2]) not in gone]

    # -- comparisons -----------------------------------------------------------

    def check_catalog(self) -> None:
        archive, visible = self.archive, self.visible()
        stats = archive.stats()
        assert len(archive) == stats["count"] == len(visible)
        assert stats["quarantined_events"] == len(self.hidden)
        assert stats["shed"] == self.shed
        assert stats["ingested"] == self.arrivals == (
            stats["count"] + stats["shed"] + stats["events_retired"]
            + stats["events_downsampled"] + stats["quarantined_events"])
        assert [id(m) for m in archive.query()] == [id(m) for m in visible]
        assert [id(m) for m in archive.messages] == [id(m) for m in visible]
        hosts = {m.host for m in visible}
        events = {m.event for m in visible if m.event}
        span = (visible[0].date, visible[-1].date) if visible else (0.0, 0.0)
        got_span = archive.time_span()
        if not self.rollup_only():
            assert archive.hosts() == sorted(hosts)
            assert archive.event_names() == sorted(events)
            assert got_span == span
            return
        # rollup-only segments still name their hosts, events and span
        assert hosts <= set(archive.hosts()) <= self.seen_hosts
        if self.rolled is not None:
            events |= {e for e, row in self.rolled.items()
                       if row[0] and e != "?"}
            assert archive.event_names() == sorted(events)
        if visible:
            assert got_span[0] <= span[0] and got_span[1] >= span[1]

    def check_reads(self, t0: float, width: float) -> None:
        archive, visible = self.archive, self.visible()
        t1 = t0 + width
        for host, event, lvl in itertools.product(
                (None, "h0", "h2", "ghost"),
                (None,) + EVENTS[:2] + ("?", "ghost"),
                (None,) + LEVELS):
            q = ArchiveQuery(t0=t0, t1=t1, host=host, event=event, lvl=lvl)
            inclusive = [id(m) for m in visible if q.matches(m)]
            half_open = [id(m) for m in visible
                         if q.matches(m) and m.date != t1]
            assert [id(m) for m in archive.query(q)] == inclusive
            assert [id(m) for m in archive.iter_query(q)] == inclusive
            assert [id(m) for m in archive.iter_query(
                q, end_exclusive=True)] == half_open
            assert [id(m) for m in archive.query(
                t0=t0, t1=t1, host=host, event=event, lvl=lvl)] == inclusive
        # an unbounded end on either side
        assert [id(m) for m in archive.query(t0=t1)] == \
            [id(m) for m in visible if m.date >= t1]
        assert [id(m) for m in archive.iter_query(t1=t1, end_exclusive=True)] \
            == [id(m) for m in visible if m.date < t1]

    def check_summaries(self, t0: float, width: float) -> None:
        archive, visible = self.archive, self.visible()
        if self.rollup_only():
            # only raw events are dated above the loss floor, so there
            # (and only there) the raw rows are a complete oracle
            t0 = max(t0, archive.loss_floor + GRID)
        t1 = t0 + width
        for host in (None, "h0", "h2", "ghost"):
            inside = [m for m in visible if t0 <= m.date < t1
                      and (host is None or m.host == host)]
            assert archive.summarize_window(t0, t1, host=host) == \
                summarize(inside), (t0, t1, host)
        if self.rolled is None:
            return
        # the whole span: what was downsampled still counts, exactly
        whole = archive.summarize_window(0.0, self.clock + 1.0)
        want = {event: list(row[:3])
                for event, row in summarize(visible).items()}
        for event, row in self.rolled.items():
            if row[0]:
                have = want.setdefault(event, [0, 0.0, 0])
                for i in range(3):
                    have[i] += row[i]
        assert {event: list(row[:3]) for event, row in whole.items()} == want


grid = st.integers(0, 8).map(lambda n: n * GRID)


class ArchiveOracle(RuleBasedStateMachine):
    @initialize(segment_events=st.sampled_from((1, 3, 8)),
                retention=st.sampled_from(RETENTIONS))
    def build(self, segment_events, retention):
        self.twin = Twin(segment_events, retention)

    @rule(batch=st.lists(st.tuples(
        st.sampled_from(("in_order", "in_order", "in_order", "late",
                         "equal", "ancient")),
        grid, st.integers(0, 10_000), st.sampled_from(HOSTS),
        st.sampled_from(EVENTS), st.sampled_from(LEVELS),
        st.sampled_from(VALUES)), min_size=1, max_size=6))
    def append(self, batch):
        for args in batch:
            self.twin.append(*args)

    @rule()
    def checkpoint(self):
        self.twin.checkpoint()

    @rule()
    def compact(self):
        self.twin.compact()

    @rule(pick=st.integers(0, 50))
    def tear(self, pick):
        self.twin.tear(pick)

    @rule()
    def mend(self):
        self.twin.mend()

    @rule(budget=st.sampled_from((None, None, 200, 600, 2000)))
    def set_budget(self, budget):
        self.twin.set_budget(budget)

    @rule(back=st.integers(0, 60), width=st.integers(1, 24))
    def read(self, back, width):
        t0 = max(0.0, self.twin.clock - back * GRID)
        self.twin.check_reads(t0, width * GRID)
        self.twin.check_summaries(t0, width * GRID)

    @invariant()
    def catalog_agrees(self):
        self.twin.check_catalog()


# examples and steps per example come from the hypothesis profile
# (conftest.py registers a long "nightly" one)
ArchiveOracle.TestCase.settings = settings(deadline=None)
TestArchiveOracle = ArchiveOracle.TestCase


def test_every_operation_on_one_fixed_script():
    """The oracle on one script that is known to reach every state the
    random walk might not: a late insert into the head, an equal date, an
    arrival older than every sealed segment, retirement of raw and of
    rollup-only segments, a quarantine across a compaction, disk-full
    shedding of segments and of the head's front, and recovery; then, on
    a longer head, a late arrival with its own VALUE under summaries that
    clip the head or end on its newest row, a host+event read ending
    exactly on a posting, and a full-span summary right after a front
    shed of the head; then the first touch of each summary-only index a
    segment builds on demand — a clip, a host summary, a downsample and
    a merge of segments nobody had read — a late row whose sealed rollup
    adds in arrival order, and a literal ``"?"`` event name beside events
    that have none."""
    twin = Twin(3, RetentionPolicy(max_age=20.0, downsample_after=8.0))

    def feed(*kinds, step=GRID):
        for n, kind in enumerate(kinds):
            twin.append(kind, step, n, HOSTS[n % 3], EVENTS[n % 3],
                        LEVELS[n % 5 == 4], VALUES[n % 6])
            twin.check_catalog()

    def read_everything():
        twin.check_catalog()
        for back in (0, 6, 30, 200):
            t0 = max(0.0, twin.clock - back * GRID)
            for width in (GRID, 3.0, 50.0):
                twin.check_reads(t0, width)
                twin.check_summaries(t0, width)

    feed("in_order", "in_order", "late", "in_order", "equal", "in_order",
         "in_order", "late", "ancient", "equal")
    assert twin.archive.reordered >= 4
    assert twin.archive.stats()["segments"] == 3
    read_everything()
    twin.tear(1)
    assert twin.hidden
    read_everything()
    feed(*["in_order"] * 12, step=1.0)
    twin.compact()                  # downsamples around the quarantine
    assert twin.archive.stats()["events_downsampled"] > 0
    assert twin.hidden and twin.rollup_only()
    read_everything()
    twin.mend()
    read_everything()
    feed(*["in_order", "late", "in_order"] * 6, step=2.5)
    twin.checkpoint()
    twin.compact()                  # retires raw and rollup-only segments
    stats = twin.archive.stats()
    assert stats["events_retired"] > 0 and stats["segments_retired"] > 2
    read_everything()
    feed("in_order", "late")        # an unsealed head for the shed to cut
    twin.set_budget(60)             # less than one stored message
    assert twin.archive.degraded and len(twin.archive) <= 1
    assert twin.archive.stats()["shed"] > 0
    feed("in_order")                # refused, visibly
    assert twin.archive.dropped_degraded == 1
    read_everything()
    twin.set_budget(None)
    feed("in_order", "equal", "ancient", "in_order")
    assert not twin.archive.degraded
    read_everything()

    # the head's columns and running rollup, in a head long enough to
    # clip, with hosts and events that do not travel together
    twin = Twin(16, None)

    def add(kind, host, event, value):
        twin.append(kind, GRID, 0, host, event, "Usage", value)

    add("in_order", "h0", "CPU_USAGE", "3")         # 0.5
    add("in_order", "h1", "CPU_USAGE", "7")         # 1.0
    add("in_order", "h0", "NET_IO", "12")           # 1.5
    add("in_order", "h0", "CPU_USAGE", "0")         # 2.0
    add("late", "h1", "NET_IO", "42")               # 1.0, a distinct VALUE
    assert twin.archive.reordered == 1
    twin.check_summaries(1.0, GRID)         # clips the head around it
    twin.check_summaries(0.0, 2.0)          # ends exactly on the newest
    read_everything()
    # a host+event read whose window ends exactly on a posting, over a
    # sealed segment whose host and event postings differ
    add("in_order", "h0", "CPU_USAGE", "3")         # 2.5
    add("in_order", "h2", "CPU_USAGE", "7")         # 3.0
    add("in_order", "h0", "NET_IO", None)           # 3.5
    add("in_order", "h0", "CPU_USAGE", "n/a")       # 4.0
    add("in_order", "h0", "CPU_USAGE", "12")        # 4.5
    twin.checkpoint()
    twin.check_reads(2.5, 1.5)
    read_everything()
    # a full-span summary right after a disk-full front shed of the head
    for n in range(6):
        add("in_order", HOSTS[n % 3], EVENTS[n % 2], VALUES[n])
    twin.check_summaries(0.0, 50.0)
    twin.set_budget(150)                # the segment, then the head's front
    assert twin.archive.degraded and twin.archive.stats()["segments"] == 0
    assert 0 < len(twin.archive) < 6
    twin.check_summaries(0.0, 50.0)
    read_everything()
    twin.set_budget(None)
    read_everything()

    # first touches: a clipped summary and a host summary over sealed
    # segments whose summary-only indexes nothing has built yet
    twin = Twin(4, None)
    for n in range(12):
        add("in_order", HOSTS[n % 3], EVENTS[n % 3], VALUES[n % 6])
    assert twin.archive.stats()["segments"] == 3
    twin.check_summaries(1.25, 3.0)
    read_everything()

    # a downsample of a never-read segment: its host rollups outlive
    # the columns they are built from (h2 lives only in that segment)
    twin = Twin(4, RetentionPolicy(max_age=100.0, downsample_after=2.0))
    for n in range(12):
        add("in_order", ("h2", "h1")[n % 2] if n < 4 else HOSTS[n % 2],
            EVENTS[n % 3], VALUES[n % 6])
    everything = [msg for _, _, msg in twin.rows]
    twin.compact()
    assert twin.archive.stats()["segments_downsampled"] == 1
    for host in HOSTS:
        assert twin.archive.summarize_window(0.0, 50.0, host=host) == \
            summarize([m for m in everything if m.host == host]), host
    assert twin.archive.hosts() == list(HOSTS)
    assert [d["hosts"] for d in twin.archive.catalog()
            if d["downsampled"]] == [2]
    read_everything()

    # two never-read checkpoint runts, one late row interleaving them,
    # then a summary that clips both
    twin = Twin(8, None)
    for kind in ("in_order", "in_order", "in_order", "checkpoint",
                 "in_order", "late", "in_order", "checkpoint"):
        if kind == "checkpoint":
            twin.checkpoint()
        else:
            n = len(twin.rows)
            add(kind, HOSTS[n % 3], EVENTS[n % 3], VALUES[n % 6])
    twin.compact()
    assert twin.archive.stats()["segments"] == 2
    twin.check_summaries(0.75, 1.5)
    read_everything()

    # a late row inside a head that then seals: the segment keeps the
    # head's rollup, added in arrival order, while a re-add in date order
    # rounds differently — so the sum agrees to rounding, the rest exactly
    twin = Twin(3, None)
    add("in_order", "h0", "CPU_USAGE", "0.1")       # 0.5
    add("in_order", "h0", "CPU_USAGE", "0.2")       # 1.0
    add("late", "h1", "CPU_USAGE", "0.6")           # 0.0, and seals
    assert twin.archive.stats()["segments"] == 1
    (got,) = twin.archive.summarize_window(0.0, 50.0).values()
    (want,) = summarize(twin.visible()).values()
    assert got[0] == want[0] and got[2:] == want[2:]
    assert math.isclose(got[1], want[1], rel_tol=1e-12)

    # a literal "?" event name beside events with no name at all, sealed
    # and in the head: "?" is the rollup key of both, the name of one
    twin = Twin(4, None)
    for n, event in enumerate(("?", None, "?", None, "?", None)):
        add("in_order", HOSTS[n % 3], event, VALUES[n % 6])
    assert twin.archive.event_names() == ["?"]
    read_everything()
