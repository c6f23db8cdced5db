"""Tier-1 guard: the work one archive operation does, counted, not timed.

Like ``test_send_call_budget.py`` this gate cannot flake: it counts the
Python frames entered (``'call'`` events) and the source lines executed
(``'line'`` events) inside one ``append``, ``query`` or
``summarize_window``.  The write head is the ``(date, arrival id)``-ordered
columns a segment is built from — message, date, arrival id, rollup key
and VALUE — so a late arrival is a binary search and five ``list.insert``
calls, all C, no extra frames, and a windowed read right after it walks
its rows and nothing else: neither count may depend on how long the head
is.  When late arrivals waited in a buffer that the next read folded in,
that read ran one merge pass over the whole head and rebuilt an index:
the same frames, but lines in proportion to the head, which is why lines
are counted too.

The same holds for the two reads the archive serves beside ingest: a
summary over the whole head merges the head's running rollup instead of
scanning its rows, and a host+event read over a sealed segment walks the
shorter of the two posting lists' window slices, never either list whole.

Sealing is a hand-over: the segment takes the head's running rollup and
columns, so the append that seals pays one byte estimate per row and a
constant, never a rollup add per row, and does not build the index only
summaries read (per-host rollups) — the first summary that names a host
does.  A summary that clips a sealed segment walks the window's rows of
its key/VALUE columns (with ``host=``, that host's posting slice of
them): it counts exactly those rows in ``raw_scanned``, and what the
segment holds outside the window costs it nothing.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter

import pytest

from repro.core import EventArchive, SamplingPolicy
from repro.ulm import ULMMessage

#: a late append may cost this many Python calls more than an in-order one
MAX_EXTRA_CALLS_LATE_APPEND = 2


def msg(t: float, host: str = "h0", event: str = "CPU_USAGE") -> ULMMessage:
    return ULMMessage(date=t, host=host, prog="p", lvl="Usage",
                      event=event, fields={"VALUE": "1"})


def trace_work(fn, *args, **kwargs) -> tuple[Counter, int]:
    """(frames entered, by function name; lines executed) by one call
    of ``fn``.  The collector is off meanwhile: a finalizer of some
    earlier test's garbage, run by an allocation in here, is work too."""
    calls: Counter = Counter()
    lines = 0

    def trace(frame, event, _arg):
        nonlocal lines
        if event == "call":
            calls[frame.f_code.co_name] += 1
        elif event == "line":
            lines += 1
        return trace

    previous = sys.gettrace()
    gc.disable()
    sys.settrace(trace)
    try:
        fn(*args, **kwargs)
    finally:
        sys.settrace(previous)
        gc.enable()
    return calls, lines


def count_work(fn, *args, **kwargs) -> tuple[int, int]:
    """(frames entered, lines executed) by one call of ``fn``."""
    calls, lines = trace_work(fn, *args, **kwargs)
    return sum(calls.values()), lines


def head_of(n: int) -> EventArchive:
    """``n`` in-order events in a head that is nowhere near sealing."""
    archive = EventArchive(policy=SamplingPolicy(normal_fraction=1.0),
                           segment_events=3 * n)
    for i in range(n):
        archive.append(msg(float(i)))
    return archive


def work_at_head_size(n: int) -> tuple:
    """Work of (in-order append, late append, 1-row query after it) with
    ``n`` events in the head."""
    archive = head_of(n)
    in_order = count_work(archive.append, msg(float(n)))
    late = count_work(archive.append, msg(n / 2 + 0.25))
    assert archive.reordered == 1 and archive.sealed_segments == 0
    rows = []
    query = count_work(lambda: rows.extend(
        archive.query(t0=n / 2 + 0.125, t1=n / 2 + 0.5)))
    assert [m.date for m in rows] == [n / 2 + 0.25]
    return in_order, late, query


def test_late_append_and_the_read_after_it_do_not_pay_for_the_head():
    small = work_at_head_size(64)
    large = work_at_head_size(4096)
    assert small == large, (small, large)
    (in_order_calls, _), (late_calls, _), _ = small
    assert late_calls - in_order_calls <= MAX_EXTRA_CALLS_LATE_APPEND, small


def summary_work_at_head_size(n: int) -> tuple[int, int]:
    """Work of one summary over the whole head, a late arrival in it."""
    archive = head_of(n)
    archive.append(msg(n / 2 + 0.25))
    summary = {}
    work = count_work(lambda: summary.update(
        archive.summarize_window(0.0, n + 1.0)))
    assert summary["CPU_USAGE"][:3] == (n + 1, n + 1.0, n + 1)
    assert archive.stats()["raw_scanned"] == 0
    return work


def test_a_full_span_summary_does_not_pay_for_the_head():
    small = summary_work_at_head_size(64)
    large = summary_work_at_head_size(4096)
    assert small == large, (small, large)


def host_event_read_work(host_only: int, event_only: int,
                         outside: int) -> tuple[int, int]:
    """Work of one ``host="h0", event="CPU_USAGE"`` read whose window
    holds its two matching rows, ``host_only`` rows of h0's other event
    and ``event_only`` rows of CPU_USAGE from another host, over one
    sealed segment with ``outside`` matching rows on each side of it."""
    match = ("h0", "CPU_USAGE")
    window = [match] + [("h0", "NET_IO")] * host_only + \
        [("h1", "CPU_USAGE")] * event_only + [match]
    script = [match] * outside + window + [match] * outside
    archive = EventArchive(policy=SamplingPolicy(normal_fraction=1.0),
                           segment_events=len(script))
    for t, (host, event) in enumerate(script):
        archive.append(msg(float(t), host, event))
    assert archive.sealed_segments == 1
    t0, t1 = float(outside), float(outside + len(window) - 1)
    rows = []
    work = count_work(lambda: rows.extend(
        archive.query(t0=t0, t1=t1, host="h0", event="CPU_USAGE")))
    assert [m.date for m in rows] == [t0, t1]
    return work


@pytest.mark.parametrize("shorter", ["host", "event"])
def test_a_host_event_read_does_not_pay_for_its_posting_lists(shorter):
    """Whichever posting list's window slice is shorter leads; the
    other's length, inside the window or out, costs nothing."""
    works = set()
    for longer, outside in ((1, 10), (40, 10), (40, 3000), (400, 3000)):
        if shorter == "host":
            works.add(host_event_read_work(0, longer, outside))
        else:
            works.add(host_event_read_work(longer, 0, outside))
    assert len(works) == 1, works


#: what builds or reads a segment's summary-only indexes
LAZY_INDEXES = {"host_rollups", "_rollup"}


def seal_frames(n: int) -> Counter:
    """Frames the append that seals an ``n``-row head enters."""
    archive = EventArchive(policy=SamplingPolicy(normal_fraction=1.0),
                           segment_events=n)
    for i in range(n - 1):
        archive.append(msg(float(i), f"h{i % 3}", ("A", "B")[i % 2]))
    frames, _ = trace_work(archive.append, msg(float(n)))
    assert archive.sealed_segments == 1
    return frames


def test_the_sealing_append_pays_one_byte_estimate_per_row():
    small, large = seal_frames(64), seal_frames(4096)
    for n, frames in ((64, small), (4096, large)):
        assert frames["_msg_bytes"] == n
        assert frames["_roll_add"] == 1     # the sealing row's admission
        assert not frames.keys() & LAZY_INDEXES, frames
    assert sum(small.values()) - 64 == sum(large.values()) - 4096, \
        (small, large)


def test_summary_only_indexes_wait_for_the_summary_that_reads_them():
    archive = EventArchive(policy=SamplingPolicy(normal_fraction=1.0),
                           segment_events=64)
    for i in range(3 * 64 + 10):
        archive.append(msg(float(i), f"h{i % 3}"))
    assert archive.sealed_segments == 3

    def summary(t0, host=None):
        frames, _ = trace_work(archive.summarize_window, t0, 1e6, host=host)
        return frames

    full = summary(0.0)
    assert not full.keys() & LAZY_INDEXES, full
    assert archive.stats()["raw_scanned"] == 0
    clipped = summary(10.0)
    assert not clipped.keys() & LAZY_INDEXES, clipped
    # the first host summary builds every full segment's host rollups
    # (one table per host it holds); the next reads them
    assert summary(0.0, "h1")["_rollup"] == 3 * 3
    assert summary(0.0, "h1")["_rollup"] == 0


def clipped_summary_work(outside: int, others: int,
                         host: str | None) -> tuple[int, int]:
    """Work of one summary whose window clips one sealed segment: the
    window holds four rows of h0 and ``others`` rows of h1, and
    ``outside`` more rows of h0 lie on each side of it."""
    window = ["h0", "h0"] + ["h1"] * others + ["h0", "h0"]
    script = ["h0"] * outside + window + ["h0"] * outside
    archive = EventArchive(policy=SamplingPolicy(normal_fraction=1.0),
                           segment_events=len(script))
    for t, name in enumerate(script):
        archive.append(msg(float(t), name))
    assert archive.sealed_segments == 1 and len(archive) == len(script)
    summary = {}
    work = count_work(lambda: summary.update(archive.summarize_window(
        float(outside), float(outside + len(window)), host=host)))
    rows = len(window) if host is None else window.count(host)
    assert summary == {"CPU_USAGE": (rows, float(rows), rows, 1.0, 1.0)}
    assert archive.stats()["raw_scanned"] == rows
    return work


@pytest.mark.parametrize("host, cases", [
    (None, ((1, 3), (40, 3), (3000, 3))),
    # the host's posting slice leads: other hosts' rows in the window
    # cost nothing either
    ("h0", ((1, 3), (40, 3), (3000, 3), (3000, 300))),
])
def test_a_clipped_summary_walks_only_its_window(host, cases):
    works = {clipped_summary_work(outside, others, host)
             for outside, others in cases}
    assert len(works) == 1, works
