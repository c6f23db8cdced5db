"""Tier-1 guard: the work one archive operation does, counted, not timed.

Like ``test_send_call_budget.py`` this gate cannot flake: it counts the
Python frames entered (``'call'`` events) and the source lines executed
(``'line'`` events) inside one ``append`` or one ``query``.  The write
head is the bare ``(date, arrival id)``-ordered arrays a segment is built
from, so a late arrival is a binary search and three ``list.insert``
calls — all C, no extra frames — and a windowed read right after it
walks its rows and nothing else: neither count may depend on how long
the head is.  When late arrivals waited in a buffer that the next read
folded in, that read ran one merge pass over the whole head and rebuilt
an index: the same frames, but lines in proportion to the head, which is
why lines are counted too.
"""

from __future__ import annotations

import sys

from repro.core import EventArchive, SamplingPolicy
from repro.ulm import ULMMessage

#: a late append may cost this many Python calls more than an in-order one
MAX_EXTRA_CALLS_LATE_APPEND = 2


def msg(t: float) -> ULMMessage:
    return ULMMessage(date=t, host="h0", prog="p", lvl="Usage",
                      event="CPU_USAGE", fields={"VALUE": "1"})


def count_work(fn, *args, **kwargs) -> tuple[int, int]:
    """(frames entered, lines executed) by one call of ``fn``."""
    calls = lines = 0

    def trace(_frame, event, _arg):
        nonlocal calls, lines
        if event == "call":
            calls += 1
        elif event == "line":
            lines += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(*args, **kwargs)
    finally:
        sys.settrace(previous)
    return calls, lines


def work_at_head_size(n: int) -> tuple:
    """Work of (in-order append, late append, 1-row query after it) with
    ``n`` events in a head that is nowhere near sealing."""
    archive = EventArchive(policy=SamplingPolicy(normal_fraction=1.0),
                           segment_events=3 * n)
    for i in range(n):
        archive.append(msg(float(i)))
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
