"""The segmented, fault-tolerant EventArchive: sealing, catalog,
retention/compaction, rollups, and the storage fault surface."""

import math
import random

import pytest

from repro.core import (ArchiveQuery, EventArchive, RetentionPolicy,
                        SamplingPolicy)
from repro.ulm import ULMMessage

EVENTS = ("CPU_USAGE", "MEM_USAGE", "NET_IO")
HOSTS = ("h0", "h1", "h2")


def msg(t, event="CPU_USAGE", host="h0", value=None, **extra):
    fields = {k: str(v) for k, v in extra.items()}
    if value is not None:
        fields["VALUE"] = str(value)
    return ULMMessage(date=float(t), host=host, prog="p", lvl="Usage",
                      event=event, fields=fields)


def keep_all():
    return SamplingPolicy(normal_fraction=1.0)


def fill(archive, n, *, rng=None, start=0.0, step=0.1):
    """Feed n events, mostly in order, some late (out-of-order)."""
    out = []
    for i in range(n):
        t = start + i * step
        if rng is not None and rng.random() < 0.15 and i > 5:
            t -= rng.uniform(0.5, 3.0) * step  # late arrival
        m = msg(t, event=EVENTS[i % 3], host=HOSTS[i % 3], value=i % 10)
        if archive.append(m):
            out.append(m)
    return out


class TestSealing:
    def test_head_seals_into_immutable_segments(self):
        archive = EventArchive(policy=keep_all(), segment_events=8)
        fill(archive, 30)
        stats = archive.stats()
        assert stats["sealed"] >= 3
        assert stats["segments"] >= 3
        assert len(archive) == 30
        # catalog events + head remainder account for everything
        catalog = archive.catalog()
        assert sum(c["events"] for c in catalog) + \
            (len(archive) - sum(c["events"] for c in catalog)) == 30

    @pytest.mark.parametrize("bad", [None, 0, -1])
    def test_segment_events_must_be_a_positive_int(self, bad):
        """There is no flat mode: "never seal" used to be spelled
        ``None`` (or, silently, anything <= 0)."""
        with pytest.raises(ValueError, match="segment_events"):
            EventArchive(policy=keep_all(), segment_events=bad)

    def test_messages_is_a_fresh_list_before_and_after_a_seal(self):
        archive = EventArchive(policy=keep_all(), segment_events=8)
        expect = fill(archive, 5)
        assert archive.stats()["segments"] == 0
        view = archive.messages
        view.sort(key=lambda m: -m.date)   # a caller's own business
        view.pop()
        assert [id(m) for m in archive.messages] == [id(m) for m in expect]
        assert len(archive) == 5
        expect += fill(archive, 10, start=1.0)
        assert archive.stats()["segments"] >= 1
        view = archive.messages
        view.reverse()
        del view[:3]
        assert [id(m) for m in archive.messages] == [id(m) for m in expect]
        assert [id(m) for m in archive.query()] == [id(m) for m in expect]

    def test_checkpoint_seals_the_head(self):
        archive = EventArchive(policy=keep_all(), segment_events=1000)
        fill(archive, 10)
        assert archive.stats()["segments"] == 0
        assert archive.checkpoint() == 1
        assert archive.stats()["segments"] == 1
        assert len(archive) == 10
        assert archive.checkpoint() == 0  # empty head: nothing to seal

    def test_catalog_descriptors_are_plain_data(self):
        archive = EventArchive(policy=keep_all(), segment_events=8)
        fill(archive, 20)
        for entry in archive.catalog():
            assert {"seq", "t_min", "t_max", "events", "bytes", "hosts",
                    "downsampled", "quarantined"} <= set(entry)
            assert entry["t_min"] <= entry["t_max"]
            assert not entry["downsampled"] and not entry["quarantined"]


class TestQueryParity:
    """The archive answers every query exactly like a flat list of the
    same arrivals sorted by ``(date, arrival order)``."""

    def build_pair(self, n=300, seed=5):
        seg = EventArchive(policy=keep_all(), segment_events=7)
        flat = []
        rng = random.Random(seed)
        for i in range(n):
            t = i * 0.05
            if rng.random() < 0.2 and i > 10:
                t = max(0.0, t - rng.uniform(0.1, 1.0))
            m = msg(t, event=EVENTS[rng.randrange(3)],
                    host=HOSTS[rng.randrange(3)], value=i % 17)
            seg.append(m)
            flat.append(m)
        flat.sort(key=lambda m: m.date)  # stable: ties keep arrival order
        return seg, flat

    def test_full_scan_order_identical(self):
        seg, flat = self.build_pair()
        assert [id(m) for m in seg.query()] == [id(m) for m in flat]

    def test_windowed_and_filtered_queries_identical(self):
        seg, flat = self.build_pair()
        rng = random.Random(9)
        for _ in range(40):
            t0 = rng.uniform(-1.0, 15.0)
            q = ArchiveQuery(t0=t0, t1=t0 + rng.uniform(0.1, 6.0),
                             host=rng.choice((None,) + HOSTS),
                             event=rng.choice((None,) + EVENTS))
            end_exclusive = rng.random() < 0.5
            expect = [m for m in flat if q.matches(m)
                      and not (end_exclusive and m.date == q.t1)]
            assert [id(m) for m in seg.iter_query(q,
                                                  end_exclusive=end_exclusive)] \
                == [id(m) for m in expect]

    def test_hosts_events_and_span_identical(self):
        seg, flat = self.build_pair()
        assert seg.hosts() == sorted({m.host for m in flat})
        assert seg.event_names() == sorted({m.event for m in flat})
        assert seg.time_span() == (flat[0].date, flat[-1].date)


class TestChurnProperty:
    """250 steps of append/seal/compact/retention churn against a
    brute-force flat-list oracle (late out-of-order arrivals included).

    The oracle mirrors the archive's loss paths exactly via the
    compact report, so any divergence is a real bug, not test slack.
    """

    def test_250_step_churn_matches_oracle(self):
        rng = random.Random(1234)
        archive = EventArchive(
            policy=keep_all(), segment_events=8,
            retention=RetentionPolicy(max_age=30.0, downsample_after=20.0))
        oracle = []          # [(date, arrival_idx, msg)] still raw-retained
        rolled_counts = {}   # event -> count living on as rollups only
        arrival = 0
        t = 0.0
        for step in range(250):
            op = rng.random()
            if op < 0.70:
                for _ in range(rng.randrange(1, 6)):
                    t += rng.uniform(0.01, 0.6)
                    date = t
                    if rng.random() < 0.2 and t > 2.0:
                        date = max(0.0, t - rng.uniform(0.1, 1.5))  # late
                    m = msg(date, event=EVENTS[rng.randrange(3)],
                            host=HOSTS[rng.randrange(3)],
                            value=rng.randrange(100))
                    assert archive.append(m)
                    oracle.append((date, arrival, m))
                    arrival += 1
            elif op < 0.85:
                archive.checkpoint()
            else:
                report = archive.compact_once()
                dropped = {id(m) for m in report["retired"]}
                for m in report["downsampled"]:
                    dropped.add(id(m))
                    rolled_counts[m.event] = rolled_counts.get(m.event, 0) + 1
                for rollups in report["retired_rollups"]:
                    # downsampled history ages out too; its summary
                    # rows leave with it
                    for event, row in rollups.items():
                        rolled_counts[event] -= row[0]
                oracle = [rec for rec in oracle if id(rec[2]) not in dropped]
            # the accounting identity closes after every step
            s = archive.stats()
            assert s["ingested"] == (s["count"] + s["shed"]
                                     + s["events_retired"]
                                     + s["events_downsampled"]
                                     + s["quarantined_events"])
        # raw content and order match the oracle exactly
        oracle.sort(key=lambda rec: (rec[0], rec[1]))
        assert [id(m) for m in archive.query()] == \
            [id(rec[2]) for rec in oracle]
        # downsampled events still show up in rollup summaries
        t0, t1 = archive.stats()["ingested_span"]
        rollup = archive.summarize_window(t0, t1 + 1.0)
        for event in EVENTS:
            raw = sum(1 for rec in oracle if rec[2].event == event)
            assert rollup.get(event, (0,))[0] == \
                raw + rolled_counts.get(event, 0)

    def test_loss_floor_is_monotone_under_churn(self):
        rng = random.Random(7)
        archive = EventArchive(
            policy=keep_all(), segment_events=8,
            retention=RetentionPolicy(max_age=5.0, max_bytes=4_000))
        floor = archive.loss_floor
        t = 0.0
        for _ in range(120):
            t += rng.uniform(0.05, 0.4)
            archive.append(msg(t, value=1))
            if rng.random() < 0.3:
                archive.compact_once()
            assert archive.loss_floor >= floor
            floor = archive.loss_floor
        assert floor > float("-inf")  # retention actually dropped history


class TestRetention:
    def test_max_age_retires_cold_segments(self):
        archive = EventArchive(policy=keep_all(), segment_events=10,
                               retention=RetentionPolicy(max_age=10.0))
        for i in range(100):
            archive.append(msg(i * 1.0, value=i))
        archive.compact_once()
        s = archive.stats()
        assert s["events_retired"] > 0
        t0, t1 = archive.time_span()
        assert t1 - t0 <= 10.0 + 10.0  # span bounded by age + one segment
        assert s["loss_floor"] >= t0 - 1.0
        # ingested span still reports everything ever admitted
        assert s["ingested_span"][0] == 0.0

    def test_max_bytes_bounds_resident_footprint(self):
        budget = 6_000
        archive = EventArchive(policy=keep_all(), segment_events=16,
                               retention=RetentionPolicy(max_bytes=budget))
        peak = 0
        for i in range(2_000):
            archive.append(msg(i * 0.01, value=i % 10, PAD="x" * 16))
            if i % 64 == 0:
                archive.compact_once()
                peak = max(peak, archive.bytes_stored)
        archive.compact_once()
        # O(retention budget): never grows past budget + one head segment
        assert archive.bytes_stored <= budget
        assert peak <= budget * archive.retention.degrade_factor
        assert len(archive) < 2_000

    def test_downsampling_keeps_summaries_drops_raw(self):
        archive = EventArchive(
            policy=keep_all(), segment_events=10,
            retention=RetentionPolicy(max_age=100.0, downsample_after=20.0))
        for i in range(60):
            archive.append(msg(i * 1.0, value=i))
        archive.compact_once()
        s = archive.stats()
        assert s["events_downsampled"] > 0
        assert s["segments_downsampled"] > 0
        # raw reads only see the recent events...
        raw = archive.query()
        assert len(raw) == len(archive)
        assert all(m.date > s["loss_floor"] for m in raw)
        # ...but summaries still count the whole ingested history
        rollup = archive.summarize_window(0.0, 60.0)
        assert rollup["CPU_USAGE"][0] == 60
        assert rollup["CPU_USAGE"][1] == pytest.approx(sum(range(60)))

    def test_compaction_backlog_degrades_and_heals(self):
        archive = EventArchive(
            policy=keep_all(), segment_events=8,
            retention=RetentionPolicy(max_bytes=2_000, degrade_factor=1.5))
        i = 0
        while not archive.degraded and i < 10_000:
            archive.append(msg(i * 0.01, value=1, PAD="y" * 32))
            i += 1
        assert archive.degraded_reason == "compaction_backlog"
        assert not archive.append(msg(1e6))  # refused while degraded
        report = archive.compact_once()
        assert report["healed"]
        assert not archive.degraded
        assert archive.append(msg(1e6))

    def test_retention_validation(self):
        with pytest.raises(ValueError):
            RetentionPolicy(max_age=-1.0)
        with pytest.raises(ValueError):
            RetentionPolicy(max_bytes=0)
        with pytest.raises(ValueError):
            RetentionPolicy(max_age=10.0, downsample_after=10.0)
        with pytest.raises(ValueError):
            RetentionPolicy(degrade_factor=0.5)


class TestRollups:
    def build(self, n=600, seed=21, **kwargs):
        archive = EventArchive(policy=keep_all(), segment_events=16,
                               **kwargs)
        rng = random.Random(seed)
        t = 0.0
        for i in range(n):
            t += rng.uniform(0.01, 0.2)
            archive.append(msg(t, event=EVENTS[rng.randrange(3)],
                               host=HOSTS[rng.randrange(3)],
                               value=rng.uniform(0.0, 50.0)))
        return archive

    def brute(self, archive, t0, t1, host=None):
        out = {}
        q = ArchiveQuery(t0=t0, t1=t1, host=host)
        for m in archive.iter_query(q, end_exclusive=True):
            row = out.setdefault(m.event, [0, 0.0, 0, math.inf, -math.inf])
            row[0] += 1
            value = float(m.fields["VALUE"])
            row[1] += value
            row[2] += 1
            row[3] = min(row[3], value)
            row[4] = max(row[4], value)
        return out

    def test_summarize_matches_brute_force(self):
        archive = self.build()
        rng = random.Random(2)
        lo, hi = archive.time_span()
        for _ in range(30):
            t0 = rng.uniform(max(0.0, lo - 1.0), hi)
            t1 = t0 + rng.uniform(0.05, hi - lo)
            host = rng.choice((None, None, "h0", "h2"))
            rolled = archive.summarize_window(t0, t1, host=host)
            expect = self.brute(archive, t0, t1, host=host)
            assert set(rolled) == set(expect)
            for event, row in expect.items():
                got = rolled[event]
                assert got[0] == row[0]
                assert got[2] == row[2]
                assert got[1] == pytest.approx(row[1])
                assert got[3] == pytest.approx(row[3])
                assert got[4] == pytest.approx(row[4])

    def test_clipped_sum_does_not_cancel_against_large_values(self):
        """A sub-window of 1.0s after a run of 1e16s sums to 10.0, which
        a difference of running sums over the segment would cancel to
        0.0 (32 * 1e16 + 1.0 rounds back to 32 * 1e16)."""
        archive = EventArchive(policy=keep_all(), segment_events=64)
        for i in range(64):
            archive.append(msg(i, value=1e16 if i < 32 else 1.0))
        archive.append(msg(64, value=1.0))
        assert archive.stats()["segments"] == 1
        assert archive.summarize_window(40.0, 50.0)["CPU_USAGE"] == \
            (10, 10.0, 10, 1.0, 1.0)
        assert archive.stats()["raw_scanned"] == 10

    def test_wide_windows_served_from_rollups_not_raw(self):
        archive = self.build()
        lo, hi = archive.time_span()
        archive.summarize_window(lo, hi + 1.0)
        s = archive.stats()
        assert s["rollup_hits"] > 0
        # a full-span summary must not degenerate to a raw scan
        assert s["raw_scanned"] < len(archive) // 2

    def test_summarize_rejects_empty_window(self):
        archive = self.build(n=10)
        with pytest.raises(ValueError):
            archive.summarize_window(5.0, 5.0)


class TestFaultSurface:
    def build(self, n=80):
        archive = EventArchive(policy=keep_all(), segment_events=8)
        for i in range(n):
            archive.append(msg(i * 0.1, event=EVENTS[i % 3], value=i % 5))
        return archive

    def test_torn_segment_detected_quarantined_and_served_around(self):
        archive = self.build()
        total = len(archive)
        assert archive.tear_segment(0)
        served = archive.query()
        assert 0 < len(served) < total
        s = archive.stats()
        assert s["quarantined"] == 1
        assert s["quarantined_events"] == total - len(served)
        (a, b), = archive.quarantined_spans()
        assert a <= b

    def test_mend_reinstates_and_restores_full_reads(self):
        archive = self.build()
        total = len(archive)
        archive.tear_segment(2)
        archive.query()  # trip detection
        assert archive.mend_segments() == 1
        s = archive.stats()
        assert s["quarantined"] == 0
        assert s["segments_reinstated"] == 1
        assert len(archive.query()) == total

    def test_summaries_skip_quarantined_spans(self):
        archive = self.build()
        archive.tear_segment(0)
        lo, hi = archive.time_span()
        rolled = archive.summarize_window(lo, hi + 1.0)
        raw = archive.query()
        assert sum(row[0] for row in rolled.values()) == len(raw)

    def test_tear_without_segments_is_a_noop(self):
        archive = EventArchive(policy=keep_all(), segment_events=100)
        fill(archive, 20)  # under the threshold: nothing sealed yet
        assert not archive.tear_segment(0)
        assert len(archive.query()) == 20

    def test_stall_modes_validated_and_visible(self):
        archive = self.build()
        with pytest.raises(ValueError):
            archive.stall_compaction("unplug")
        archive.stall_compaction("wedge")
        assert archive.compaction_stalled
        assert archive.compact_once()["stalled"]
        archive.clear_compaction_stall()
        assert not archive.compaction_stalled
        assert not archive.compact_once()["stalled"]

    def test_io_latency_factor_validated(self):
        archive = self.build(n=5)
        with pytest.raises(ValueError):
            archive.set_io_latency(0.0)
        archive.set_io_latency(4.0)
        assert archive.stats()["io_latency_factor"] == pytest.approx(4.0)
        archive.set_io_latency(None)
        assert archive.stats()["io_latency_factor"] == pytest.approx(1.0)


class TestSpanAccounting:
    """Satellite fix: shed/retention must not silently shrink the
    reported ingest history — retained and ingested spans are distinct."""

    def test_front_shed_keeps_ingested_span(self):
        archive = EventArchive(policy=keep_all(), segment_events=100)
        for i in range(50):
            archive.append(msg(i * 1.0, value=1, PAD="z" * 40))
        archive.set_byte_budget(2_000)  # well under 50 padded records
        s = archive.stats()
        assert s["shed"] > 0
        assert s["ingested_span"] == (0.0, 49.0)
        assert s["retained_span"][0] > 0.0
        assert s["loss_floor"] >= s["retained_span"][0] - 1.0

    def test_retirement_keeps_ingested_span(self):
        archive = EventArchive(policy=keep_all(), segment_events=8,
                               retention=RetentionPolicy(max_age=5.0))
        for i in range(60):
            archive.append(msg(i * 1.0, value=1))
        archive.compact_once()
        s = archive.stats()
        assert s["ingested_span"] == (0.0, 59.0)
        assert s["retained_span"][0] > 0.0
        assert s["tstart"] == s["retained_span"][0]
