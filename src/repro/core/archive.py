"""Event archives (paper §2.2).

"It is important to archive event data in order to provide the ability
to do historical analysis of system performance ... While it may not be
desirable to archive all monitoring data, it is necessary to archive a
good sampling of both 'normal' and 'abnormal' system operation."

:class:`SamplingPolicy` implements that: abnormal events (by LVL, or by
event-name patterns) are always kept; normal events are kept at a
configurable sampling fraction.  The archive itself is "just another
consumer" — see :class:`repro.core.consumers.archiver.ArchiverAgent`.

Storage is log-structured with one shape, parallel arrays in ``(date,
arrival id)`` order.  The active **write head** is just those arrays —
among them each event's rollup key and VALUE, read once at admission —
and a running rollup of the whole head: a late arrival is a binary
search plus an insert, and a summary that covers the head merges that
rollup, so only a head the window clips is scanned.  Every
``segment_events`` admissions the head is sealed into an immutable
**segment**, and sealing is a hand-over: the segment keeps the head's
arrays and takes its running rollup as its pre-aggregated **rollups**
(count/sum/min/max per event name); what it builds is a time span,
per-host / per-event posting indexes and a byte-accounted footprint.
Per-host rollups, which only ``host=`` summaries and downsampling read,
are built from the key and VALUE columns on first read and cached.  A
summary the rollups do not cover — a window that clips a segment or the
head — walks the window's rows of those columns, in one routine for
head and segments alike.  A
**catalog** ordered by segment start time resolves a window query to
just the overlapping segments; non-overlapping segments chain,
overlapping ones merge by ``(date, arrival id)`` — bit-identical to a
flat time-ordered list.

:class:`RetentionPolicy` bounds the store by age and/or bytes; a
:class:`ArchiveCompactor` (kernel-scheduled, supervised like sensors)
retires and downsamples cold segments.  A multi-resolution rollup tree
over the catalog, rebuilt by the first summary after the catalog
changes, makes ``summarize_window`` over a month cost about the same as
over a minute.  Storage is also a fault surface:
segments can be *torn* (checksum fails; queries detect, quarantine, and
keep serving the rest), compaction can *stall* (ingest continues until
retention pressure forces degraded mode), and the (simulated) disk can
go *slow* (compaction cadence stretches).  Every loss path advances
:attr:`EventArchive.loss_floor`, the watermark below which committed
events may legitimately be gone — the scenario invariants are scoped to
it.
"""

from __future__ import annotations

import fnmatch
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from heapq import merge as _heap_merge
from operator import attrgetter
from typing import Iterable, Iterator, Optional

from ..ulm import ULMMessage
from .resilience import ResilienceConfig, ResiliencePolicy

__all__ = ["EventArchive", "SamplingPolicy", "ArchiveQuery",
           "RetentionPolicy", "ArchiveCompactor"]

ABNORMAL_LEVELS = frozenset({"Emergency", "Alert", "Error", "Warning",
                             "Security"})

#: default seal threshold (head admissions per segment)
_DEFAULT_SEGMENT_EVENTS = 4096
#: children per rollup-tree node (multi-resolution summaries)
_TREE_ARITY = 8
#: the compactor watchdog's restart-backoff gate on its resilience policy
_EDGE_RESTART = "compactor.restart"


@dataclass
class SamplingPolicy:
    """What gets archived.

    ``normal_fraction`` = 1.0 archives everything; 0.1 keeps every 10th
    normal event (deterministic stride, so runs reproduce).  Events with
    an abnormal LVL, or whose name matches ``always_keep`` globs, bypass
    sampling.
    """

    normal_fraction: float = 1.0
    always_keep: tuple = ("*ERROR*", "*CRASH*", "PROC_EXIT", "TCPD_*")
    abnormal_levels: frozenset = ABNORMAL_LEVELS
    _counter: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.normal_fraction <= 1.0):
            raise ValueError("normal_fraction must be in [0, 1]")

    def admits(self, msg: ULMMessage) -> bool:
        if self.normal_fraction >= 1.0:
            return True     # keeps everything: LVL and globs cannot matter
        if msg.lvl in self.abnormal_levels:
            return True
        name = msg.event or ""
        if any(fnmatch.fnmatchcase(name, pat) for pat in self.always_keep):
            return True
        if self.normal_fraction <= 0.0:
            return False
        self._counter += 1
        stride = round(1.0 / self.normal_fraction)
        return (self._counter % stride) == 0


@dataclass(frozen=True)
class ArchiveQuery:
    """Historical query parameters."""

    t0: float = float("-inf")
    t1: float = float("inf")
    host: Optional[str] = None
    event: Optional[str] = None
    lvl: Optional[str] = None

    def matches(self, msg: ULMMessage) -> bool:
        if not (self.t0 <= msg.date <= self.t1):
            return False
        if self.host is not None and msg.host != self.host:
            return False
        if self.event is not None and msg.event != self.event:
            return False
        if self.lvl is not None and msg.lvl != self.lvl:
            return False
        return True


@dataclass(frozen=True)
class RetentionPolicy:
    """How much history the archive keeps.

    ``max_age`` retires segments whose span has fallen that far behind
    the newest ingested date; ``max_bytes`` caps the total (modelled)
    footprint — the compactor retires oldest-first to fit.  Optional
    ``downsample_after`` converts segments older than that age to
    rollup-only form (raw events dropped, summaries kept).  If ingest
    outruns compaction by ``degrade_factor`` × ``max_bytes`` the archive
    flips to degraded mode (``degraded_reason="compaction_backlog"``)
    until the compactor catches up — bounded memory, never silent.
    """

    max_age: Optional[float] = None
    max_bytes: Optional[int] = None
    downsample_after: Optional[float] = None
    degrade_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_age is not None and self.max_age <= 0:
            raise ValueError("max_age must be positive")
        if self.downsample_after is not None and self.downsample_after <= 0:
            raise ValueError("downsample_after must be positive")
        if self.max_bytes is not None and int(self.max_bytes) <= 0:
            raise ValueError("max_bytes must be positive")
        if self.degrade_factor < 1.0:
            raise ValueError("degrade_factor must be >= 1.0")
        if (self.max_age is not None and self.downsample_after is not None
                and self.downsample_after >= self.max_age):
            raise ValueError("downsample_after must be < max_age")


#: fixed per-record overhead (header + length prefixes), mirroring the
#: binary wire format closely enough for budget arithmetic
_RECORD_OVERHEAD = 16
_FIELD_OVERHEAD = 3


def _msg_bytes(msg: ULMMessage) -> int:
    """Stored-size estimate for one message.

    A model of the binary record layout (header + length-prefixed
    strings), not an actual encode — budget accounting must not put a
    serializer on the ingest path.
    """
    size = _RECORD_OVERHEAD + len(msg.host) + len(msg.prog) + len(msg.lvl)
    for name, value in msg.fields.items():
        size += _FIELD_OVERHEAD + len(name) + len(value)
    return size


def _msg_value(msg: ULMMessage) -> Optional[float]:
    """The numeric VALUE field, with :func:`summarize_period` semantics
    (missing or non-numeric values contribute count but no mean)."""
    raw = msg.fields.get("VALUE")
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        return None


def _iter_rows(messages: Optional[list], dates: list, ids: list,
               by_host: Optional[dict], by_event: Optional[dict],
               q: ArchiveQuery, end_exclusive: bool):
    """Yield the rows of one ``(date, arrival id)``-ordered run that
    match ``q`` (half-open ``[t0, t1)`` if ``end_exclusive``), in that
    order, as ``(date, arrival_id, msg)`` — the archive's one read
    routine.  The window is two binary searches on the dates; a sealed
    segment also bisects each named posting list to the window and walks
    the shortest of those slices, checking the other constraints per
    row, so a read costs the rows of its window and never a posting
    list's length.  The write head passes ``None`` for both posting
    maps and walks its window slice, which the seal threshold bounds.
    Summaries never read through here: they merge rollups, or walk the
    key/VALUE columns (:meth:`EventArchive._summarize_columns`).
    """
    if messages is None:
        return  # rollup-only segment: no raw events to serve
    lo = bisect_left(dates, q.t0)
    hi = bisect_left(dates, q.t1) if end_exclusive \
        else bisect_right(dates, q.t1)
    if lo >= hi:
        return
    host, event, lvl = q.host, q.event, q.lvl
    rows = None
    for postings, key in ((by_event, event), (by_host, host)):
        if postings is not None and key is not None:
            positions = postings.get(key)
            if positions is None:
                return
            a = bisect_left(positions, lo)
            b = bisect_left(positions, hi)
            if rows is None or b - a < len(rows):
                rows = positions[a:b]
    for pos in range(lo, hi) if rows is None else rows:
        msg = messages[pos]
        if host is not None and msg.host != host:
            continue
        if event is not None and msg.event != event:
            continue
        if lvl is None or msg.lvl == lvl:
            yield dates[pos], ids[pos], msg


# -- rollup rows: [count, value_sum, value_count, value_min, value_max] -----

def _roll_add(table: dict, key: str, value: Optional[float]) -> None:
    row = table.get(key)
    if row is None:
        table[key] = row = [0, 0.0, 0, float("inf"), float("-inf")]
    row[0] += 1
    if value is not None:
        row[1] += value
        row[2] += 1
        if value < row[3]:
            row[3] = value
        if value > row[4]:
            row[4] = value


def _roll_merge(dst: dict, src: dict) -> None:
    for key, s in src.items():
        row = dst.get(key)
        if row is None:
            dst[key] = [s[0], s[1], s[2], s[3], s[4]]
        else:
            row[0] += s[0]
            row[1] += s[1]
            row[2] += s[2]
            if s[3] < row[3]:
                row[3] = s[3]
            if s[4] > row[4]:
                row[4] = s[4]


def _rollup(keys: Iterable, values: Iterable) -> dict:
    """The rollup of a run of key/value columns, added in their order."""
    table: dict = {}
    for key, value in zip(keys, values):
        _roll_add(table, key, value)
    return table


def _postings(column: Iterable) -> dict:
    """The ascending positions of each distinct value in ``column``."""
    out: dict = {}
    for pos, value in enumerate(column):
        out.setdefault(value, []).append(pos)
    return out


class _Segment:
    """One sealed, immutable slab of the log.

    Messages are stored in ``(date, arrival id)`` order with parallel
    date / id / rollup-key / VALUE arrays, positional posting lists per
    host / event name, and the rollup table the write head handed over.
    Per-host rollup tables (:attr:`host_rollups`, for ``host=``
    summaries and downsampling) are built from the key and VALUE columns
    on first read and cached; a summary that clips the segment walks
    those columns over its window instead.  ``checksum`` models on-disk
    integrity: :meth:`verify` fails after :meth:`tear` until
    :meth:`mend` recomputes it; ``trusted`` is the verified-once
    watermark (cleared by tear, restored by mend or a passing verify)
    that keeps repeat catalog scans from re-hashing every segment.
    Segment handles never leave the owning archive (analysis rule
    RES002) — external code sees :meth:`EventArchive.catalog`
    descriptor dicts.
    """

    __slots__ = ("seq", "messages", "dates", "ids", "keys", "values",
                 "by_host", "by_event", "t_min", "t_max", "id_lo", "id_hi",
                 "bytes", "count", "rollups", "_host_rollups",
                 "checksum", "downsampled", "trusted")

    @property
    def host_rollups(self) -> dict:
        """``{host: rollup table}``, built on first read and cached."""
        if self._host_rollups is None:
            keys, values = self.keys, self.values
            self._host_rollups = {
                host: _rollup(map(keys.__getitem__, rows),
                              map(values.__getitem__, rows))
                for host, rows in self.by_host.items()}
        return self._host_rollups

    def _fingerprint(self) -> int:
        return hash((self.seq, self.count, self.id_lo, self.id_hi,
                     self.t_min, self.t_max, self.bytes))

    def verify(self) -> bool:
        return self.checksum == self._fingerprint()

    def tear(self) -> None:
        self.checksum ^= 0x5F
        # integrity unknown until the next read touches the extent
        self.trusted = False

    def mend(self) -> None:
        self.checksum = self._fingerprint()
        self.trusted = True

    def downsample(self) -> None:
        """Drop raw storage; keep spans, counts, and rollups — the
        per-host ones built first, while their columns still exist."""
        host_rollups = self.host_rollups
        self.messages = None
        self.dates = None
        self.ids = None
        self.keys = None
        self.values = None
        self.by_host = None
        self.by_event = None
        self.downsampled = True
        # rollup-only footprint: a header plus one row per (host,) event
        rows = len(self.rollups) + sum(len(t) for t in
                                       host_rollups.values())
        self.bytes = 64 + 48 * rows
        self.mend()


def _build_segment(seq: int, messages: list, dates: list, ids: list,
                   keys: list, values: list, rollups: dict) -> _Segment:
    """Seal (date, id)-ordered parallel arrays, and the rollup of their
    key/VALUE columns, into a segment.

    The segment adopts all of them.  It builds only its byte count (one
    :func:`_msg_bytes` per row) and its host / event posting lists
    (from the host attribute and the key column, with no frame per
    row); the per-host rollups wait for their first read.
    """
    seg = _Segment()
    seg.seq = seq
    seg.messages = messages
    seg.dates = dates
    seg.ids = ids
    seg.keys = keys
    seg.values = values
    seg.count = len(messages)
    seg.t_min = dates[0]
    seg.t_max = dates[-1]
    seg.id_lo = min(ids)
    seg.id_hi = max(ids)
    seg.downsampled = False
    seg.by_host = _postings(map(attrgetter("host"), messages))
    by_event = _postings(keys)
    # key "?" also stands for a missing (or empty) NL.EVNT, which no
    # event query names: the posting keeps only a literal "?"
    unnamed = by_event.pop("?", None)
    if unnamed is not None:
        literal = [pos for pos in unnamed if messages[pos].event == "?"]
        if literal:
            by_event["?"] = literal
    seg.by_event = by_event
    seg.rollups = rollups
    seg._host_rollups = None
    seg.bytes = sum(map(_msg_bytes, messages))
    seg.mend()
    return seg


class EventArchive:
    """Append-only archived event store: write head + sealed segments.

    The head is five parallel arrays in ``(date, arrival id)`` order —
    message, date, arrival id, and the rollup key and VALUE read once at
    admission: the columns a segment is built from, with no indexes of
    its own — plus a running rollup of everything in it.  An in-order
    append is O(1), a late arrival is a binary search plus an insert, a
    head read walks its window slice, and a summary that covers the
    whole head merges the running rollup instead of scanning it — so a
    message must not be mutated after ``append``.  Every
    ``segment_events`` admissions (a positive ``int``; that threshold
    is what bounds both the insert and the walk) the head is sealed
    into an immutable :class:`_Segment` and entered into the catalog
    (sorted by segment start time; window queries binary-search it and
    touch only overlapping segments).

    Queries stream in global ``(date, arrival id)`` order: segments
    whose spans don't overlap simply chain; overlapping ones (late
    arrivals across a seal boundary) heap-merge, so results are
    bit-identical to the flat-list oracle.  ``retention=`` bounds the
    store (see :class:`RetentionPolicy` / :class:`ArchiveCompactor`);
    every retirement/downsample/shed advances :attr:`loss_floor`.
    """

    def __init__(self, name: str = "archive0",
                 policy: Optional[SamplingPolicy] = None, *,
                 segment_events: int = _DEFAULT_SEGMENT_EVENTS,
                 retention: Optional[RetentionPolicy] = None):
        self.name = name
        self.policy = policy if policy is not None else SamplingPolicy()
        if not isinstance(segment_events, int) or segment_events < 1:
            raise ValueError("segment_events must be a positive int, got "
                             f"{segment_events!r}")
        self.segment_events = segment_events
        self.retention = retention
        self.rejected = 0
        #: number of out-of-order arrivals (inserted at their date)
        self.reordered = 0
        #: total successful appends ever (the accounting identity base)
        self.admitted = 0
        # -- storage budget (disk-full degradation) ----------------------
        #: byte ceiling, or None for unbounded.  Hitting it flips the
        #: archive into read-only degraded mode: the oldest retention is
        #: shed down to the budget, reads keep working, and every append
        #: is refused (and counted) until the budget is lifted.
        self.byte_budget: Optional[int] = None
        self.degraded = False
        #: why the archive is degraded: "disk_full" (byte budget) or
        #: "compaction_backlog" (retention pressure outran the compactor)
        self.degraded_reason: Optional[str] = None
        #: messages shed from the front to fit the budget
        self.shed = 0
        #: appends refused while degraded (never silent loss)
        self.dropped_degraded = 0
        #: watermark: committed events dated <= loss_floor may have been
        #: retired/downsampled/shed by policy — loss below it is
        #: accounted, loss above it is an invariant violation
        self.loss_floor = float("-inf")
        # -- segment bookkeeping -----------------------------------------
        self.sealed_segments = 0
        self.segments_retired = 0
        self.events_retired = 0
        self.segments_downsampled = 0
        self.events_downsampled = 0
        self.segments_quarantined = 0
        self.segments_reinstated = 0
        self.segments_torn = 0
        self.compaction_passes = 0
        #: summaries served from pre-aggregated rollups vs raw scans
        self.summary_rollup_hits = 0
        self.summary_raw_scanned = 0
        #: partial windows over rollup-only segments approximated with
        #: the whole segment's rollup (visible, never silent)
        self.summary_rollup_clipped = 0
        # -- storage fault surface ----------------------------------------
        #: compaction stall mode injected by faults (None = healthy)
        self._stall_mode: Optional[str] = None
        #: simulated disk latency multiplier (compaction cadence)
        self.io_latency_factor = 1.0
        #: back-reference set by :meth:`start_compaction`
        self.compactor: Optional["ArchiveCompactor"] = None
        self._bytes_stored = 0      # head bytes (when accounting is on)
        self._seg_bytes = 0         # sealed bytes (always current)
        self._bytes_current = bool(retention is not None
                                   and retention.max_bytes is not None)
        # the write head: (date, arrival id)-ordered parallel arrays
        self._messages: list[ULMMessage] = []
        self._dates: list[float] = []
        self._ids: list[int] = []
        self._keys: list[str] = []                  # msg.event or "?"
        self._values: list[Optional[float]] = []    # _msg_value(msg)
        self._head_roll: dict = {}          # rollup of the whole head
        self._next_id = 0
        self._head_id_lo = 0               # first arrival id in this head
        self._segments: list[_Segment] = []     # catalog, sorted by t_min
        self._seg_tmins: list[float] = []       # parallel bisect keys
        self._prefix_tmax: list[float] = []     # running max of t_max
        self._quarantined: list[_Segment] = []
        self._sealed_raw_count = 0
        self._rollup_tree: list[list] = []      # levels of (t0, t1, rollups)
        self._tree_dirty = False
        self._next_seq = 0
        self._t_min: Optional[float] = None     # ingested span: never shrinks
        self._t_max: Optional[float] = None

    @property
    def messages(self) -> list[ULMMessage]:
        """Archived messages in time order, as a fresh list."""
        return list(self.iter_query())

    # -- ingest ---------------------------------------------------------------

    def append(self, msg: ULMMessage) -> bool:
        """Offer one event; returns True if archived (policy admits,
        and the archive is not in degraded read-only mode)."""
        if self.degraded:
            self.dropped_degraded += 1
            return False
        if not self.policy.admits(msg):
            self.rejected += 1
            return False
        if self.byte_budget is not None:
            size = _msg_bytes(msg)
            if self._bytes_stored + self._seg_bytes + size > self.byte_budget:
                # disk full: go read-only, shed the oldest retention so
                # the freshest window keeps serving reads under budget
                self.degraded = True
                self.degraded_reason = "disk_full"
                self.dropped_degraded += 1
                self._shed_bytes_to(self.byte_budget)
                return False
            self._bytes_stored += size
        elif self._bytes_current:
            self._bytes_stored += _msg_bytes(msg)
        arrival_id = self._next_id
        self._next_id += 1
        self.admitted += 1
        date = msg.date
        key = msg.event or "?"
        value = _msg_value(msg)
        if not self._dates or date >= self._dates[-1]:
            # the common (monotonic) case: O(1) append
            self._messages.append(msg)
            self._dates.append(date)
            self._ids.append(arrival_id)
            self._keys.append(key)
            self._values.append(value)
        else:
            # late: after everything dated <= date, which on equal
            # dates is arrival order (ids only grow)
            self.reordered += 1
            pos = bisect_right(self._dates, date)
            self._messages.insert(pos, msg)
            self._dates.insert(pos, date)
            self._ids.insert(pos, arrival_id)
            self._keys.insert(pos, key)
            self._values.insert(pos, value)
        _roll_add(self._head_roll, key, value)
        if self._t_min is None or date < self._t_min:
            self._t_min = date
        if self._t_max is None or date > self._t_max:
            self._t_max = date
        if len(self._messages) >= self.segment_events:
            self._seal_head()
        ret = self.retention
        if (ret is not None and ret.max_bytes is not None
                and not self.degraded
                and self._bytes_stored + self._seg_bytes
                > ret.max_bytes * ret.degrade_factor):
            # ingest outran the compactor by the whole slack budget:
            # stop growing, loudly, until compaction catches up
            self.degraded = True
            self.degraded_reason = "compaction_backlog"
        return True

    # -- sealing & the catalog -------------------------------------------------

    def checkpoint(self) -> bool:
        """Seal the current head (if non-empty) into a segment now.

        Sealing otherwise happens automatically every ``segment_events``
        admissions; tests and benchmarks use this to get a fully sealed
        store at a deterministic point.
        """
        return self._seal_head() is not None

    def _seal_head(self) -> Optional[_Segment]:
        if not self._messages:
            return None
        seg = _build_segment(self._next_seq, self._messages, self._dates,
                             self._ids, self._keys, self._values,
                             self._head_roll)
        self._next_seq += 1
        self.sealed_segments += 1
        self._sealed_raw_count += seg.count
        self._seg_bytes += seg.bytes
        self._bytes_stored = 0
        self._messages = []
        self._dates = []
        self._ids = []
        self._keys = []
        self._values = []
        self._head_roll = {}
        self._head_id_lo = self._next_id
        self._catalog_insert(seg)
        return seg

    def _catalog_insert(self, seg: _Segment) -> None:
        pos = bisect_right(self._seg_tmins, seg.t_min)
        self._segments.insert(pos, seg)
        self._seg_tmins.insert(pos, seg.t_min)
        self._rebuild_prefix()
        self._tree_dirty = True

    def _rebuild_prefix(self) -> None:
        running = float("-inf")
        prefix = []
        for seg in self._segments:
            if seg.t_max > running:
                running = seg.t_max
            prefix.append(running)
        self._prefix_tmax = prefix

    def _catalog_remove(self, seg: _Segment) -> None:
        idx = self._segments.index(seg)
        del self._segments[idx]
        del self._seg_tmins[idx]
        self._rebuild_prefix()
        self._tree_dirty = True

    def catalog(self) -> list[dict]:
        """Descriptor dicts for every sealed segment (public view).

        Segment handles themselves never escape the archive (analysis
        rule RES002 flags code that reaches for them) — reads go through
        :meth:`query` / :meth:`summarize_window`, and this descriptor
        list is the introspection surface.
        """
        out = []
        for seg in self._segments:
            out.append(self._describe(seg, quarantined=False))
        for seg in self._quarantined:
            out.append(self._describe(seg, quarantined=True))
        return out

    @staticmethod
    def _describe(seg: _Segment, *, quarantined: bool) -> dict:
        hosts = seg.by_host if seg.by_host is not None else seg.host_rollups
        return {"seq": seg.seq, "t_min": seg.t_min, "t_max": seg.t_max,
                "events": seg.count, "bytes": seg.bytes,
                "hosts": len(hosts), "downsampled": seg.downsampled,
                "quarantined": quarantined}

    # -- quarantine (torn segments) ---------------------------------------------

    def tear_segment(self, index: int = 0) -> bool:
        """Corrupt one sealed segment (fault injection: torn write /
        media error).  Detection is lazy — the next query that touches
        the segment quarantines it."""
        if not self._segments:
            return False
        self._segments[index % len(self._segments)].tear()
        self.segments_torn += 1
        return True

    def _quarantine(self, seg: _Segment) -> None:
        self._catalog_remove(seg)
        self._quarantined.append(seg)
        self.segments_quarantined += 1
        if not seg.downsampled:
            self._sealed_raw_count -= seg.count

    def mend_segments(self) -> int:
        """Repair every torn segment (restore fault / operator fsck).

        Quarantined segments are mended and reinstated into the catalog;
        torn-but-undetected segments are mended in place.  Returns the
        number of segments repaired.
        """
        repaired = 0
        for seg in self._segments:
            if not seg.verify():
                seg.mend()
                repaired += 1
        quarantined, self._quarantined = self._quarantined, []
        for seg in quarantined:
            seg.mend()
            self._catalog_insert(seg)
            if not seg.downsampled:
                self._sealed_raw_count += seg.count
            self.segments_reinstated += 1
            repaired += 1
        return repaired

    def quarantined_spans(self) -> list[tuple[float, float]]:
        """Time spans currently hidden by quarantined segments.

        Replay/catch-up layers must not advance their floor past the
        start of a hole — events inside it reappear on mend.
        """
        return [(seg.t_min, seg.t_max) for seg in self._quarantined]

    # -- storage fault surface ---------------------------------------------------

    @property
    def compaction_stalled(self) -> bool:
        return self._stall_mode is not None

    def stall_compaction(self, mode: str = "wedge") -> None:
        """Wedge compaction (fault injection).  ``mode="wedge"`` pins the
        stall until :meth:`clear_compaction_stall` (supervision restarts
        the worker, visibly, but a fresh worker hits the same wedge);
        ``mode="kill"`` kills the compactor process once — supervision
        alone recovers it."""
        if mode not in ("wedge", "kill"):
            raise ValueError(f"unknown stall mode {mode!r}")
        if mode == "kill":
            if self.compactor is not None:
                self.compactor.kill_worker()
            return
        self._stall_mode = mode

    def clear_compaction_stall(self) -> None:
        self._stall_mode = None

    def set_io_latency(self, factor: Optional[float]) -> None:
        """Scale compaction cadence (slow-disk fault); ``None``/1 heals."""
        factor = 1.0 if factor is None else float(factor)
        if factor <= 0:
            raise ValueError("io latency factor must be positive")
        self.io_latency_factor = factor

    # -- storage budget (disk-full degradation) --------------------------------

    @property
    def bytes_stored(self) -> int:
        """Estimated stored bytes (0 until budgets force accounting)."""
        if not self._bytes_current:
            return 0
        return self._bytes_stored + self._seg_bytes

    def set_byte_budget(self, budget: Optional[int]) -> None:
        """Cap (or uncap, with ``None``) the archive's storage bytes.

        Setting ``None`` lifts the cap and heals disk-full degraded mode
        — the archive accepts appends again.  Setting a budget the
        current contents already exceed sheds down to it and degrades
        immediately.
        """
        if budget is None:
            self.byte_budget = None
            if self.degraded_reason in (None, "disk_full"):
                self.degraded = False
                self.degraded_reason = None
            if not (self.retention is not None
                    and self.retention.max_bytes is not None):
                self._bytes_current = False  # unbudgeted appends skip accounting
            return
        budget = int(budget)
        if budget <= 0:
            raise ValueError(f"byte budget must be positive, got {budget}")
        self.byte_budget = budget
        self._ensure_bytes_current()
        if self._bytes_stored + self._seg_bytes > budget:
            self.degraded = True
            self.degraded_reason = "disk_full"
            self._shed_bytes_to(budget)
        elif self.degraded and self.degraded_reason == "disk_full":
            # budget raised above usage: that heals too
            self.degraded = False
            self.degraded_reason = None

    def _ensure_bytes_current(self) -> None:
        if self._bytes_current:
            return
        self._bytes_stored = sum(map(_msg_bytes, self._messages))
        self._bytes_current = True  # segment bytes are always current

    def _shed_bytes_to(self, target: int) -> None:
        """Drop the oldest storage until the store fits ``target``.

        Whole cold segments retire first, then the head front-sheds
        message-granular.  Every dropped message is counted in
        :attr:`shed` and the loss floor advances.
        """
        while self._segments and \
                self._bytes_stored + self._seg_bytes > target:
            seg = self._segments[0]
            self._catalog_remove(seg)
            self._seg_bytes -= seg.bytes
            if not seg.downsampled:
                self._sealed_raw_count -= seg.count
                self.shed += seg.count
            if seg.t_max > self.loss_floor:
                self.loss_floor = seg.t_max
        if self._bytes_stored + self._seg_bytes <= target:
            return
        messages, dates, ids = self._messages, self._dates, self._ids
        cut = 0
        n = len(messages)
        while cut < n and self._bytes_stored + self._seg_bytes > target:
            self._bytes_stored -= _msg_bytes(messages[cut])
            cut += 1
        if cut == 0:
            return
        self.shed += cut
        if dates[cut - 1] > self.loss_floor:
            self.loss_floor = dates[cut - 1]
        self._messages = messages[cut:]
        self._dates = dates[cut:]
        self._ids = ids[cut:]
        self._keys = self._keys[cut:]
        self._values = self._values[cut:]
        self._head_roll = _rollup(self._keys, self._values)

    # -- retention & compaction --------------------------------------------------

    def compact_once(self) -> dict:
        """One compaction pass: enforce retention, heal backlog
        degradation.

        Retention ages are measured against the newest *ingested* date
        (deterministic; independent of host clock offsets).  A pass that
        changes the catalog only marks the rollup tree stale; the next
        summary rebuilds it.  Returns a report — including the raw
        messages each loss path dropped, so oracles/tests can mirror the
        archive's state exactly.
        """
        report = {"stalled": False, "retired": [], "downsampled": [],
                  "retired_rollups": [], "healed": False}
        if self._stall_mode is not None:
            report["stalled"] = True
            return report
        ret = self.retention
        now = self._t_max
        if ret is not None and now is not None:
            if ret.max_age is not None:
                cutoff = now - ret.max_age
                for seg in [s for s in self._segments if s.t_max < cutoff]:
                    if seg.downsampled:
                        # rollup-only retirement: report the summary
                        # rows, there are no raw messages left to list
                        report["retired_rollups"].append(seg.rollups)
                    else:
                        report["retired"].extend(seg.messages)
                    self._retire(seg)
            if ret.downsample_after is not None:
                cutoff = now - ret.downsample_after
                for seg in self._segments:
                    if not seg.downsampled and seg.t_max < cutoff \
                            and seg.verify():
                        report["downsampled"].extend(seg.messages)
                        self._downsample(seg)
            if ret.max_bytes is not None:
                self._ensure_bytes_current()
                while self._segments and \
                        self._bytes_stored + self._seg_bytes > ret.max_bytes:
                    seg = self._segments[0]
                    if seg.downsampled:
                        report["retired_rollups"].append(seg.rollups)
                    else:
                        report["retired"].extend(seg.messages)
                    self._retire(seg)
        if self.degraded and self.degraded_reason == "compaction_backlog":
            if (ret is None or ret.max_bytes is None
                    or self._bytes_stored + self._seg_bytes <= ret.max_bytes):
                self.degraded = False
                self.degraded_reason = None
                report["healed"] = True
        self.compaction_passes += 1
        return report

    def _retire(self, seg: _Segment) -> None:
        self._catalog_remove(seg)
        self._seg_bytes -= seg.bytes
        if not seg.downsampled:
            self._sealed_raw_count -= seg.count
            self.events_retired += seg.count
        self.segments_retired += 1
        if seg.t_max > self.loss_floor:
            self.loss_floor = seg.t_max

    def _downsample(self, seg: _Segment) -> None:
        self._seg_bytes -= seg.bytes
        self._sealed_raw_count -= seg.count
        self.events_downsampled += seg.count
        self.segments_downsampled += 1
        if seg.t_max > self.loss_floor:
            self.loss_floor = seg.t_max
        seg.downsample()
        self._seg_bytes += seg.bytes

    # -- query ----------------------------------------------------------------

    def _candidates(self, t0: float, t1: float,
                    end_exclusive: bool) -> list[_Segment]:
        """Catalog segments overlapping the window, quarantining any
        that fail verification on the way (lazy torn-segment detection:
        corruption surfaces when a read touches the extent)."""
        segs = self._segments
        if not segs:
            return []
        start = bisect_left(self._prefix_tmax, t0) \
            if t0 != float("-inf") else 0
        out = []
        torn = []
        for i in range(start, len(segs)):
            seg = segs[i]
            if seg.t_min > t1 or (end_exclusive and seg.t_min >= t1):
                break
            if seg.t_max < t0:
                continue
            # verified-once watermark: re-hash only segments whose
            # integrity is unknown (freshly torn/mended), so repeat
            # scans over a large catalog stay O(1) per segment
            if not seg.trusted:
                if not seg.verify():
                    torn.append(seg)
                    continue
                seg.trusted = True
            out.append(seg)
        for seg in torn:
            self._quarantine(seg)
        return out

    def iter_query(self, query: Optional[ArchiveQuery] = None, *,
                   end_exclusive: bool = False,
                   **kwargs) -> Iterator[ULMMessage]:
        """Stream matches in (date, arrival) order without materializing
        a list.

        ``end_exclusive`` makes the window half-open ``[t0, t1)`` — the
        period-summary convention — instead of the query's inclusive
        ``[t0, t1]``.  Drain the stream before the next ``append``: a
        late arrival moves rows of the unsealed head in place.
        """
        q = query if query is not None else ArchiveQuery(**kwargs)
        sources = []
        for seg in self._candidates(q.t0, q.t1, end_exclusive):
            sources.append((seg.seq, seg.t_min, seg.t_max, seg.id_lo,
                            seg.id_hi,
                            _iter_rows(seg.messages, seg.dates, seg.ids,
                                       seg.by_host, seg.by_event, q,
                                       end_exclusive)))
        if self._dates:
            sources.append((self._next_seq, self._dates[0], self._dates[-1],
                            self._head_id_lo, self._next_id,
                            _iter_rows(self._messages, self._dates, self._ids,
                                       None, None, q, end_exclusive)))
        sources.sort(key=lambda s: s[0])
        chained = all(
            a[2] < b[1] or (a[2] == b[1] and a[4] < b[3])
            for a, b in zip(sources, sources[1:]))
        if chained:
            # seal order IS (date, id) order when spans don't overlap
            for source in sources:
                for _, _, msg in source[5]:
                    yield msg
            return
        # overlapping spans (late arrivals across a seal boundary):
        # merge on (date, arrival id) — ties impossible, so the raw
        # triple comparison never reaches the message
        for _, _, msg in _heap_merge(*(source[5] for source in sources)):
            yield msg

    def query(self, query: Optional[ArchiveQuery] = None, **kwargs) -> list[ULMMessage]:
        """Historical search; returns matches in time order."""
        return list(self.iter_query(query, **kwargs))

    # -- multi-resolution summaries ---------------------------------------------

    def _rebuild_tree(self) -> None:
        """Rebuild the rollup tree: level 0 is the catalog; each higher
        node pre-merges ``_TREE_ARITY`` children's rollups and span."""
        levels = []
        current = [(seg.t_min, seg.t_max, seg.rollups)
                   for seg in self._segments]
        while len(current) > 1:
            parents = []
            for i in range(0, len(current), _TREE_ARITY):
                chunk = current[i:i + _TREE_ARITY]
                if len(chunk) == 1:
                    parents.append(chunk[0])
                    continue
                rolls: dict = {}
                for _, _, src in chunk:
                    _roll_merge(rolls, src)
                parents.append((min(c[0] for c in chunk),
                                max(c[1] for c in chunk), rolls))
            levels.append(parents)
            current = parents
        self._rollup_tree = levels
        self._tree_dirty = False

    def _summarize_columns(self, dates: list, keys: list, values: list,
                           t0: float, t1: float, out: dict,
                           host: Optional[str], by_host: Optional[dict],
                           messages: Optional[list]) -> None:
        """Fold the key/VALUE columns of the rows in [t0, t1) into
        ``out``, each counted in :attr:`summary_raw_scanned`: the one
        walk of every summary the rollups do not cover.  ``host=`` walks
        a sealed segment's posting list (``by_host``) sliced to the
        window, or checks each window row's message (the head)."""
        lo, hi = bisect_left(dates, t0), bisect_left(dates, t1)
        if host is None:
            rows = range(lo, hi)
        elif by_host is not None:
            rows = by_host.get(host, ())
            rows = rows[bisect_left(rows, lo):bisect_left(rows, hi)]
        else:
            rows = [pos for pos in range(lo, hi)
                    if messages[pos].host == host]
        for pos in rows:
            _roll_add(out, keys[pos], values[pos])
        self.summary_raw_scanned += len(rows)

    def _summarize_segment(self, seg: _Segment, t0: float, t1: float,
                           host: Optional[str], out: dict) -> None:
        """One segment's share of a summary (the tree walk's leaf): its
        pre-aggregated rollup when [t0, t1) covers it, else a walk of
        the window's rows."""
        if seg.t_max < t0 or seg.t_min >= t1:
            return
        covered = t0 <= seg.t_min and seg.t_max < t1
        if covered or seg.downsampled:
            # a clipped rollup-only segment: raw is gone, so approximate
            # the clipped span with the whole segment's rollup, visibly
            rolls = seg.rollups if host is None \
                else seg.host_rollups.get(host)
            if rolls:
                _roll_merge(out, rolls)
                if covered:
                    self.summary_rollup_hits += 1
                else:
                    self.summary_rollup_clipped += 1
        else:
            self._summarize_columns(seg.dates, seg.keys, seg.values, t0, t1,
                                    out, host, seg.by_host, None)

    def _summarize_node(self, level: int, index: int, t0: float, t1: float,
                        out: dict) -> None:
        """Recursive rollup-tree walk: merge fully-covered nodes, recurse
        into boundary nodes, walk the window's rows of a clipped leaf."""
        if level < 0:
            self._summarize_segment(self._segments[index], t0, t1, None, out)
            return
        node_t0, node_t1, rolls = self._rollup_tree[level][index]
        if node_t1 < t0 or node_t0 >= t1:
            return
        if t0 <= node_t0 and node_t1 < t1:
            _roll_merge(out, rolls)
            self.summary_rollup_hits += 1
            return
        child_count = len(self._rollup_tree[level - 1]) if level > 0 \
            else len(self._segments)
        base = index * _TREE_ARITY
        for child in range(base, min(base + _TREE_ARITY, child_count)):
            self._summarize_node(level - 1, child, t0, t1, out)

    def summarize_window(self, t0: float, t1: float, *,
                         host: Optional[str] = None) -> dict:
        """Per-event ``(count, value_sum, value_count, min, max)`` over
        the half-open window [t0, t1).

        Served from the multi-resolution rollup tree: fully-covered
        segment runs cost one pre-merged node each, and the unsealed
        head merges its running rollup when [t0, t1) covers all of it —
        a month-scale summary costs about the same as a minute-scale
        one, whatever the head holds.  A segment or head the window
        clips is walked over the window's rows of its key/VALUE columns,
        each row counted in ``raw_scanned``.  ``host=`` merges a covered
        segment's host rollups (built by the first summary that names a
        host, so a full-span summary builds none) and walks a clipped
        one's posting slice for that host.  Covered rollups add in
        admission order (a late row joins its head's rollup last), so a
        float ``value_sum`` may differ in its last bits from a
        position-ordered re-add of the same rows.
        """
        if t1 <= t0:
            raise ValueError("need t1 > t0")
        out: dict = {}
        # lazy torn detection first: a corrupted segment must not feed
        # summaries, whether it would be read raw or via rollups
        cands = self._candidates(t0, t1, True)
        if host is None:
            if self._tree_dirty:
                self._rebuild_tree()
            if self._rollup_tree:
                top = len(self._rollup_tree) - 1
                for index in range(len(self._rollup_tree[top])):
                    self._summarize_node(top, index, t0, t1, out)
            elif self._segments:
                self._summarize_node(-1, 0, t0, t1, out)
        else:
            for seg in cands:
                self._summarize_segment(seg, t0, t1, host, out)
        dates = self._dates
        if host is None and dates and t0 <= dates[0] and dates[-1] < t1:
            _roll_merge(out, self._head_roll)
            self.summary_rollup_hits += 1
        else:
            self._summarize_columns(dates, self._keys, self._values, t0, t1,
                                    out, host, None, self._messages)
        return {event: tuple(row) for event, row in out.items()}

    # -- catalog counters -------------------------------------------------------

    def hosts(self) -> list[str]:
        names = {msg.host for msg in self._messages}
        for seg in self._segments:
            names.update(seg.by_host if seg.by_host is not None
                         else seg.host_rollups)
        return sorted(names)

    def event_names(self) -> list[str]:
        names = {msg.event for msg in self._messages if msg.event}
        for seg in self._segments:
            if seg.by_event is not None:
                names.update(seg.by_event)
            else:
                names.update(k for k in seg.rollups if k != "?")
        return sorted(names)

    def time_span(self) -> tuple[float, float]:
        """Span of *retained* storage (catalog + head).  The full
        ingested span — which never shrinks under shed/retention — is in
        ``stats()["ingested_span"]``."""
        lo = hi = None
        if self._dates:
            lo, hi = self._dates[0], self._dates[-1]
        for seg in self._segments:
            if lo is None or seg.t_min < lo:
                lo = seg.t_min
            if hi is None or seg.t_max > hi:
                hi = seg.t_max
        if lo is None:
            return (0.0, 0.0)
        return (lo, hi)

    def __len__(self) -> int:
        return len(self._messages) + self._sealed_raw_count

    def stats(self) -> dict:
        """Catalog counters for the archiver's directory entry."""
        t0, t1 = self.time_span()
        ingested = (self._t_min, self._t_max) if self._t_min is not None \
            else (0.0, 0.0)
        quarantined_events = sum(
            seg.count for seg in self._quarantined if not seg.downsampled)
        return {"count": len(self), "rejected": self.rejected,
                "reordered": self.reordered, "hosts": len(self.hosts()),
                "events": len(self.event_names()), "tstart": t0, "tend": t1,
                "degraded": self.degraded,
                "degraded_reason": self.degraded_reason,
                "byte_budget": self.byte_budget,
                "bytes": self.bytes_stored, "shed": self.shed,
                "dropped_degraded": self.dropped_degraded,
                "ingested": self.admitted,
                "ingested_span": ingested,
                "retained_span": (t0, t1),
                "loss_floor": self.loss_floor,
                "segments": len(self._segments),
                "sealed": self.sealed_segments,
                "segments_retired": self.segments_retired,
                "events_retired": self.events_retired,
                "segments_downsampled": self.segments_downsampled,
                "events_downsampled": self.events_downsampled,
                "quarantined": len(self._quarantined),
                "quarantined_events": quarantined_events,
                "segments_reinstated": self.segments_reinstated,
                "compaction_passes": self.compaction_passes,
                "compaction_stalled": self.compaction_stalled,
                "io_latency_factor": self.io_latency_factor,
                "rollup_hits": self.summary_rollup_hits,
                "raw_scanned": self.summary_raw_scanned,
                "rollup_clipped": self.summary_rollup_clipped}

    # -- compaction wiring -------------------------------------------------------

    def start_compaction(self, sim, **kwargs) -> "ArchiveCompactor":
        """Attach and start a supervised compactor on ``sim``."""
        compactor = ArchiveCompactor(sim, self, **kwargs)
        self.compactor = compactor
        compactor.start()
        return compactor


class ArchiveCompactor:
    """Kernel-scheduled compaction worker with watchdog supervision.

    Mirrors the :class:`~repro.core.manager.SensorManager` idiom: the
    worker loop stamps ``last_beat`` each pass; a watchdog restarts it
    when the process died or the beat went stale (one ``ResiliencePolicy``
    gate: 1 s → ×2 → 30 s between attempts, cleared on health).  A wedged archive
    (``compaction_stall``) keeps the loop alive but beat-less, so the
    watchdog restarts it visibly — and keeps doing so until the stall is
    cleared, at which point the next pass catches up and heals any
    backlog degradation.  ``slow_disk`` stretches the pass cadence via
    the archive's ``io_latency_factor`` (the beat tolerance stretches
    with it, so a slow disk is not misread as a dead worker).
    """

    def __init__(self, sim, archive: EventArchive, *,
                 interval: float = 2.0,
                 supervision_interval: Optional[float] = None):
        if interval <= 0:
            raise ValueError("compaction interval must be positive")
        self.sim = sim
        self.archive = archive
        self.interval = float(interval)
        self.supervision_interval = float(
            supervision_interval if supervision_interval is not None
            else 2.0 * interval)
        #: watchdog restarts performed (crash-loop visibility)
        self.restarts = 0
        #: completed compaction passes
        self.passes = 0
        self.last_beat: Optional[float] = None
        self.running = False
        self._worker = None
        self._watchdog = None
        self._gen = 0
        #: restart backoff gate: 1 s → ×2 → 30 s, no jitter (no RNG draw)
        self._resilience = ResiliencePolicy(
            sim, ResilienceConfig(backoff_base=1.0, backoff_max=30.0))

    def start(self) -> "ArchiveCompactor":
        if self.running:
            return self
        self.running = True
        self.last_beat = self.sim.now
        self._spawn_worker()
        self._watchdog = self.sim.spawn(
            self._supervise_loop(),
            name=f"compactor-watchdog[{self.archive.name}]")
        return self

    def stop(self) -> None:
        self.running = False
        for proc in (self._worker, self._watchdog):
            if proc is not None and proc.alive:
                proc.kill()
        self._worker = None
        self._watchdog = None

    def kill_worker(self) -> None:
        """Kill the worker process (fault hook); supervision restarts it."""
        if self._worker is not None and self._worker.alive:
            self._worker.kill()

    def _spawn_worker(self) -> None:
        self._gen += 1
        if self._worker is not None and self._worker.alive:
            self._worker.kill()
        self._worker = self.sim.spawn(
            self._work_loop(self._gen),
            name=f"compactor[{self.archive.name}]")
        self.last_beat = self.sim.now  # restart grace

    def _work_loop(self, token: int):
        from ..simgrid.kernel import Timeout
        while self.running and token == self._gen:
            yield Timeout(self.interval * self.archive.io_latency_factor)
            if not self.running or token != self._gen:
                return
            if self.archive.compaction_stalled:
                continue  # wedged: alive but beat-less — supervision sees it
            self.last_beat = self.sim.now
            self.archive.compact_once()
            self.passes += 1

    def _worker_unhealthy(self) -> bool:
        if self._worker is None or not self._worker.alive:
            return True
        beat = self.last_beat if self.last_beat is not None else 0.0
        tolerance = max(3.0 * self.interval * self.archive.io_latency_factor,
                        self.supervision_interval)
        return (self.sim.now - beat) > tolerance

    def _supervise_loop(self):
        from ..simgrid.kernel import Timeout
        while self.running:
            yield Timeout(self.supervision_interval)
            if not self.running:
                return
            policy = self._resilience
            if not self._worker_unhealthy():
                policy.clear_gate(_EDGE_RESTART, None)
                continue
            if not policy.retry_ready(_EDGE_RESTART, None):
                continue  # backing off after a recent failed restart
            self._spawn_worker()
            self.restarts += 1
            policy.gate_failure(_EDGE_RESTART, None)

    def stats(self) -> dict:
        return {"passes": self.passes, "restarts": self.restarts,
                "last_beat": self.last_beat, "running": self.running,
                "worker_alive": bool(self._worker is not None
                                     and self._worker.alive)}
