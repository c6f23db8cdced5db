"""The consumer-facing monitoring facade.

One object — :class:`MonitoringClient` — wraps the paper's §2.2 flow
(directory lookup → gateway subscribe → event stream / query) behind a
typed API:

* fluent discovery: ``client.sensors(type="cpu", host="dpss1.*")``
  compiles keyword criteria to RFC-2254 LDAP filter text and returns a
  :class:`SensorSelection` of typed :class:`SensorInfo` rows;
* sessions: ``with client.session() as s:`` yields a
  :class:`ClientSession` (a :class:`~repro.core.consumers.Consumer`)
  whose ``subscribe``/``subscribe_all`` return
  :class:`~repro.core.subscriptions.SubscriptionHandle` objects and
  whose exit tears every subscription down (idempotently, surfacing
  per-handle errors after all have been attempted);
* point reads: ``client.latest(sensor)`` (query mode) and
  ``client.summary(sensor, field)`` without opening a channel;
* self-healing: :meth:`ClientSession.enable_auto_heal` runs a watchdog
  that notices reaped/crash-dropped handles, re-resolves the sensor
  through the (failover-capable) directory, resubscribes with backoff,
  and replays missed events from an archive watermark — at-least-once
  delivery with per-stream duplicate suppression, so committed events
  survive gateway crashes and network partitions.

Discovery (:meth:`MonitoringClient.sensors`) and gateway lookup
(:meth:`MonitoringClient.gateway_for`) live here once: every consumer
is built from a client and subscribes through them, ending in
:meth:`EventGateway.open` with a declarative
:class:`~repro.core.subscriptions.SubscriptionSpec`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from operator import attrgetter
from typing import Any, Iterable, Iterator, Optional, Sequence, Union

from ..core.consumers.base import Consumer, TeardownError
from ..core.resilience import ResiliencePolicy
from ..core.subscriptions import SubscriptionHandle, sensor_key_for

__all__ = ["MonitoringClient", "ClientSession", "SensorInfo",
           "SensorSelection", "ClientError", "compile_sensor_filter"]


class ClientError(RuntimeError):
    pass


#: resilience edge names (per-edge counters in ``resilience_stats()``)
_EDGE_RESUBSCRIBE = "session.resubscribe"

_date = attrgetter("date")


#: keyword -> directory attribute translation for fluent discovery
_CRITERIA_ATTRS = {"type": "sensortype", "host": "hostname",
                   "name": "sensor", "status": "status",
                   "gateway": "gateway"}


def compile_sensor_filter(**criteria: Any) -> str:
    """Compile keyword criteria to LDAP filter text.

    ``type``/``host``/``name``/``status``/``gateway`` map to the
    attributes sensor managers publish (``sensortype``, ``hostname``,
    ...); any other keyword is used as a raw attribute name.  Values
    may contain ``*`` wildcards.  ``None`` values are skipped.

    >>> compile_sensor_filter(type="cpu", host="dpss1.*")
    '(&(objectclass=sensor)(sensortype=cpu)(hostname=dpss1.*))'
    """
    objectclass = criteria.pop("objectclass", "sensor")
    # values are rendered to strings BEFORE the cache key is built:
    # caching on the raw values would collide equal-but-differently-
    # rendered ones (True == 1 == 1.0), and stringifying also makes
    # every value (lists included) hashable
    return _compile_cached(
        str(objectclass),
        tuple((k, None if v is None else str(v))
              for k, v in criteria.items()))


@lru_cache(maxsize=256)
def _compile_cached(objectclass: str, criteria: tuple) -> str:
    """Memoized criteria -> filter-text step: fluent poll loops repeat a
    handful of criteria shapes forever.  The text -> AST step is cached
    server-side by :func:`repro.core.directory.parse_filter_cached`."""
    parts = [f"(objectclass={objectclass})"]
    for keyword, value in criteria:
        if value is None:
            continue
        attr = _CRITERIA_ATTRS.get(keyword, keyword)
        parts.append(f"({attr}={value})")
    if len(parts) == 1:
        return parts[0]
    return "(&" + "".join(parts) + ")"


@dataclass(frozen=True)
class SensorInfo:
    """One discovered sensor, as a typed row."""

    key: str                    # the gateway subscription key
    name: Optional[str]
    host: Optional[str]
    type: Optional[str]
    status: Optional[str]
    gateway_name: Optional[str]
    gateway_host: Optional[str]
    #: the underlying directory entry (None for a hand-built row)
    entry: Any = field(compare=False, repr=False, default=None)

    @classmethod
    def from_entry(cls, entry: Any) -> "SensorInfo":
        return cls(key=sensor_key_for(entry), name=entry.first("sensor"),
                   host=entry.first("hostname"),
                   type=entry.first("sensortype"),
                   status=entry.first("status"),
                   gateway_name=entry.first("gateway"),
                   gateway_host=entry.first("gatewayhost"),
                   entry=entry)


class SensorSelection(Sequence):
    """The result of fluent discovery: typed rows plus the compiled
    filter text (reusable for persistent searches and re-queries)."""

    def __init__(self, infos: Iterable[SensorInfo], filter_text: str):
        self._infos = list(infos)
        self.filter_text = filter_text

    def __len__(self) -> int:
        return len(self._infos)

    def __getitem__(self, index):
        return self._infos[index]

    def __iter__(self) -> Iterator[SensorInfo]:
        return iter(self._infos)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<SensorSelection {len(self._infos)} sensor(s) "
                f"filter={self.filter_text!r}>")


class _StreamTracker:
    """Per-subscription delivery state for self-healing sessions.

    Tracks the replay watermark and suppresses duplicate deliveries
    across the replay/live overlap by ULM message identity
    (µs-quantized — the codec's own equality).  One tracker per
    subscription *lineage*: a replacement handle opened by the healer
    inherits its dead predecessor's tracker, while two independent
    subscriptions to the same sensor keep independent state (sharing
    one would starve every handle after the first).
    """

    __slots__ = ("last_date", "_seen", "duplicates", "replay_floor",
                 "live_date")

    def __init__(self) -> None:
        self.last_date = float("-inf")
        self._seen: dict[int, float] = {}   # identity hash -> event date
        self.duplicates = 0
        #: archive time up to which catch-up replay has already scanned;
        #: each watchdog pass covers [floor - slack, now] and advances it
        self.replay_floor = 0.0
        #: the LIVE channel's own progress watermark.  The gateway-side
        #: outbox is FIFO per subscription, so once a live delivery with
        #: date D arrives, no earlier live copy can still be queued —
        #: identities may be pruned up to here, but never past it:
        #: under backpressure a live copy can trail its archive commit
        #: by the whole queue, not just the clock-skew slack
        self.live_date = float("-inf")

    def admit(self, event: Any) -> bool:
        key = hash(event)
        if key in self._seen:
            self.duplicates += 1
            return False
        self._seen[key] = event.date
        if event.date > self.last_date:
            self.last_date = event.date
        return True

    def prune(self, min_date: float) -> None:
        """Drop identity entries replay can never re-deliver (older
        than the scan floor), keeping memory O(replay overlap) instead
        of O(stream lifetime)."""
        if self._seen:
            self._seen = {k: d for k, d in self._seen.items()
                          if d >= min_date}


class MonitoringClient:
    """Facade over a directory client and a gateway resolver.

    Usually obtained from a deployment: ``client = jamm.client()``.
    Standalone construction needs the simulator, a directory client and
    a gateway resolver.  Every consumer — a session or a built-in
    consumer type — is built from one and discovers sensors and
    resolves gateways through it.
    """

    def __init__(self, sim: Any, *, directory: Any,
                 resolve_gateway: Any, host: Any = None,
                 principal: Any = None, suffix: str = "o=grid",
                 resilience: Any = None):
        self.sim = sim
        self.directory = directory
        self.resolve_gateway = resolve_gateway
        self.host = host
        self.principal = principal
        self.suffix = suffix
        #: shared :class:`~repro.core.resilience.ResiliencePolicy` for
        #: this client's RPC edges (sessions inherit it); None = each
        #: session builds its own with default config
        self.resilience = resilience

    # -- fluent discovery ------------------------------------------------------

    def sensors(self, *, filter_text: Optional[str] = None,
                **criteria: Any) -> SensorSelection:
        """Discover sensors: ``client.sensors(type="cpu",
        host="dpss1.*")``.  Keyword criteria compile to LDAP filter
        text (see :func:`compile_sensor_filter`); pass ``filter_text``
        to use raw RFC-2254 text instead."""
        if filter_text is None:
            filter_text = compile_sensor_filter(**criteria)
        elif criteria:
            raise ClientError("pass either filter_text or criteria, not both")
        result = self.directory.search(f"ou=sensors,{self.suffix}",
                                       filter_text)
        return SensorSelection((SensorInfo.from_entry(e)
                                for e in result.entries), filter_text)

    def find(self, key: str) -> Optional[SensorInfo]:
        """The sensor with subscription key ``key``, or None."""
        for info in self.sensors(filter_text=f"(sensorkey={key})"):
            return info
        # fall back to the sensor short name
        for info in self.sensors(name=key):
            return info
        return None

    # -- gateway resolution ------------------------------------------------------

    def gateway_for(self, target: Union[str, SensorInfo]) -> Any:
        """The gateway fronting a sensor (info row or subscription key)."""
        info = self._resolve(target)
        gateway = self.resolve_gateway(info.gateway_name, info.gateway_host)
        if gateway is None:
            raise ClientError(f"unknown gateway {info.gateway_name!r} "
                              f"for sensor {info.key!r}")
        return gateway

    def _resolve(self, target: Union[str, SensorInfo]) -> SensorInfo:
        if isinstance(target, SensorInfo):
            return target
        if isinstance(target, str):
            info = self.find(target)
            if info is None:
                raise ClientError(f"no sensor {target!r} in the directory")
            return info
        # a raw directory entry
        return SensorInfo.from_entry(target)

    # -- point reads (no channel) --------------------------------------------------

    def latest(self, target: Union[str, SensorInfo]) -> Any:
        """Query mode: the sensor's most recent event (§2.2)."""
        info = self._resolve(target)
        return self.gateway_for(info).query(info.key,
                                            principal=self.principal)

    def summary(self, target: Union[str, SensorInfo],
                field_name: str) -> Optional[dict]:
        """The 1/10/60-minute summary snapshot for one series."""
        info = self._resolve(target)
        return self.gateway_for(info).summary(info.key, field_name,
                                              principal=self.principal)

    # -- sessions ---------------------------------------------------------------------

    def session(self, *, principal: Any = None,
                name: str = "") -> "ClientSession":
        """A context-managed subscription scope::

            with client.session() as s:
                handles = s.subscribe_all(client.sensors(type="cpu"))
                ...
            # every subscription is closed here
        """
        return ClientSession(self, principal=principal, name=name)

    def __repr__(self) -> str:  # pragma: no cover
        host = getattr(self.host, "name", None)
        return f"<MonitoringClient host={host} suffix={self.suffix!r}>"


class ClientSession(Consumer):
    """A scope of subscriptions with deterministic teardown.

    A session is a plain :class:`Consumer` — the same subscribing,
    receive port, frame unpacking and handle demux as the built-in
    consumer types, with no ``on_event`` of its own: events live on the
    handles.  What it adds is the scope (a closed session refuses new
    subscriptions) and self-healing (:meth:`enable_auto_heal`).
    """

    def __init__(self, client: MonitoringClient, *, principal: Any = None,
                 name: str = ""):
        super().__init__(client, name=name, principal=principal)
        self.closed = False
        # -- self-healing state (inert until enable_auto_heal) -------------
        self._heal_enabled = False
        self._heal_archive: Any = None
        self._heal_interval = 2.0
        self._replay_slack = 1.0
        self._heal_proc = None
        self._trackers: list[_StreamTracker] = []
        #: one policy per session (shared with the client when it has
        #: one): resubscribe backoff gates, gateway health, counters.
        #: Records nothing until a failure happens — free when idle.
        self._resilience = client.resilience if client.resilience is not None \
            else ResiliencePolicy(client.sim, name=f"session[{self.name}]")
        #: True while missed events are being replayed from the archive
        self.in_replay = False
        self.resubscribes = 0
        self.replayed = 0

    # -- subscribing -----------------------------------------------------------

    def subscribe(self, target: Any, **kwargs: Any) -> SubscriptionHandle:
        """:meth:`Consumer.subscribe` on an open session; a healing
        session tracks the new handle's stream."""
        self._require_open()
        handle = super().subscribe(target, **kwargs)
        if self._heal_enabled:
            self._track(handle)
        return handle

    # -- self-healing ------------------------------------------------------------------

    def enable_auto_heal(self, *, archive: Any = None,
                         check_interval: float = 2.0,
                         backoff_base: float = 1.0,
                         backoff_max: float = 30.0,
                         jitter: float = 0.0,
                         replay_slack: float = 1.0) -> "ClientSession":
        """Keep this session's subscriptions alive across faults.

        A watchdog process wakes every ``check_interval`` seconds and,
        for every handle the gateway reaped (dead-consumer reap or
        gateway-host crash), re-resolves the sensor through the
        directory — which itself fails over master→replica — and opens
        a replacement subscription carrying over the old handle's
        callbacks.  With an ``archive`` (the gateway-side event store),
        events missed while disconnected are replayed from the
        stream's time watermark minus ``replay_slack`` (clock-skew
        margin); duplicate deliveries across the replay/live overlap
        are suppressed by message identity, so the combined stream is
        at-least-once with exact-duplicate suppression.  Failed
        resubscribe attempts back off exponentially per stream — the
        backoff gates live on the session's
        :class:`~repro.core.resilience.ResiliencePolicy` (``jitter``
        spreads the delays when the policy carries a seeded RNG;
        the default 0.0 keeps the historical base→×2→cap sequence).

        Returns self for chaining.  Costs the fault-free delivery path
        one admission check per event on healing sessions and nothing
        at all on sessions that never call this.
        """
        from dataclasses import replace as _replace
        self._require_open()
        self._heal_enabled = True
        self._heal_archive = archive
        self._heal_interval = check_interval
        self._resilience.config = _replace(
            self._resilience.config, backoff_base=backoff_base,
            backoff_max=backoff_max, jitter=jitter)
        self._replay_slack = replay_slack
        for handle in self.handles:
            if not handle.closed:
                self._track(handle)
        if self._heal_proc is None or not self._heal_proc.alive:
            self._heal_proc = self.client.sim.spawn(
                self._heal_loop(), name=f"session-heal[{self.name}]")
        return self

    def _track(self, handle: SubscriptionHandle,
               tracker: Optional[_StreamTracker] = None) -> None:
        """Give ``handle`` delivery tracking — a fresh tracker, or a
        predecessor's (resubscribe) so dedupe spans the reconnect."""
        if tracker is None:
            if handle._heal_tracker is not None:
                return
            tracker = _StreamTracker()
            self._trackers.append(tracker)
        handle._heal_tracker = tracker

        def admit(event: Any, _tracker=tracker) -> bool:
            # any live-channel arrival — admitted or suppressed — is
            # proof of live-FIFO progress up to its date
            if not self.in_replay and event.date > _tracker.live_date:
                _tracker.live_date = event.date
            return _tracker.admit(event)

        handle._admit = admit

    def _heal_loop(self):
        from ..simgrid.kernel import Timeout  # local: avoid module cycle
        while not self.closed:
            yield Timeout(self._heal_interval)
            if not self.closed:
                self.heal_now()

    def heal_now(self) -> int:
        """One watchdog pass; returns the number of resubscriptions.

        Public so scenario harnesses (and impatient callers) can force
        a pass at a deterministic point instead of waiting a tick.
        """
        host = self.client.host
        if host is not None and not host.up:
            return 0  # a crashed consumer host runs no watchdog
        healed = 0
        now = self.client.sim.now
        for handle in list(self.handles):
            if not handle.reaped or handle.superseded:
                continue
            key = handle.spec.sensor
            if not self._resilience.retry_ready(_EDGE_RESUBSCRIBE, key,
                                                now=now):
                continue
            if self._resubscribe(handle):
                healed += 1
                self._resilience.gate_success(_EDGE_RESUBSCRIBE, key, now=now)
            else:
                self._resilience.gate_failure(_EDGE_RESUBSCRIBE, key, now=now)
        # catch-up pass: even a live subscription can have lost events
        # (drops below the gateway's reap threshold leave it open), so
        # every pass also replays the archive window since the last one
        # — duplicate suppression makes over-delivery free
        if self._heal_archive is not None:
            due = []
            for handle in list(self.handles):
                if handle.closed:
                    continue
                if handle._heal_tracker is None:
                    continue
                if self._gateway_reachable(handle.gateway):
                    due.append(handle)
            self._replay(due)
        return healed

    def _gateway_reachable(self, gateway: Any) -> bool:
        """Would a real consumer reach this gateway right now?  The
        facade talks to gateway objects in-process, so reconnects must
        check the simulated network explicitly — resubscribing across a
        partition would be cheating."""
        if gateway is None or not getattr(gateway, "up", True):
            return False
        host = self.client.host
        gw_host = getattr(gateway, "host", None)
        return host is None or gw_host is None or host.can_reach(gw_host)

    def _resubscribe(self, dead: SubscriptionHandle) -> bool:
        """Replace one reaped handle: directory re-lookup (with replica
        failover), fresh subscription, callback carry-over, archive
        replay.  Returns False when any step fails (the stream backs
        off and the next pass retries).

        When the directory offers several registrations for the key
        (a sensor re-registered under another gateway after manager
        failover), candidates are tried in endpoint-health order —
        a gateway that recently failed resubscribes or reachability
        checks ranks behind one with a clean record.  A single
        candidate (the common case) behaves exactly as before."""
        key = dead.spec.sensor
        try:
            candidates = list(self.client.sensors(
                filter_text=f"(sensorkey={key})"))
            if not candidates:
                info = self.client.find(key)
                if info is None:
                    return False
                candidates = [info]
            if len(candidates) > 1:
                by_gateway = {("gateway", info.gateway_name): info
                              for info in candidates}
                ranked = self._resilience.rank_endpoints(list(by_gateway))
                candidates = [by_gateway[k] for k in ranked]
            replacement = None
            for info in candidates:
                gw_key = ("gateway", info.gateway_name)
                try:
                    gateway = self.client.gateway_for(info)
                except ClientError:
                    continue
                if not self._gateway_reachable(gateway):
                    self._resilience.fail(_EDGE_RESUBSCRIBE, gw_key)
                    continue
                respec = dead.spec.replace(delivery=None).clone()
                replacement = self.subscribe(info, spec=respec)
                self._resilience.succeed(_EDGE_RESUBSCRIBE, gw_key)
                break
            if replacement is None:
                return False
        except Exception:
            return False
        for callback in dead._callbacks:
            # the replacement's own ``_accept`` compares equal to the
            # dead handle's, so it is not attached twice
            if callback not in replacement._callbacks:
                replacement.attach(callback)
        # the replacement continues the dead handle's stream: it takes
        # over the tracker (watermark + dedupe state spans the
        # reconnect), and the dead handle leaves the session entirely
        # so repeated crashes don't grow the watchdog's scan set
        dead_tracker = dead._heal_tracker
        if dead_tracker is not None:
            fresh = replacement._heal_tracker
            if fresh is not None and fresh in self._trackers:
                self._trackers.remove(fresh)
            self._track(replacement, tracker=dead_tracker)
        dead.superseded = True
        if dead in self.handles:
            self.handles.remove(dead)
        self._wire_handles.pop(dead.wire_key, None)
        self.resubscribes += 1
        self._replay([replacement])
        return True

    def _replay(self, handles: list) -> None:
        """Deliver committed-but-missed events from the archive into
        each of ``handles``, in order.  The stream tracker suppresses
        everything already seen, so over-replaying (the slack window)
        is safe.

        One archive scan serves them all: it starts at the lowest
        handle's floor minus the slack, and each handle walks its own
        stream's rows from its own floor — exactly what a scan of its
        own would return.  Each handle is re-checked before its turn (a
        callback may have closed it); a callback that appends
        to the archive makes the rows stale, so the handles still to go
        get a fresh scan.  Every handle here is tracked: the archive and
        tracking are both switched on by :meth:`enable_auto_heal`."""
        archive = self._heal_archive
        if archive is None:
            return
        pending = handles[::-1]     # popped from the end: first goes first
        self.in_replay = True
        try:
            while pending:
                streams = {handle.spec.sensor for handle in pending}
                admitted = archive.admitted
                rows: dict = {}
                for msg in archive.iter_query(t0=min(
                        map(self._replay_start, pending))):
                    if msg.prog in streams:
                        rows.setdefault(msg.prog, []).append(msg)
                while pending:
                    handle = pending.pop()
                    if handle.closed:
                        continue
                    self._replay_stream(handle,
                                        rows.get(handle.spec.sensor, ()))
                    if archive.admitted != admitted:
                        break
        finally:
            self.in_replay = False

    def _replay_start(self, handle: SubscriptionHandle) -> float:
        """Where ``handle``'s catch-up scan starts: its floor minus the
        clock-skew slack."""
        return max(0.0, handle._heal_tracker.replay_floor
                   - self._replay_slack)

    def _replay_stream(self, handle: SubscriptionHandle, rows) -> None:
        """Replay one handle's stream from its (date-ordered) archive
        rows dated at or after its scan start, then advance its floor."""
        tracker = handle._heal_tracker
        floor = tracker.replay_floor
        t0 = self._replay_start(handle)
        max_seen = floor
        # replay must honor the subscription's filter like the live
        # path does; stateful filters (change/threshold) are evaluated
        # on a fresh clone so the gateway's live instance isn't skewed
        flt = handle.spec.event_filter
        replay_filter = flt.clone() if flt is not None else None
        for msg in islice(rows, bisect_left(rows, t0, key=_date), None):
            # the floor is per-STREAM: hosts' clocks are skewed
            # relative to each other, so a cross-stream max date
            # would prune identities (and skip scan windows) for
            # streams whose clocks run behind
            if msg.date > max_seen:
                max_seen = msg.date
            if replay_filter is not None and \
                    not replay_filter.accept(msg):
                continue
            before = tracker.duplicates
            handle._dispatch(msg)
            if tracker.duplicates == before:
                self.replayed += 1
        # quarantined (torn) segments are holes in the archive: events
        # inside them were committed but not served by the scan above.
        # Don't advance the floor past the earliest hole in the window,
        # or those events are lost to replay even after the segment is
        # mended; the floor still never rewinds (pruned dedupe
        # identities would re-deliver already-seen events)
        holes = [a for a, b in self._heal_archive.quarantined_spans()
                 if b >= t0]
        if holes:
            max_seen = min(max_seen, max(floor, min(holes)))
        tracker.replay_floor = max_seen
        # 2x slack: a live copy can arrive a little behind the archive
        # commit it duplicates; keep its identity around.  Under
        # backpressure "a little behind" is unbounded — the copy may
        # still be sitting in the gateway outbox — so the prune floor
        # also never passes the live watermark
        tracker.prune(min(max_seen, tracker.live_date)
                      - 2.0 * self._replay_slack)

    # -- introspection -----------------------------------------------------------------

    def heal_stats(self) -> dict:
        """Self-healing counters (zeros when auto-heal is off)."""
        return {"enabled": self._heal_enabled,
                "resubscribes": self.resubscribes,
                "replayed": self.replayed,
                "duplicates_suppressed": sum(t.duplicates
                                             for t in self._trackers)}

    def backpressure_stats(self) -> dict:
        """Aggregate overload posture across this session's handles:
        how much is queued gateway-side, how much was shed (the oldest
        frames of full outboxes), and how many streams are currently
        overflowing.  Per-handle detail stays on ``handle.stats()``."""
        queued = dropped = overflowing = 0
        for handle in self.handles:
            queued += handle.queued
            dropped += handle.dropped
            overflowing += handle.overflow
        return {"queued": queued, "dropped": dropped,
                "handles_overflowing": overflowing,
                "handles": len(self.handles)}

    def resilience_stats(self) -> dict:
        """Retry/breaker/budget posture for this session's RPC edges —
        the :meth:`backpressure_stats` sibling for the control plane.
        Per-edge counters (``retries``, ``retry_bytes``,
        ``deadline_expired``, ``breaker_rejections``,
        ``budget_exhausted``), breaker states, endpoint health, and the
        retry-budget token bucket; the directory client's own policy
        (when it carries a distinct one) is rolled up under
        ``"directory"``."""
        stats = self._resilience.stats()
        dir_policy = getattr(self.client.directory, "resilience", None)
        if dir_policy is not None and dir_policy is not self._resilience:
            stats["directory"] = dir_policy.stats()
        return stats

    # -- lifecycle ---------------------------------------------------------------------

    def _require_open(self) -> None:
        if self.closed:
            raise ClientError("session is closed")

    def close(self) -> None:
        """Close every handle (idempotent).  Per-handle failures are
        aggregated into a single :class:`TeardownError` raised after
        all handles have been attempted."""
        if self.closed:
            return
        self.closed = True
        if self._heal_proc is not None and self._heal_proc.alive:
            self._heal_proc.kill()
        self._heal_proc = None
        super().close()

    def __enter__(self) -> "ClientSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.close()
        except TeardownError:
            if exc_type is None:
                raise
            # don't mask the body's exception with teardown noise

    def __repr__(self) -> str:  # pragma: no cover
        state = "closed" if self.closed else f"{len(self.handles)} handle(s)"
        return f"<ClientSession {self.name} {state}>"
