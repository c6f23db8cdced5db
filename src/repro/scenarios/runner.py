"""The scenario harness: build a world, run a fault plan, check invariants.

The standard scenario world is a two-site deployment shaped like the
paper's testbed:

* **site A** — N sensor hosts (one :class:`SeqSensor` each, under a
  supervised :class:`~repro.core.manager.SensorManager`), the gateway
  host (gateway + co-located archiver whose
  :class:`~repro.core.archive.EventArchive` is the *commit log*), and
  the directory master;
* **site B** — the consumer host (a self-healing
  :class:`~repro.client.ClientSession`) and the directory replica;
* an OC-12 WAN path through a router joins the sites.

"Committed" means *admitted to the gateway-side archive*: an event the
monitoring system accepted and durably stored.  Events a sensor emits
while its gateway is unreachable are never committed and may be lost —
exactly the paper's §2.3 contract ("event data is not sent anywhere
unless it is requested") extended to faults.  The invariants then say:
whatever was committed survives any schedule of host crashes, process
kills, partitions, loss/latency spikes, and clock skew.

Every run is deterministic in ``scenario.seed``; :meth:`ScenarioResult
.digest` hashes the full observable outcome (archive bytes, delivery
records, directory trees) so a determinism audit is one string compare.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Optional

from ..core import JAMMDeployment
from ..core.archive import (ArchiveQuery, EventArchive, RetentionPolicy,
                            SamplingPolicy)
from ..core.resilience import ResilienceConfig, merge_edge_counters
from ..core.config import JAMMConfig
from ..core.sensors.base import Sensor
from ..core.sensors.registry import _REGISTRY, register_sensor
from ..core.subscriptions import SubscriptionSpec
from ..simgrid import FaultPlan, GridWorld
from ..ulm import serialize

__all__ = ["Scenario", "ScenarioResult", "ScenarioRunner", "SeqSensor",
           "check_no_committed_loss", "check_monotonic_streams",
           "check_directory_convergence", "check_bounded_queues",
           "check_archive_accounting", "check_rollup_consistency",
           "run_scenario"]

#: base clock offset for scenario hosts, so negative skew injections can
#: never drive a host clock (and thus ULM dates) below zero
BASE_CLOCK_OFFSET = 5.0


class SeqSensor(Sensor):
    """Emits ``SEQ_TICK`` events carrying a per-stream sequence id.

    The id is owned by the sensor *object*, so it keeps increasing
    across supervisor restarts and host crash/restart cycles — which is
    what lets the invariant checkers speak about per-stream gaps and
    ordering without any out-of-band bookkeeping.
    """

    sensor_type = "seq"
    default_period = 0.5

    def __init__(self, host: Any, **kwargs: Any):
        super().__init__(host, **kwargs)
        self.seq = 0

    def sample(self):
        self.seq += 1
        return (("SEQ_TICK", {"SEQ": self.seq, "VALUE": self.seq % 10}),)


if "seq" not in _REGISTRY:  # idempotent under re-import
    register_sensor(SeqSensor)


#: the scenario world's fixed cadences (seconds): sensor supervision,
#: session and directory watchdogs, resubscribe backoff cap, replication
SUPERVISION_INTERVAL = 2.0
HEAL_INTERVAL = 2.0
HEAL_BACKOFF_MAX = 4.0
DIRECTORY_HEAL_INTERVAL = 2.0
REPLICATION_DELAY = 0.05


@dataclass
class Scenario:
    """One declarative fault scenario."""

    name: str
    seed: int = 0
    plan: Optional[FaultPlan] = None   # None -> FaultPlan.random(seed, ...)
    n_sensor_hosts: int = 3
    horizon: float = 60.0
    drain: float = 20.0                # post-heal settle time
    sensor_period: float = 0.5
    random_steps: int = 50             # plan size when plan is None
    #: let the random plan raise congestion storms (background-traffic
    #: bursts between host pairs that contend for the shared links)
    storms: bool = False
    #: let the random plan inject transient RPC faults (``flaky_rpc``)
    #: at the gateway and directory hosts — the retry-storm ingredient
    flaky: bool = False
    #: deployment-wide resilience config: ``None`` keeps component
    #: defaults; a dict (the JSON knob) / ``ResilienceConfig`` / ``True``
    #: builds per-client policies via :meth:`JAMMDeployment.make_policy`
    resilience: Any = None
    #: consumer-session backpressure knobs (None -> spec defaults)
    outbox_limit: Optional[int] = None
    overflow_policy: Optional[str] = None
    #: run under the dynamic sanitizer (checks fire at teardown only,
    #: so digests are unaffected; tier-1 asserts bit-identity)
    sanitize: bool = True
    #: commit-log seal threshold: a segment every N admitted events
    archive_segment_events: int = 64
    #: retention policy for the commit log (all None -> keep everything)
    archive_retention_age: Optional[float] = None
    archive_retention_bytes: Optional[int] = None
    archive_downsample_after: Optional[float] = None
    #: supervised compactor cadence (None -> no compactor process)
    compaction_interval: Optional[float] = 2.0

    # -- the scenario document -----------------------------------------------

    def to_dict(self) -> dict:
        """The scenario as a JSON document: every field off its default,
        the plan and a resilience config as their own documents."""
        doc = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.default is MISSING or value != f.default:
                doc[f.name] = value.to_dict() \
                    if hasattr(value, "to_dict") else value
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        """Rebuild from :meth:`to_dict`; an unknown key is an error."""
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
        doc = dict(doc)
        for key, kind in (("plan", FaultPlan),
                          ("resilience", ResilienceConfig)):
            if isinstance(doc.get(key), dict):
                doc[key] = kind.from_dict(doc[key])
        return cls(**doc)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))


@dataclass
class ScenarioResult:
    """Everything a scenario run observed, plus the invariant verdicts."""

    scenario: Scenario
    plan: FaultPlan
    committed: set = field(default_factory=set)       # {(stream, seq)}
    #: (stream, seq) -> commit date, recorded at commit time — retention
    #: may drop the event from the archive later, the record stays
    committed_dates: dict = field(default_factory=dict)
    #: stream -> [(seq, channel)] in delivery order; channel is
    #: "live" or "replay"
    received: dict = field(default_factory=dict)
    received_set: set = field(default_factory=set)
    archive_bytes: bytes = b""
    directory_trees: dict = field(default_factory=dict)  # server -> tree
    stats: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def digest(self) -> str:
        """Stable hash of the observable outcome (determinism audits)."""
        h = hashlib.sha256()
        h.update(self.archive_bytes)
        for stream in sorted(self.received):
            h.update(stream.encode())
            for seq, channel in self.received[stream]:
                h.update(f"{seq}:{channel};".encode())
        for server in sorted(self.directory_trees):
            h.update(server.encode())
            h.update(repr(self.directory_trees[server]).encode())
        return h.hexdigest()

    def repro_line(self) -> str:
        sc = self.scenario
        return (f"scenario={sc.name!r} seed={sc.seed} (rerun: "
                f"run_scenario(Scenario.from_json({sc.to_json()!r})))")

    def check(self) -> "ScenarioResult":
        """Raise AssertionError (with seed + full plan) on any violation."""
        if self.violations:
            detail = "\n".join(f"  - {v}" for v in self.violations)
            raise AssertionError(
                f"scenario invariants violated — {self.repro_line()}\n"
                f"{detail}\n{self.plan.describe()}")
        return self


# ---------------------------------------------------------------------------
# invariant checkers
# ---------------------------------------------------------------------------


def check_no_committed_loss(result: ScenarioResult) -> list[str]:
    """Every committed (stream, seq) *within retention* was delivered.

    Retention scoping: events the archive itself retired, downsampled,
    or shed lie at or below its ``loss_floor`` watermark — the system
    deliberately let them go (and said so in its accounting), so their
    non-delivery is policy, not loss.  Everything committed above the
    floor must still reach the consumer.
    """
    floor = result.stats.get("archive", {}).get("loss_floor", float("-inf"))
    lost = sorted(
        key for key in result.committed - result.received_set
        if result.committed_dates.get(key, float("inf")) > floor)
    if not lost:
        return []
    sample = ", ".join(f"{s}#{q}" for s, q in lost[:10])
    return [f"committed-event loss: {len(lost)} committed events above "
            f"the loss floor ({floor:.6f}) never reached the consumer "
            f"(e.g. {sample})"]


def check_monotonic_streams(result: ScenarioResult) -> list[str]:
    """Live deliveries never reorder within a stream; no id repeats."""
    problems = []
    for stream in sorted(result.received):
        last_live = 0
        seen: set[int] = set()
        for seq, channel in result.received[stream]:
            if seq in seen:
                problems.append(f"{stream}: id {seq} delivered twice")
                break
            seen.add(seq)
            if channel == "live":
                if seq <= last_live:
                    problems.append(
                        f"{stream}: live stream reordered "
                        f"({seq} after {last_live})")
                    break
                last_live = seq
    return problems


def check_directory_convergence(result: ScenarioResult) -> list[str]:
    """After heal, every replica's tree equals the master's."""
    trees = result.directory_trees
    master_tree = trees.get("master")
    problems = []
    for server, tree in sorted(trees.items()):
        if server == "master":
            continue
        if tree != master_tree:
            missing = [dn for dn in master_tree if dn not in tree]
            extra = [dn for dn in tree if dn not in master_tree]
            diff = [dn for dn in master_tree
                    if dn in tree and tree[dn] != master_tree[dn]]
            problems.append(
                f"directory replica {server} diverged from master: "
                f"{len(missing)} missing, {len(extra)} extra, "
                f"{len(diff)} differing entries")
    return problems


def check_bounded_queues(result: ScenarioResult) -> list[str]:
    """Backpressure accounting closed: gateway outboxes never grew past
    their caps, and every shed event landed in exactly one overflow-
    policy bucket — overload degrades loudly, never silently."""
    problems = []
    for name, gw in sorted(result.stats.get("gateway", {}).items()):
        limit = gw.get("outbox_limit_max", 0)
        peak = gw.get("outbox_peak", 0)
        if limit and peak > limit:
            problems.append(
                f"gateway {name}: outbox peak {peak} exceeded cap {limit}")
        shed = gw.get("events_shed", 0)
        accounted = sum(gw.get("shed_by_policy", {}).values())
        if shed != accounted:
            problems.append(
                f"gateway {name}: {shed} events shed but only {accounted} "
                f"accounted to an overflow policy")
    return problems


def check_archive_accounting(result: ScenarioResult) -> list[str]:
    """The commit log's event accounting identity closes: every admitted
    event is retained, shed, retired, downsampled, or quarantined —
    storage faults and retention may drop events, never lose count of
    them."""
    a = result.stats.get("archive", {})
    if "ingested" not in a:
        return []
    accounted = (a.get("count", 0) + a.get("shed", 0)
                 + a.get("events_retired", 0)
                 + a.get("events_downsampled", 0)
                 + a.get("quarantined_events", 0))
    if a["ingested"] != accounted:
        return [f"archive accounting leak: {a['ingested']} admitted but "
                f"{accounted} accounted (count={a.get('count')} "
                f"shed={a.get('shed')} retired={a.get('events_retired')} "
                f"downsampled={a.get('events_downsampled')} "
                f"quarantined={a.get('quarantined_events')})"]
    return []


def check_rollup_consistency(result: ScenarioResult) -> list[str]:
    """Rollup-served summaries agree with a raw scan of the same window
    (computed by :meth:`ScenarioRunner.collect` while the archive is
    live)."""
    check = result.stats.get("rollup_check")
    if not check:
        return []
    return [f"rollup-vs-raw mismatch over window "
            f"[{check['window'][0]:.6f}, {check['window'][1]:.6f}): {m}"
            for m in check["mismatches"]]


DEFAULT_CHECKERS = (check_no_committed_loss, check_monotonic_streams,
                    check_directory_convergence, check_bounded_queues,
                    check_archive_accounting, check_rollup_consistency)


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


class ScenarioRunner:
    """Builds the standard scenario world and drives one fault plan."""

    def __init__(self, scenario: Scenario, *,
                 checkers: tuple = DEFAULT_CHECKERS):
        self.scenario = scenario
        self.checkers = checkers
        self.world: Optional[GridWorld] = None
        self.deployment: Optional[JAMMDeployment] = None
        self.session = None
        self.commit_session = None
        self.archive: Optional[EventArchive] = None
        self.compactor = None
        self.injector = None
        self._records: dict[str, list] = {}
        #: (stream, seq) -> date at the moment of commit (archive admit)
        self._committed: dict = {}
        #: deliveries with no usable SEQ (corrupt samples, summaries)
        self.malformed = 0
        self._perf: Optional[dict] = None

    # -- world construction --------------------------------------------------

    def build(self) -> "ScenarioRunner":
        sc = self.scenario
        # faults crash processes on purpose; non-strict keeps the kernel
        # running and lets the self-healing layers do their job
        world = GridWorld(seed=sc.seed, strict=False, sanitize=sc.sanitize)
        self.world = world
        clock = {"clock_offset": BASE_CLOCK_OFFSET}
        sensor_hosts = [world.add_host(f"s{i}.siteA", **clock)
                        for i in range(sc.n_sensor_hosts)]
        gw_host = world.add_host("gw.siteA", **clock)
        dir_a = world.add_host("dir.siteA", **clock)
        consumer_host = world.add_host("consumer.siteB", **clock)
        dir_b = world.add_host("dir.siteB", **clock)
        world.lan(sensor_hosts + [gw_host, dir_a], switch="siteA-sw")
        world.lan([consumer_host, dir_b], switch="siteB-sw")
        world.wan_path("siteA-sw", "siteB-sw", routers=["wan-r1"],
                       latency_s=10e-3)

        deployment = JAMMDeployment(
            world, directory_hosts=(dir_a, dir_b), n_directory_replicas=1,
            replication_delay=REPLICATION_DELAY,
            resilience=sc.resilience)
        self.deployment = deployment
        deployment.enable_self_healing(
            check_interval=DIRECTORY_HEAL_INTERVAL, master_grace=2)
        gateway = deployment.add_gateway("gw0", host=gw_host)

        config = JAMMConfig()
        config.add_sensor("seq", "seq", period=sc.sensor_period)
        for host in sensor_hosts:
            manager = deployment.add_manager(host, config=config,
                                             gateway=gateway)
            manager.supervision_interval = SUPERVISION_INTERVAL

        # the commit log: a session beside the gateway whose callback
        # appends to an archive that keeps everything.  "The archive is
        # just another consumer" (§2.2) — so it self-heals like one:
        # its subscriptions die in the gateway crash and the watchdog
        # reopens them once the gateway is back.  Same-host delivery is
        # an in-process callback, so the commit point is effectively
        # gateway ingest.
        retention = None
        if (sc.archive_retention_age is not None
                or sc.archive_retention_bytes is not None):
            retention = RetentionPolicy(
                max_age=sc.archive_retention_age,
                max_bytes=sc.archive_retention_bytes,
                downsample_after=sc.archive_downsample_after)
        self.archive = EventArchive(
            name="commit-log", policy=SamplingPolicy(normal_fraction=1.0),
            segment_events=sc.archive_segment_events, retention=retention)
        # registered by name so storage fault events (disk_full,
        # compaction_stall, torn_segment, slow_disk) can find it
        world.register_archive(self.archive)
        if sc.compaction_interval is not None:
            self.compactor = self.archive.start_compaction(
                world.sim, interval=sc.compaction_interval)
        commit_client = deployment.client(host=gw_host)
        self.commit_session = commit_client.session(name="commit-log")
        self.commit_session.subscribe_all(
            commit_client.sensors(type="seq"),
            on_event=self._commit)
        self.commit_session.enable_auto_heal(
            check_interval=HEAL_INTERVAL,
            backoff_max=HEAL_BACKOFF_MAX)

        # the consumer: a self-healing session recording every delivery,
        # resuming from the commit log's watermark after reconnects
        client = deployment.client(host=consumer_host)
        self.session = client.session(name="scenario-consumer")
        proto = None
        if sc.outbox_limit is not None or sc.overflow_policy is not None:
            proto = SubscriptionSpec(
                sensor="_proto_",  # replaced per sensor at subscribe time
                outbox_limit=sc.outbox_limit
                if sc.outbox_limit is not None else 256,
                overflow=sc.overflow_policy or "drop_oldest")
        self.session.subscribe_all(client.sensors(type="seq"),
                                   spec=proto, on_event=self._record)
        self.session.enable_auto_heal(
            archive=self.archive,
            check_interval=HEAL_INTERVAL,
            backoff_max=HEAL_BACKOFF_MAX,
            replay_slack=1.0)
        return self

    def _commit(self, event: Any) -> None:
        # the commit point: record the (stream, seq) -> date mapping at
        # admit time, because retention may later drop the event from
        # the archive — the loss invariant needs the date to scope
        # itself to the loss floor
        if self.archive.append(event):
            seq = event.fields.get("SEQ")
            if seq is not None:
                self._committed.setdefault((event.prog, int(seq)),
                                           event.date)

    def _record(self, event: Any) -> None:
        # corrupted samples and degrade summaries carry no SEQ; they are
        # counted, never recorded — a gray sensor must not poison the
        # stream invariants with fabricated ids
        if not hasattr(event, "get") or event.get("SEQ") is None:
            self.malformed += 1
            return
        seq = event.get_int("SEQ")
        channel = "replay" if self.session.in_replay else "live"
        self._records.setdefault(event.prog, []).append((seq, channel))

    # -- execution ------------------------------------------------------------

    def _resolve_plan(self) -> FaultPlan:
        sc = self.scenario
        if sc.plan is not None:
            return sc.plan
        hosts = [h for h in sorted(self.world.hosts)
                 if h != "consumer.siteB"]
        links = [l.name for l in self.world.network.links()]
        return FaultPlan.random(
            sc.seed, hosts=hosts, links=links, n_steps=sc.random_steps,
            horizon=sc.horizon,
            consumers=("consumer.siteB",), archives=("commit-log",),
            # the invariants read the consumer host's records
            protect={"consumer.siteB"},
            storms=tuple(sorted(self.world.hosts)) if sc.storms else (),
            flaky=("dir.siteA", "gw.siteA") if sc.flaky else ())

    def run(self) -> ScenarioResult:
        if self.world is None:
            self.build()
        sc = self.scenario
        wall_start = time.perf_counter()
        events_start = self.world.sim.events_executed
        plan = self._resolve_plan()
        self.injector = self.world.inject(plan)
        self.world.run(until=sc.horizon)
        # force the world back to health, then drain: restart every
        # down host and undo every fault still in force, exactly what
        # the plan's own tail does for well-formed plans
        for name in sorted(self.world.hosts):
            host = self.world.hosts[name]
            if not host.up:
                host.restart()
        self.injector.heal_all()
        self.world.run(until=sc.horizon + sc.drain)
        # freeze the commit set (stop emission) and flush: in-flight
        # deliveries land and the healing sessions run their final
        # catch-up passes, so "committed but still on the wire at the
        # horizon" never reads as loss
        for name in sorted(self.deployment.managers):
            manager = self.deployment.managers[name]
            for sensor_name in sorted(manager.sensors):
                manager.sensors[sensor_name].stop()
        flush = 2.0 * max(HEAL_INTERVAL, SUPERVISION_INTERVAL) + 1.0
        self.world.run(until=sc.horizon + sc.drain + flush)
        # wall-clock throughput of the run itself (build excluded);
        # digests never cover stats, so this cannot perturb determinism
        wall = time.perf_counter() - wall_start
        events = self.world.sim.events_executed - events_start
        self._perf = {
            "events": events,
            "wall_s": wall,
            "events_per_s": events / wall if wall > 0 else 0.0,
            "sim_time": self.world.sim.now,
        }
        # stop the compactor before the teardown audit — its worker and
        # watchdog are meant to run forever, which is exactly what the
        # leak check would (rightly) flag in anything else
        if self.compactor is not None:
            self.compactor.stop()
        # teardown audit: the run is over, so a violation here is a real
        # leak/staleness bug, not an in-flight transient
        self.world.sanitize_check()
        return self.collect()

    # -- result collection ------------------------------------------------------

    def _rollup_check(self) -> Optional[dict]:
        """Compare rollup-served summaries against a raw scan.

        The window starts just above the loss floor: everything newer is
        raw-retained (downsampling/retirement advance the floor), so a
        brute-force pass over ``iter_query`` is a complete oracle there.
        """
        archive = self.archive
        if len(archive) == 0:
            return None
        t0, t1 = archive.time_span()
        floor = archive.loss_floor
        lo = t0 if floor == float("-inf") else max(t0, floor + 1e-9)
        hi = t1 + 1e-6  # summarize_window is end-exclusive
        if hi <= lo:
            return None
        rolled = archive.summarize_window(lo, hi)
        counts: dict[str, int] = {}
        sums: dict[str, float] = {}
        vcounts: dict[str, int] = {}
        for msg in archive.iter_query(ArchiveQuery(t0=lo, t1=hi),
                                      end_exclusive=True):
            event = msg.event or "?"
            counts[event] = counts.get(event, 0) + 1
            raw = msg.fields.get("VALUE")
            if raw is not None:
                try:
                    value = float(raw)
                except ValueError:
                    continue
                sums[event] = sums.get(event, 0.0) + value
                vcounts[event] = vcounts.get(event, 0) + 1
        mismatches = []
        for event in sorted(set(rolled) | set(counts)):
            row = rolled.get(event)
            if row is None:
                mismatches.append(f"{event}: raw has {counts[event]} "
                                  f"events, rollup has none")
                continue
            if row[0] != counts.get(event, 0):
                mismatches.append(f"{event}: rollup count {row[0]} != raw "
                                  f"count {counts.get(event, 0)}")
            if row[2] != vcounts.get(event, 0):
                mismatches.append(f"{event}: rollup value_count {row[2]} "
                                  f"!= raw {vcounts.get(event, 0)}")
            if not math.isclose(row[1], sums.get(event, 0.0),
                                rel_tol=1e-9, abs_tol=1e-6):
                mismatches.append(f"{event}: rollup value_sum {row[1]!r} "
                                  f"!= raw {sums.get(event, 0.0)!r}")
        return {"window": (lo, hi), "events": sum(counts.values()),
                "mismatches": mismatches}

    def _resilience_stats(self) -> dict:
        """Roll every resilience policy in the world up into one block.

        Policies can be shared (a deployment-wide config hands the same
        object to a facade client and its directory client), so totals
        are summed over the *deduplicated* set of policy objects."""
        deployment = self.deployment
        policies: list[Any] = []

        def note(policy: Any) -> None:
            if policy is not None \
                    and not any(p is policy for p in policies):
                policies.append(policy)

        for session in (self.session, self.commit_session):
            note(session._resilience)
            note(getattr(session.client.directory, "resilience", None))
        for manager in deployment.managers.values():
            note(manager.resilience)
            note(getattr(manager.directory, "resilience", None))
        note(deployment.directory.master.replicator.resilience)
        for policy in deployment.policies.values():
            note(policy)
        return {
            "session": self.session.resilience_stats(),
            "commit_session": self.commit_session.resilience_stats(),
            "managers": {n: m.resilience.stats() for n, m in
                         sorted(deployment.managers.items())},
            "deployment": deployment.resilience_stats(),
            "totals": merge_edge_counters(p.stats() for p in policies),
        }

    def collect(self) -> ScenarioResult:
        archive = self.archive
        committed_dates = dict(self._committed)
        chunks = []
        for msg in archive.messages:
            chunks.append(serialize(msg).encode())
            seq = msg.fields.get("SEQ")
            if seq is not None:
                committed_dates.setdefault((msg.prog, int(seq)), msg.date)
        committed = set(committed_dates)
        directory = self.deployment.directory

        def tree(server) -> dict:
            return {str(dn): {attr: list(entry.attributes[attr])
                              for attr in sorted(entry.attributes)}
                    for dn, entry in sorted(
                        server.backend.entries.items(), key=lambda kv:
                        str(kv[0]))}

        trees = {"master": tree(directory.master)}
        for i, replica in enumerate(directory.replicas):
            trees[f"replica{i}:{replica.name}"] = tree(replica)

        result = ScenarioResult(
            scenario=self.scenario,
            plan=self.injector.plan,
            committed=committed,
            committed_dates=committed_dates,
            received={k: list(v) for k, v in self._records.items()},
            received_set={(stream, seq)
                          for stream, recs in self._records.items()
                          for seq, _channel in recs},
            archive_bytes=b"\n".join(chunks),
            directory_trees=trees,
            stats={
                "gateway": {n: g.stats()
                            for n, g in self.deployment.gateways.items()},
                "session": self.session.heal_stats(),
                "commit_session": self.commit_session.heal_stats(),
                "sensor_restarts": {n: m.sensor_restarts for n, m in
                                    self.deployment.managers.items()},
                "quality_restarts": {n: m.quality_restarts for n, m in
                                     self.deployment.managers.items()},
                "backpressure": self.session.backpressure_stats(),
                "resilience": self._resilience_stats(),
                "malformed": self.malformed,
                "transport": {
                    "messages_sent": self.world.transport.messages_sent,
                    "messages_lost": self.world.transport.messages_lost,
                    "messages_lost_congestion":
                        self.world.transport.messages_lost_congestion,
                    "messages_flaky_failed":
                        self.world.transport.messages_flaky_failed,
                    "queue_delay_s": self.world.transport.queue_delay_s,
                    "class_bytes": dict(self.world.transport.class_bytes),
                },
                "links": {
                    link.name: link.queue_stats()
                    for link in self.world.network.links()
                },
                "archive": self.archive.stats(),
                "compactor": self.compactor.stats()
                if self.compactor is not None else {},
                "rollup_check": self._rollup_check(),
                "replication": {
                    "deltas_lost": directory.master.replicator.deltas_lost,
                    "snapshots": directory.master.replicator.snapshots,
                    "auto_promotions": directory.auto_promotions,
                    "anti_entropy": directory.anti_entropy_snapshots,
                },
                "crashes": len(self.world.sim.crashes),
                "sanitizer": self.world.sanitizer_stats(),
                "perf": self._perf,
            })
        for checker in self.checkers:
            result.violations.extend(checker(result))
        return result


def run_scenario(scenario: Scenario, *,
                 checkers: tuple = DEFAULT_CHECKERS) -> ScenarioResult:
    """Build + run + collect in one call (the test-facing entry point)."""
    return ScenarioRunner(scenario, checkers=checkers).run()
