"""The four end-to-end workloads (why each exists: README.md, BENCHMARK.json).

Every workload is ``setup()`` (timed as set-up) then ``run()`` (the
timed run phase, followed by an untimed check of the outputs against a
reference).  All inputs come from the seed; sizes are fixed, so the
three simulator workloads are batch jobs in host time (their sensors
are open-loop in *simulated* time) and ``archive_mixed`` is a closed
loop of one caller.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.client import Delivery, SubscriptionSpec
from repro.core import JAMMDeployment
from repro.core.archive import ArchiveQuery, EventArchive
from repro.core.config import JAMMConfig
from repro.core.filters import EventNames, OnChange, Threshold
from repro.scenarios import Scenario, ScenarioRunner
from repro.simgrid import FaultPlan, GridWorld
from repro.simgrid.kernel import Timeout
from repro.ulm import ULMMessage

from .tracer import Tracer

__all__ = ["WORKLOADS", "Outcome"]


@dataclass
class Outcome:
    """What one run produced, after checking it."""

    run_wall_s: float
    #: verified output events — the numerator of ``events_per_s``
    events: int
    attempted: int
    failed: int
    digest: str
    #: counters and simulated-time samples for the per-layer ledger
    facts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# counters shared by the simulator workloads
# ---------------------------------------------------------------------------

def _world_counters(world: GridWorld, deployment: JAMMDeployment) -> dict:
    """Cumulative public counters; run-phase figures are after − before."""
    transport = world.transport
    directory = deployment.directory
    return {
        "kernel_events": world.sim.events_executed,
        "sends": transport.messages_sent,
        "lost": transport.messages_lost + transport.messages_lost_congestion,
        "wakeups": transport.delivery_wakeups,
        "queue_delay_sim_s": transport.queue_delay_s,
        # every server: a promotion moves the master role mid-run
        "dir_deltas": sum(server.replicator.deltas_shipped
                          for server in directory.servers),
    }


def _world_gauges(world: GridWorld, deployment: JAMMDeployment) -> dict:
    """Peaks and lifetime totals, read once after the run."""
    gateways = [g.stats() for g in deployment.gateways.values()]
    queues = [link.queue_stats() for link in world.network.links()]
    facts = {key: sum(g[key] for g in gateways)
             for key in ("events_in", "events_delivered", "events_filtered",
                         "events_shed")}
    facts["outbox_peak"] = max(g["outbox_peak"] for g in gateways)
    facts["queue_drops"] = sum(sum(q["drops"]) for q in queues)
    facts["peak_backlog_sim_s"] = max(max(q["peak_backlog_s"]) for q in queues)
    facts["sensor_restarts"] = sum(m.sensor_restarts
                                   for m in deployment.managers.values())
    # since the world was built: discovery happens during set-up
    backends = [server.backend for server in deployment.directory.servers]
    facts["dir_index_hits"] = sum(b.index_hits for b in backends)
    facts["dir_full_scans"] = sum(b.full_scans for b in backends)
    return facts


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def _true_latency(world: GridWorld, event: Any) -> float:
    """Simulated seconds from the event's DATE to now, with the source
    host's clock error taken back out of the DATE."""
    return world.sim.now - (event.date - world.hosts[event.host].clock.error())


# ---------------------------------------------------------------------------
# steady_pipeline / fault_storm: the standard two-site scenario
# ---------------------------------------------------------------------------

class _Runner(ScenarioRunner):
    """Marks the end of the run phase where the harness's own wall
    clock stops it: on entry to result collection (which re-serializes
    the whole archive and must not be billed to the codec layer)."""

    tracer: Optional[Tracer] = None
    counters_after: Optional[dict] = None

    def collect(self):
        if self.tracer is not None:
            self.tracer.end_run()
        self.counters_after = _world_counters(self.world, self.deployment)
        return super().collect()


class _ScenarioWorkload:
    def __init__(self, seed: int, *, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.runner: Optional[_Runner] = None

    def scenario(self) -> Scenario:
        raise NotImplementedError

    def prepare(self, runner: _Runner) -> None:
        """Seeded inputs applied to the built world."""

    def setup(self) -> None:
        self.runner = _Runner(self.scenario())
        self.runner.build()
        self.prepare(self.runner)

    def run(self, tracer: Optional[Tracer] = None) -> Outcome:
        runner = self.runner
        world, deployment = runner.world, runner.deployment
        latencies: list[float] = []
        replay_gaps: list[float] = []
        if tracer is not None:
            session = runner.session

            def probe(event: Any) -> None:
                if event.get("SEQ") is not None:
                    (replay_gaps if session.in_replay else latencies).append(
                        _true_latency(world, event))

            for handle in session.handles:
                handle.attach(probe)
            runner.tracer = tracer
            tracer.begin_run()
        before = _world_counters(world, deployment)
        try:
            result = runner.run()
        finally:
            if tracer is not None:
                tracer.end_run()
        stats = result.stats
        floor = stats["archive"]["loss_floor"]
        owed = {key for key, date in result.committed_dates.items()
                if date > floor}
        delivered = result.committed & result.received_set
        facts = _delta(runner.counters_after, before)
        facts.update(_world_gauges(world, deployment))
        resilience = stats["resilience"]
        policies = list(resilience["deployment"].values()) or \
            [resilience["session"], resilience["commit_session"],
             *resilience["managers"].values()]
        applied = runner.injector.applied
        facts.update({
            "sim_s": stats["perf"]["sim_time"],
            "latencies_sim_s": latencies,
            "replay_gaps_sim_s": replay_gaps,
            "archive": stats["archive"],
            "duplicates_suppressed": stats["session"]["duplicates_suppressed"],
            "received": sum(len(r) for r in result.received.values()),
            "replayed": stats["session"]["replayed"],
            "resubscribes": stats["session"]["resubscribes"],
            "resilience": resilience["totals"],
            "breaker_opens": sum(b["opens"] for p in policies
                                 for b in p["breakers"].values()),
            "faults_applied": len(applied),
            "fault_kinds": len({event.kind for _, event in applied}),
        })
        return Outcome(
            run_wall_s=stats["perf"]["wall_s"],
            events=len(delivered),
            attempted=len(owed),
            failed=len(owed - result.received_set) + len(result.violations),
            digest=result.digest(), facts=facts)


class SteadyPipeline(_ScenarioWorkload):
    name = "steady_pipeline"

    def scenario(self) -> Scenario:
        return Scenario(
            name=self.name, seed=self.seed, plan=FaultPlan(seed=self.seed),
            n_sensor_hosts=3 if self.smoke else 10,
            sensor_period=0.05, horizon=8.0 if self.smoke else 180.0,
            drain=6.0)

    def prepare(self, runner: _Runner) -> None:
        # The fault-free scenario draws no randomness of its own and
        # starts every sensor at t=0, so all hosts sample in lockstep.
        # The seeded input is each host's sampling phase: its sensor is
        # re-initialized (the §5.0 GUI operation) at a seeded moment
        # inside the first period.  Same work for every seed, different
        # interleaving of the ten streams on the wire and in the archive.
        rng = random.Random(self.seed)
        period = runner.scenario.sensor_period
        for name in sorted(runner.deployment.managers):
            runner.world.sim.call_in(
                rng.uniform(0.0, period),
                runner.deployment.managers[name].reinit_sensor, "seq")


class FaultStorm(_ScenarioWorkload):
    name = "fault_storm"
    #: The fault *plan* is part of the workload, not of the seed: random
    #: plans differ several-fold in work (10 s to 25 s at one size), so
    #: a per-seed plan would swamp any host-time signal.  Plan 15 at
    #: this size has storms, flaky RPCs, 6 resubscribes and ~390
    #: replayed events.  ``--seed`` seeds the world instead: loss draws,
    #: storm packet jitter, flaky-RPC draws, retry jitter.
    PLAN_SEED = 15

    def scenario(self) -> Scenario:
        smoke = self.smoke
        return Scenario(
            name=self.name, seed=self.seed,
            n_sensor_hosts=3 if smoke else 6, sensor_period=0.1,
            horizon=20.0 if smoke else 80.0, drain=20.0,
            random_steps=8 if smoke else 27,
            storms=True, flaky=True, resilience=True,
            archive_retention_age=30.0, archive_downsample_after=15.0)

    def prepare(self, runner: _Runner) -> None:
        # ScenarioRunner's own random plan, drawn from PLAN_SEED instead
        # of the scenario's (world) seed
        sc, world = runner.scenario, runner.world
        consumer = "consumer.siteB"
        sc.plan = FaultPlan.random(
            self.PLAN_SEED,
            hosts=[h for h in sorted(world.hosts) if h != consumer],
            links=[link.name for link in world.network.links()],
            n_steps=sc.random_steps, horizon=sc.horizon,
            consumers=(consumer,), archives=("commit-log",),
            protect={consumer}, storms=tuple(sorted(world.hosts)),
            flaky=("dir.siteA", "gw.siteA"))


# ---------------------------------------------------------------------------
# wide_fanout: one gateway, many filtered remote subscribers
# ---------------------------------------------------------------------------

_FORMATS = ("ulm", "xml", "binary")
_EVENT_NAMES = ("VMSTAT_USER_TIME", "VMSTAT_SYS_TIME", "VMSTAT_FREE_MEMORY",
                "SEQ_TICK")


def _reference_filter(kind: tuple):
    """Trivially-correct model of one subscription's filter: a closure
    ``(event_name, value) -> delivered?`` with its own state."""
    if kind[0] == "all":
        return lambda name, value: True
    if kind[0] == "names":
        return lambda name, value: name in kind[1]
    if kind[0] == "on-change":
        last = [None]

        def changed(name, value):
            if value is None or value == last[0]:
                return False
            last[0] = value
            return True
        return changed
    limit = kind[1]
    above = [False]

    def crossed(name, value):
        if value is None:
            return False
        was, above[0] = above[0], float(value) > limit
        return above[0] and not was
    return crossed


def _make_filter(kind: tuple):
    if kind[0] == "all":
        return None
    if kind[0] == "names":
        return EventNames(sorted(kind[1]))
    if kind[0] == "on-change":
        return OnChange("VALUE")
    return Threshold("VALUE", ">", kind[1])


class WideFanout:
    name = "wide_fanout"

    def __init__(self, seed: int, *, smoke: bool = False):
        self.seed = seed
        self.n_sensor_hosts = 2 if smoke else 4
        self.n_consumer_hosts = 2 if smoke else 8
        self.sessions_per_host = 4 if smoke else 12
        self.horizon = 2.0 if smoke else 8.0
        self.period = 0.1

    def setup(self) -> None:
        rng = random.Random(self.seed)
        world = GridWorld(seed=self.seed, sanitize=True)
        self.world = world
        sensor_hosts = [world.add_host(f"s{i}.siteA")
                        for i in range(self.n_sensor_hosts)]
        gw_host = world.add_host("gw.siteA")
        dir_a = world.add_host("dir.siteA")
        consumer_hosts = [world.add_host(f"c{i}.siteB")
                          for i in range(self.n_consumer_hosts)]
        dir_b = world.add_host("dir.siteB")
        world.lan(sensor_hosts + [gw_host, dir_a], switch="siteA-sw")
        world.lan(consumer_hosts + [dir_b], switch="siteB-sw")
        world.wan_path("siteA-sw", "siteB-sw", routers=["wan-r1"],
                       latency_s=10e-3)
        deployment = JAMMDeployment(world, directory_hosts=(dir_a, dir_b),
                                    n_directory_replicas=1)
        self.deployment = deployment
        gateway = deployment.add_gateway("gw0", host=gw_host)
        config = JAMMConfig()
        config.add_sensor("vmstat", "vmstat", period=self.period)
        config.add_sensor("seq", "seq", period=self.period)
        for host in sensor_hosts:
            deployment.add_manager(host, config=config, gateway=gateway)
            world.sim.spawn(self._load(host, random.Random(rng.random())),
                            name=f"load[{host.name}]")

        # the reference's view of the input: an in-process tap beside
        # the gateway sees every ingested event, in ingest order
        self.ingested: dict[str, list] = {}
        for key in gateway.sensors():
            stream = self.ingested[key] = []
            gateway.open(SubscriptionSpec(
                sensor=key, buffer_limit=0,
                delivery=Delivery.callback(stream.append)))

        # half unfiltered, a quarter by name, an eighth each on-change
        # and threshold; formats rotate against the filter kinds, so
        # every kind carries every format equally on every seed (decode
        # cost differs by format); the seed deals the pairs to sessions
        n_sessions = self.n_consumer_hosts * self.sessions_per_host
        deals: list[tuple] = []
        for index in range(n_sessions):
            slot = index % 8
            if slot < 4:
                kind = ("all",)
            elif slot < 6:
                kind = ("names", frozenset(
                    rng.sample(_EVENT_NAMES, rng.choice((1, 2)))))
            elif slot == 6:
                kind = ("on-change",)
            else:
                kind = ("threshold", round(rng.uniform(3.0, 60.0), 1))
            deals.append((kind, _FORMATS[index % 3]))
        rng.shuffle(deals)
        self.sessions = []
        for index, (kind, fmt) in enumerate(deals):
            host = consumer_hosts[index // self.sessions_per_host]
            client = deployment.client(host=host)
            session = client.session(name=f"fan{index}")
            got: list = []
            session.subscribe_all(
                client.sensors(), event_filter=_make_filter(kind), fmt=fmt,
                on_event=lambda e, _got=got: _got.append(
                    (e.prog, e.fields.get("NL.EVNT"), round(e.date * 1e6))))
            self.sessions.append((session, kind, got))

    def _load(self, host: Any, rng: random.Random):
        """The monitored application: seeded CPU and memory demand."""
        cpu = host.cpu.add_load()
        mem = host.memory.allocate(0)
        while True:
            host.cpu.update_load(cpu, user=rng.uniform(0.0, 2.0),
                                 system=rng.uniform(0.0, 0.5))
            host.memory.resize(mem, rng.randrange(0, 512 * 1024))
            yield Timeout(0.25)

    def run(self, tracer: Optional[Tracer] = None) -> Outcome:
        world, deployment = self.world, self.deployment
        latencies: list[float] = []
        if tracer is not None:
            for session, _kind, _got in self.sessions:
                for handle in session.handles:
                    handle.attach(
                        lambda e: latencies.append(_true_latency(world, e)))
            tracer.begin_run()
        before = _world_counters(world, deployment)
        try:
            t0 = time.perf_counter()
            world.run(until=self.horizon)
            for manager in deployment.managers.values():
                for sensor in manager.sensors.values():
                    sensor.stop()
            world.run(until=self.horizon + 1.0)  # in-flight deliveries land
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.end_run()
        facts = _delta(_world_counters(world, deployment), before)
        facts.update(_world_gauges(world, deployment))
        facts.update({"sim_s": world.sim.now, "latencies_sim_s": latencies})

        # brute force: every subscription's filter over every ingested event
        attempted = failed = delivered = 0
        h = hashlib.sha256()
        for session, kind, got in self.sessions:
            expected = []
            for key in sorted(self.ingested):
                accept = _reference_filter(kind)
                for msg in self.ingested[key]:
                    if accept(msg.event, msg.fields.get("VALUE")):
                        expected.append((msg.prog, msg.event,
                                         round(msg.date * 1e6)))
            expected.sort()
            got.sort()
            attempted += len(expected)
            delivered += len(got)
            if got != expected:
                failed += len(set(got) ^ set(expected)) or 1
            h.update(repr(got).encode())
            session.close()
        facts["received"] = delivered
        failed += len(world.sanitize_check(raise_on_violation=False))
        return Outcome(run_wall_s=wall, events=delivered,
                       attempted=attempted, failed=failed,
                       digest=h.hexdigest(), facts=facts)


# ---------------------------------------------------------------------------
# archive_mixed: one archive, writes beside reads, no simulator
# ---------------------------------------------------------------------------

class ArchiveMixed:
    name = "archive_mixed"
    N_HOSTS = 50
    EVENTS = ("CPU_USAGE", "MEM_USAGE", "NET_RX", "NET_TX", "DISK_IO",
              "PROC_COUNT")
    RATE = 100.0          # aggregate events per second of monitored time
    LATE_SHARE = 0.02     # arrive up to LATE_MAX seconds behind their DATE
    LATE_MAX = 5.0
    APPENDS_PER_QUERY = 50
    QUERIES_PER_SUMMARY = 10
    CHECK_EVERY = 50      # 1-in-N reads compared against the oracle

    def __init__(self, seed: int, *, smoke: bool = False):
        self.seed = seed
        self.n_events = 20_000 if smoke else 300_000

    def setup(self) -> None:
        rng = random.Random(self.seed)
        hosts = [f"h{i}.grid" for i in range(self.N_HOSTS)]
        messages = []
        for k in range(self.n_events):
            arrival = 10.0 + k / self.RATE
            late = rng.uniform(0.0, self.LATE_MAX) \
                if rng.random() < self.LATE_SHARE else 0.0
            messages.append(ULMMessage(
                date=arrival - late, host=rng.choice(hosts), prog="monitor",
                event=rng.choice(self.EVENTS),
                fields={"VALUE": f"{rng.uniform(0.0, 100.0):.2f}"}))
        self.messages = messages
        # the read script: a 1 s window somewhere in the span ingested so
        # far; odd queries also name a host and an event
        self.queries = []
        step = self.APPENDS_PER_QUERY
        for index in range(self.n_events // step):
            newest = 10.0 + ((index + 1) * step - 1) / self.RATE
            t0 = rng.uniform(10.0 - self.LATE_MAX, max(10.0, newest - 1.0))
            if index % 2:
                self.queries.append(ArchiveQuery(
                    t0=t0, t1=t0 + 1.0, host=rng.choice(hosts),
                    event=rng.choice(self.EVENTS)))
            else:
                self.queries.append(ArchiveQuery(t0=t0, t1=t0 + 1.0))
        self.archive = EventArchive("mixed", segment_events=4096)

    def run(self, tracer: Optional[Tracer] = None) -> Outcome:
        archive, messages = self.archive, self.messages
        append, query = archive.append, archive.query
        step = self.APPENDS_PER_QUERY
        span_end = 10.0 + self.n_events / self.RATE + 1.0
        row_counts: list[int] = []
        checked_queries: list[tuple] = []   # (query index, rows)
        checked_summaries: list[tuple] = []  # (query index, rollup)
        admitted = 0
        if tracer is not None:
            tracer.begin_run()
        try:
            t_start = time.perf_counter()
            for index, q in enumerate(self.queries):
                for msg in messages[index * step:(index + 1) * step]:
                    admitted += append(msg)
                rows = query(q)
                row_counts.append(len(rows))
                if index % self.CHECK_EVERY == 0:
                    checked_queries.append((index, rows))
                if index % self.QUERIES_PER_SUMMARY == self.QUERIES_PER_SUMMARY - 1:
                    rollup = archive.summarize_window(0.0, span_end)
                    if (index // self.QUERIES_PER_SUMMARY) % self.CHECK_EVERY == 0:
                        checked_summaries.append((index, rollup))
            wall = time.perf_counter() - t_start
        finally:
            if tracer is not None:
                tracer.end_run()

        appended = len(self.queries) * step
        n_summaries = len(self.queries) // self.QUERIES_PER_SUMMARY
        failed = (appended - admitted) + self._check(
            checked_queries, checked_summaries)
        stats = archive.stats()
        accounted = (stats["count"] + stats["shed"] + stats["events_retired"]
                     + stats["events_downsampled"] + stats["quarantined_events"])
        failed += stats["ingested"] != accounted
        h = hashlib.sha256(repr(row_counts).encode())
        for _, rows in checked_queries:
            h.update(repr([(m.date, m.host, m.event) for m in rows]).encode())
        h.update(repr((stats["count"], stats["reordered"],
                       stats["sealed"])).encode())
        return Outcome(
            run_wall_s=wall, events=admitted,
            attempted=appended + len(self.queries) + n_summaries,
            failed=failed, digest=h.hexdigest(),
            facts={"archive": stats, "events_in": admitted,
                   "rows_returned": sum(row_counts)})

    def _check(self, checked_queries: list, checked_summaries: list) -> int:
        """Replay the arrivals into a flat sorted list and running totals
        and compare every sampled read with what they say."""
        step = self.APPENDS_PER_QUERY
        flat: list[tuple] = []          # (date, arrival id, message)
        totals: dict[str, list] = {}    # event -> [n, sum, n_values, min, max]
        due = sorted([(i, "q", r) for i, r in checked_queries]
                     + [(i, "s", r) for i, r in checked_summaries],
                     key=lambda item: (item[0], item[1]))
        wrong = 0
        position = 0
        for index, kind, result in due:
            upto = (index + 1) * step
            for arrival in range(position, upto):
                msg = self.messages[arrival]
                insort(flat, (msg.date, arrival, msg))
                value = float(msg.fields["VALUE"])
                row = totals.get(msg.event)
                if row is None:
                    totals[msg.event] = [1, value, 1, value, value]
                else:
                    row[0] += 1
                    row[1] += value
                    row[2] += 1
                    row[3] = min(row[3], value)
                    row[4] = max(row[4], value)
            position = max(position, upto)
            if kind == "q":
                q = self.queries[index]
                lo = bisect_left(flat, (q.t0,))
                hi = bisect_right(flat, (q.t1, math.inf))
                expected = [m for _, _, m in flat[lo:hi]
                            if (q.host is None or m.host == q.host)
                            and (q.event is None or m.event == q.event)]
                same = len(result) == len(expected) and \
                    all(a is b for a, b in zip(result, expected))
            else:
                same = set(result) == set(totals) and all(
                    got[0] == want[0] and got[2] == want[2]
                    and got[3] == want[3] and got[4] == want[4]
                    and math.isclose(got[1], want[1], rel_tol=1e-9)
                    for got, want in ((result[e], totals[e]) for e in totals))
            wrong += not same
        return wrong


WORKLOADS = {cls.name: cls for cls in
             (SteadyPipeline, WideFanout, FaultStorm, ArchiveMixed)}
