"""Deterministic fault injection for simulated Grids.

The paper's whole premise is monitoring a grid whose hosts, links, and
sensors fail; this module makes those failures first-class, scheduled
simulation inputs instead of ad-hoc test pokes.  A :class:`FaultPlan`
is an ordered list of :class:`FaultEvent` records — host crash/restart,
process kill, network partition/heal, per-link loss and latency spikes,
clock skew — that a :class:`FaultInjector` turns into kernel-scheduled
callbacks against a :class:`~repro.simgrid.world.GridWorld`.

Every kind is one :class:`FaultKind` row of :data:`FAULT_TABLE`: its
target type, its params schema, the function that applies it, and the
seeded draw :meth:`FaultPlan.random` makes for it.  Validation,
dispatch and the random kind list are all read off that table, so
adding a kind is adding a row (plus the :class:`FaultPlan` builder that
spells its params).

Design constraints:

* **Reproducible.**  Plans are plain data; :meth:`FaultPlan.random`
  derives a plan purely from ``(seed, n_steps, horizon)`` and the
  world's *names* (hosts/links sorted by name), never from object
  identity or iteration order, so any scenario replays bit-identically
  from its seed.  Plans round-trip through JSON
  (:meth:`FaultPlan.to_json` / :meth:`FaultPlan.from_json`) so failing
  schedules can be dumped into a corpus and replayed as regression
  tests.
* **Kernel-driven.**  Application of every event goes through
  ``Simulator.call_at``, so faults interleave with ordinary events
  under the kernel's deterministic same-time FIFO tie-break.
* **Model-level.**  A "host crash" flips :attr:`Host.up` and notifies
  the host's registered services (``on_host_down``/``on_host_up``
  hooks); the transport refuses traffic to/from down hosts.  Nothing
  reaches into private service state — self-healing layers react to
  the same observable signals real ones would.
* **Reversible in one place.**  A fault that leaves state behind files
  an undo in the injector's single ledger (:attr:`FaultInjector.active`,
  keyed ``(kind, target)``); restore events drop one entry and
  :meth:`FaultInjector.heal_all` runs them all.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import partial
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional

from .traffic import TRAFFIC_KINDS

__all__ = ["FaultEvent", "FaultPlan", "FaultInjector", "FaultError",
           "FaultKind", "Param", "FAULT_KINDS", "FAULT_TABLE"]


class FaultError(RuntimeError):
    """A fault event references an unknown target or bad parameters."""


#: :attr:`Param.default` of a param every event of the kind must carry
REQUIRED = object()


def _positive(coerce: Callable) -> Callable:
    def positive(value: Any) -> Any:
        value = coerce(value)
        if value <= 0:
            raise ValueError("must be positive")
        return value
    return positive


def _probability(value: Any) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError("not in [0, 1]")
    return value


@dataclass(frozen=True)
class Param:
    """One entry of a kind's params schema: how a value is coerced
    (``ValueError``/``TypeError`` from ``coerce`` rejects the plan), what
    an absent value means, and the values allowed when it is an enum."""

    coerce: Callable[[Any], Any]
    default: Any = REQUIRED
    allowed: tuple = ()


@dataclass(frozen=True)
class FaultKind:
    """Everything the module knows about one fault kind.

    ``target`` keys :data:`_TARGETS` (what ``FaultEvent.target`` must
    name); ``apply(injector, event, resolved_target, params)`` performs
    the fault.  ``draw(state, at)`` adds the kind's seeded fault *and*
    its recovery to a random plan — an event of kind ``recovery``; where
    that is the kind itself, the recovery is its *restore form*, the
    event whose first param is absent.  The draw is in the pick list
    when ``gate``, a :meth:`FaultPlan.random` argument, names at least
    ``gate_min`` targets (always, when ``gate`` is empty).
    """

    name: str
    target: str
    apply: Callable[["FaultInjector", "FaultEvent", Any, dict], None]
    params: dict = field(default_factory=dict)
    optional_target: bool = False
    recovery: str = ""
    gate: str = ""
    gate_min: int = 1
    draw: Optional[Callable[["_Draw", float], None]] = None

    def bind(self, given: dict) -> dict:
        """``given`` checked against the schema: coerced values, absent
        (or JSON ``null``) ones defaulted."""
        unknown = sorted(set(given) - set(self.params))
        if unknown:
            raise FaultError(f"{self.name} takes no param {unknown[0]!r}")
        bound = {}
        for name, spec in self.params.items():
            value = given.get(name)
            if value is None:
                if spec.default is REQUIRED:
                    raise FaultError(f"{self.name} needs param {name!r}")
                bound[name] = spec.default
                continue
            try:
                value = spec.coerce(value)
            except (TypeError, ValueError) as exc:
                raise FaultError(
                    f"{self.name} param {name}={value!r}: {exc}") from exc
            if spec.allowed and value not in spec.allowed:
                raise FaultError(f"{self.name} param {name}={value!r} is "
                                 f"not one of {spec.allowed}")
            bound[name] = value
        return bound


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``target`` names a host, a link, or (for ``partition``) the ``|``
    separated two node-name groups; ``params`` carries kind-specific
    knobs (loss rate, latency factor, clock offset/drift, ...).
    """

    at: float
    kind: str
    target: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_TABLE:
            raise FaultError(f"unknown fault kind {self.kind!r}")
        if self.at < 0:
            raise FaultError(f"fault scheduled before t=0: {self.at}")

    def to_dict(self) -> dict:
        out = {"at": self.at, "kind": self.kind}
        if self.target:
            out["target"] = self.target
        if self.params:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        return cls(at=float(data["at"]), kind=data["kind"],
                   target=data.get("target", ""),
                   params=dict(data.get("params", {})))


class FaultPlan:
    """An ordered, reproducible schedule of fault events.

    Build one fluently::

        plan = (FaultPlan(seed=7)
                .crash_host(10.0, "gw.lbl.gov")
                .restart_host(25.0, "gw.lbl.gov")
                .partition(40.0, ["siteA"], ["siteB"])
                .heal(55.0))

    or generate a random-but-deterministic one with
    :meth:`FaultPlan.random`.  ``seed`` is carried for provenance (test
    failure repro lines print it); it does not affect a hand-built
    plan.  Builders only spell events; params are checked against the
    kind's schema when the plan is armed, the same as for a plan read
    from JSON.
    """

    def __init__(self, events: Iterable[FaultEvent] = (), *, seed: int = 0):
        self.seed = int(seed)
        self.events: list[FaultEvent] = sorted(events, key=lambda e: e.at)

    # -- construction -------------------------------------------------------

    def add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        self.events.sort(key=lambda e: e.at)
        return self

    def _event(self, at: float, kind: str, target: str = "", /,
               **params: Any) -> "FaultPlan":
        return self.add(FaultEvent(at, kind, target, params))

    def crash_host(self, at: float, host: str) -> "FaultPlan":
        return self._event(at, "host_crash", host)

    def restart_host(self, at: float, host: str) -> "FaultPlan":
        return self._event(at, "host_restart", host)

    def kill_process(self, at: float, host: str, *,
                     sensor: str = "") -> "FaultPlan":
        """Kill one sensor's sampling process on ``host`` (the sensor
        object survives — exactly the wedge a supervisor must detect)."""
        return self._event(at, "process_kill", host, sensor=sensor)

    def partition(self, at: float, group_a: Iterable[str],
                  group_b: Iterable[str]) -> "FaultPlan":
        """Cut every link crossing between the two node-name groups."""
        target = ",".join(sorted(group_a)) + "|" + ",".join(sorted(group_b))
        return self._event(at, "partition", target)

    def heal(self, at: float) -> "FaultPlan":
        """Undo every fault the injector still holds (see
        :meth:`FaultInjector.heal_all`)."""
        return self._event(at, "heal")

    def link_down(self, at: float, link: str) -> "FaultPlan":
        return self._event(at, "link_down", link)

    def link_up(self, at: float, link: str) -> "FaultPlan":
        return self._event(at, "link_up", link)

    def link_loss(self, at: float, link: str, loss_rate: float, *,
                  toward: str = "") -> "FaultPlan":
        """Set a link's random-loss rate (1.0 = true blackhole).  With
        ``toward`` (an endpoint node name) only that direction loses
        packets — the building block of asymmetric partitions."""
        extra = {"toward": toward} if toward else {}
        return self._event(at, "link_loss", link, loss_rate=loss_rate,
                           **extra)

    def link_latency(self, at: float, link: str, factor: float) -> "FaultPlan":
        """Scale a link's propagation latency (a congestion spike)."""
        return self._event(at, "link_latency", link, factor=factor)

    def skew_clock(self, at: float, host: str, *, offset: float = 0.0,
                   drift: float = 0.0) -> "FaultPlan":
        return self._event(at, "clock_skew", host, offset=offset, drift=drift)

    # -- gray faults ---------------------------------------------------------

    def degrade_sensor(self, at: float, host: str, *, sensor: str = "",
                       mode: str = "corrupt", rate: float = 1.0,
                       seed: int = 0) -> "FaultPlan":
        """Make a sensor on ``host`` lossy-but-alive: its loop keeps
        running and heartbeating, but each sample is degraded with
        probability ``rate`` — ``corrupt`` garbles the fields,
        ``partial`` silently swallows the sample, ``stale`` freezes the
        timestamp.  Cured by a sensor restart (supervision) or
        :meth:`restore_sensor`/:meth:`heal`."""
        return self._event(at, "sensor_degrade", host, sensor=sensor,
                           mode=mode, rate=rate, seed=seed)

    def restore_sensor(self, at: float, host: str, *,
                       sensor: str = "") -> "FaultPlan":
        """Clear a sensor degradation (params carry no ``mode``)."""
        return self._event(at, "sensor_degrade", host, sensor=sensor)

    def asymmetric_partition(self, at: float, group_a: Iterable[str],
                             group_b: Iterable[str]) -> "FaultPlan":
        """Blackhole A->B traffic while B->A stays clean.  Links stay
        *up* (routing unchanged, no ``on_fail`` at senders) — the gray
        twin of :meth:`partition`.  Recovered by :meth:`heal`."""
        target = ",".join(sorted(group_a)) + "|" + ",".join(sorted(group_b))
        return self._event(at, "asymmetric_partition", target)

    def slow_consumer(self, at: float, host: str,
                      rate: float) -> "FaultPlan":
        """Throttle the drain rate (events/s) of every gateway
        subscription delivering to ``host`` — the classic slow-consumer
        overload that backpressure must absorb."""
        return self._event(at, "slow_consumer", host, rate=rate)

    def restore_consumer(self, at: float, host: str) -> "FaultPlan":
        """Lift a consumer drain-rate throttle (``rate`` is JSON null)."""
        return self._event(at, "slow_consumer", host, rate=None)

    def disk_full(self, at: float, archive: str,
                  budget_bytes: int) -> "FaultPlan":
        """Cap a registered :class:`EventArchive`'s byte budget: the
        archive sheds oldest records to fit, then serves reads in a
        read-only ``degraded`` mode until the budget is lifted."""
        return self._event(at, "disk_full", archive,
                           budget_bytes=budget_bytes)

    def restore_disk(self, at: float, archive: str) -> "FaultPlan":
        """Lift an archive byte budget (params carry no budget)."""
        return self._event(at, "disk_full", archive)

    # -- storage faults (segmented archives) ----------------------------------

    def stall_compaction(self, at: float, archive: str, *,
                         mode: str = "wedge") -> "FaultPlan":
        """Wedge an archive's compactor.  ``mode="wedge"`` pins the
        stall — ingest continues, retention pressure eventually forces
        ``compaction_backlog`` degraded mode, and supervision restarts
        the (still-wedged) worker until :meth:`restore_compaction`;
        ``mode="kill"`` kills the worker process once, so supervision
        alone recovers it (no restore event needed)."""
        return self._event(at, "compaction_stall", archive, mode=mode)

    def restore_compaction(self, at: float, archive: str) -> "FaultPlan":
        """Clear a compaction stall (params carry no ``mode``)."""
        return self._event(at, "compaction_stall", archive)

    def tear_segment(self, at: float, archive: str, *,
                     index: int = 0) -> "FaultPlan":
        """Corrupt one sealed segment (torn write / media error).  The
        next query touching it quarantines it — the rest of the archive
        keeps serving, and replay floors stall at the hole until
        :meth:`mend_segments` (or ``heal``) reinstates it."""
        return self._event(at, "torn_segment", archive, index=index)

    def mend_segments(self, at: float, archive: str) -> "FaultPlan":
        """Repair and reinstate every torn/quarantined segment."""
        return self._event(at, "torn_segment", archive)

    def slow_disk(self, at: float, archive: str,
                  factor: float) -> "FaultPlan":
        """Stretch an archive's seal/compaction latency by ``factor``
        (an I/O slowdown: compaction cadence, and the supervision beat
        tolerance with it, scale up)."""
        return self._event(at, "slow_disk", archive, factor=factor)

    def restore_disk_speed(self, at: float, archive: str) -> "FaultPlan":
        """Restore normal I/O latency (params carry no ``factor``)."""
        return self._event(at, "slow_disk", archive)

    # -- congestion (background cross-traffic) --------------------------------

    def congestion_storm(self, at: float, src: str, dst: str, *,
                         rate_bps: float, kind: str = "constant",
                         packet_bytes: int = 8192, on_s: float = 0.5,
                         off_s: float = 0.5, seed: int = 0) -> "FaultPlan":
        """Start seeded background traffic from ``src`` to ``dst``
        (:mod:`repro.simgrid.traffic`), congesting every shared link on
        the path: queue backlogs grow, monitoring/bulk traffic sees
        queuing delay, and overflow becomes drops AIMD reacts to.
        Stopped by :meth:`calm_traffic` (or ``heal``).  A second storm
        on the same ``src->dst`` pair replaces the first."""
        return self._event(at, "congestion_storm", f"{src}|{dst}",
                           rate_bps=rate_bps, kind=kind,
                           packet_bytes=packet_bytes, on_s=on_s,
                           off_s=off_s, seed=seed)

    def calm_traffic(self, at: float, src: str = "",
                     dst: str = "") -> "FaultPlan":
        """Stop injector-started background traffic — the ``src->dst``
        storm when named, every storm when called with no names."""
        return self._event(at, "calm_traffic",
                           f"{src}|{dst}" if (src or dst) else "")

    # -- transient RPC faults -------------------------------------------------

    def flaky_rpc(self, at: float, host: str, *, rate: float = 0.3,
                  latency_s: float = 0.0, seed: int = 0) -> "FaultPlan":
        """Make RPCs *to* ``host`` transiently fail (probability
        ``rate`` per message, seeded) and/or arrive ``latency_s`` late
        — an overloaded or crash-looping service endpoint.  Unlike the
        silent gray-loss kinds, the failure is sender-visible (the
        ``on_fail`` callback fires), which makes it the retryable
        error class that amplifies into retry storms when callers
        have no budget.  Restored by :meth:`steady_rpc` (or ``heal``)."""
        return self._event(at, "flaky_rpc", host, rate=rate,
                           latency_s=latency_s, seed=seed)

    def steady_rpc(self, at: float, host: str = "") -> "FaultPlan":
        """Steady the named host's RPC endpoint again — or every flaky
        host when called with no name."""
        return self._event(at, "steady_rpc", host)

    # -- random generation ---------------------------------------------------

    @classmethod
    def random(cls, seed: int, *, hosts: Iterable[str],
               links: Iterable[str] = (), n_steps: int = 50,
               horizon: float = 60.0,
               protect: Iterable[str] = (),
               max_down_fraction: float = 0.67,
               consumers: Iterable[str] = (),
               archives: Iterable[str] = (),
               storms: Iterable[str] = (),
               flaky: Iterable[str] = ()) -> "FaultPlan":
        """A deterministic random schedule of ``n_steps`` events.

        The draw depends only on ``seed`` and the *sorted* host/link
        name lists, never from object identity.  ``protect`` names
        hosts that are never crashed (e.g. the consumer host whose
        records the invariants read).  Crashed hosts are always
        restarted within the horizon and partitions always heal, so
        every plan ends in a recoverable state; ``max_down_fraction``
        caps how many hosts may be down at once so the world never
        fully halts.

        Each step picks one row of :data:`FAULT_TABLE` that has a draw
        and whose gate is open, and lets it add its fault *and* the
        paired recovery.  Ungated rows draw from ``hosts``/``links``;
        ``consumers`` opens ``slow_consumer``; ``archives`` opens
        ``disk_full`` and the storage kinds; two or more ``storms``
        host names open ``congestion_storm`` between distinct pairs of
        them; ``flaky`` (RPC *server* hosts) opens ``flaky_rpc``.
        Because a closed gate keeps its rows out of the pick list,
        plans drawn without a gate replay bit-identically to plans
        from before its kinds existed.  (``sensor_degrade`` never draws
        stale mode — frozen timestamps are indistinguishable from
        ancient events to replay floors, so it stays a
        targeted-test-only mode.)
        """
        state = _Draw(cls(seed=seed), random.Random(seed), horizon,
                      {"hosts": hosts, "links": links,
                       "consumers": consumers, "archives": archives,
                       "storms": storms, "flaky": flaky},
                      protect, max_down_fraction)
        rows = [row for row in FAULT_TABLE.values() if row.draw is not None
                and (not row.gate
                     or len(state.names[row.gate]) >= row.gate_min)]
        for _ in range(max(0, int(n_steps))):
            at = round(state.rng.uniform(0.0, horizon * 0.8), 3)
            state.rng.choice(rows).draw(state, at)
        # every random plan converges: restart stragglers, heal, settle
        for host in state.down_spans:
            state.plan.restart_host(horizon * 0.96, host)
        return state.plan.heal(horizon * 0.96)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {"seed": self.seed,
                "events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls((FaultEvent.from_dict(e) for e in data.get("events", [])),
                   seed=int(data.get("seed", 0)))

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    # -- introspection -------------------------------------------------------

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def describe(self) -> str:
        """Human-readable schedule (printed by failing scenario tests)."""
        lines = [f"FaultPlan seed={self.seed} ({len(self.events)} events)"]
        for e in self.events:
            extra = f" {e.params}" if e.params else ""
            lines.append(f"  t={e.at:9.3f}  {e.kind:<12} {e.target}{extra}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultPlan seed={self.seed} events={len(self.events)}>"


# ---------------------------------------------------------------------------
# seeded draws (FaultPlan.random): each adds one fault and its recovery
# ---------------------------------------------------------------------------


class _Draw:
    """What one :meth:`FaultPlan.random` call threads through the rows'
    draws: the plan being built, the RNG, and the cross-step state."""

    def __init__(self, plan: FaultPlan, rng: random.Random, horizon: float,
                 names: dict, protect: Iterable[str],
                 max_down_fraction: float):
        self.plan = plan
        self.rng = rng
        self.horizon = horizon
        #: random() argument -> its names, sorted (the draw never sees
        #: the caller's iteration order)
        self.names = {arg: sorted(set(given))
                      for arg, given in names.items()}
        protected = set(protect)
        crashable = [h for h in self.names["hosts"] if h not in protected]
        self.names["crashable"] = crashable
        self.names["unprotected"] = crashable or self.names["hosts"]
        self.max_down = max(1, int(len(crashable) * max_down_fraction))
        #: host -> [(crash_at, restart_at)] — a host may crash many
        #: times per plan, just never with overlapping down intervals
        self.down_spans: dict[str, list[tuple[float, float]]] = {}
        self.partitioned_until = -1.0

    def recover_at(self, at: float, soonest: float = 2.0) -> float:
        return min(at + round(self.rng.uniform(soonest, self.horizon * 0.2),
                              3),
                   self.horizon * 0.95)


def _draws(pool: str, fault: Callable, recover: Optional[Callable] = None):
    """The usual draw: pick a target from ``pool``, add ``fault(d, at,
    target)``, then — so no row can forget it — ``recover(plan, when,
    target)`` at a seeded moment inside the horizon."""
    def draw(d: _Draw, at: float) -> None:
        if not d.names[pool]:
            return
        target = d.rng.choice(d.names[pool])
        fault(d, at, target)
        if recover is not None:
            recover(d.plan, d.recover_at(at), target)
    return draw


def _crash_and_restart(d: _Draw, at: float, host: str) -> None:
    down = round(d.rng.uniform(1.0, d.horizon * 0.15), 3)
    restart_at = min(at + down, d.horizon * 0.95)
    spans = d.down_spans.setdefault(host, [])
    if any(lo <= restart_at and at <= hi for lo, hi in spans):
        return  # overlaps one of this host's down windows
    if sum(1 for other in d.down_spans.values()
           for lo, hi in other if lo <= at < hi) >= d.max_down:
        return  # too many hosts down at once
    d.plan.crash_host(at, host)
    d.plan.restart_host(restart_at, host)
    spans.append((at, restart_at))


def _draw_partition(gray: bool, d: _Draw, at: float) -> None:
    names = d.names["hosts"]
    if len(names) < 2 or at <= d.partitioned_until:
        return
    cut = d.rng.randint(1, len(names) - 1)
    heal_at = d.recover_at(at, 2.0 if gray else 1.0)
    split = d.plan.asymmetric_partition if gray else d.plan.partition
    split(at, names[:cut], names[cut:])
    d.plan.heal(heal_at)
    d.partitioned_until = heal_at


def _draw_congestion_storm(d: _Draw, at: float) -> None:
    src = d.rng.choice(d.names["storms"])
    dst = d.rng.choice([h for h in d.names["storms"] if h != src])
    d.plan.congestion_storm(at, src, dst,
                            kind=d.rng.choice(["constant", "onoff"]),
                            rate_bps=round(d.rng.uniform(100e6, 900e6), 0),
                            seed=d.rng.randrange(2**31))
    d.plan.calm_traffic(d.recover_at(at), src, dst)


# ---------------------------------------------------------------------------
# target resolution (FaultKind.target): event -> what apply() works on
# ---------------------------------------------------------------------------


def _host(inj: "FaultInjector", name: str) -> Any:
    host = inj.world.hosts.get(name)
    if host is None:
        raise FaultError(f"fault targets unknown host {name!r}")
    return host


def _link(inj: "FaultInjector", event: FaultEvent) -> Any:
    network = inj.world.network
    link = next((l for l in network.links() if l.name == event.target), None)
    if link is None:
        raise FaultError(f"fault targets unknown link {event.target!r}")
    toward = event.params.get("toward")
    if toward and network.get(toward) not in (link.a, link.b):
        raise FaultError(f"'toward' {toward!r} is not an endpoint of "
                         f"link {event.target!r}")
    return link


def _archive(inj: "FaultInjector", event: FaultEvent) -> Any:
    archive = getattr(inj.world, "archives", {}).get(event.target)
    if archive is None:
        raise FaultError(f"fault targets unknown archive {event.target!r}")
    return archive


def _split(event: FaultEvent) -> tuple[str, str]:
    left, bar, right = event.target.partition("|")
    if not bar:
        raise FaultError(
            f"{event.kind} target needs 'a|b': {event.target!r}")
    return left, right


_TARGETS = {
    "host": lambda inj, event: _host(inj, event.target),
    "link": _link,
    "archive": _archive,
    # "a,b|c,d": two node-name groups, each name-sorted
    "groups": lambda inj, event: tuple(
        sorted(n for n in spec.split(",") if n) for spec in _split(event)),
    # "src|dst": two known hosts
    "pair": lambda inj, event: tuple(
        _host(inj, name).name for name in _split(event)),
    "none": lambda inj, event: None,
}


# ---------------------------------------------------------------------------
# apply functions (FaultKind.apply): (injector, event, target, params)
# ---------------------------------------------------------------------------


def _pick_sensor(host: Any, wanted: str) -> tuple[str, Any]:
    """The named sensor on ``host`` — its name-first one when the name
    is empty or unknown, ``("", None)`` when the host runs none."""
    manager = host.service("sensor-manager")
    if manager is None or not getattr(manager, "sensors", None):
        return "", None
    name = wanted if wanted in manager.sensors else sorted(manager.sensors)[0]
    return name, manager.sensors[name]


def _process_kill(inj, event, host, p) -> None:
    """Kill a sensor's sampling process without touching the sensor
    object — the supervisor's heartbeat check must notice."""
    proc = getattr(_pick_sensor(host, p["sensor"])[1], "_proc", None)
    if proc is not None and proc.alive:
        proc.kill()


def _raise_link(inj, link) -> None:
    if not link.up:
        inj.world.network.set_link_state(link, True)


def _cut(inj, link) -> None:
    """One ``link_down``: partitions are filed as the cuts they make."""
    if link.up:
        inj.world.network.set_link_state(link, False)
        inj.hold("link_down", link.name, partial(_raise_link, inj, link))


def _link_up(inj, event, link, p) -> None:
    for kind in ("link_down", "link_loss", "link_latency"):
        inj.release(kind, link.name)
    _raise_link(inj, link)


def _cross_routes(network, group_a, group_b) -> Iterator[Any]:
    """Every surviving a->b route, pairs taken in name order so the
    links a partition picks are deterministic."""
    for a in group_a:
        if network.get(a) is None:
            continue
        for b in group_b:
            if network.get(b) is None:
                continue
            try:
                yield network.route(a, b)
            except Exception:
                continue


def _pick_link(path, group_a, group_b) -> Any:
    """The link of ``path`` a partition acts on: an *infrastructure*
    link (neither endpoint in either group — switch/router trunks) so
    intra-group connectivity survives where the topology allows, else
    (two hosts on one switch) the B-side access link."""
    members = set(group_a) | set(group_b)
    infra = [l for l in path.links
             if l.a.name not in members and l.b.name not in members]
    return infra[len(infra) // 2] if infra else path.links[-1]


def _partition(inj, event, groups, p) -> None:
    """Cut links until no group-A node can route to any group-B node:
    each pass finds a surviving cross-group route and cuts one link."""
    while True:
        path = next(_cross_routes(inj.world.network, *groups), None)
        if path is None:
            return
        _cut(inj, _pick_link(path, *groups))


def _dim(inj, link, rate: float, toward: Any = None) -> None:
    """One ``link_loss``; the undo held is the link's loss as first
    found, so stacked loss faults still restore the pristine rates."""
    inj.hold("link_loss", link.name,
             partial(link.restore_loss, link.loss_state()))
    link.set_loss(rate, toward=toward)


def _link_loss(inj, event, link, p) -> None:
    toward = inj.world.network.get(p["toward"]) if p["toward"] else None
    _dim(inj, link, min(1.0, max(0.0, p["loss_rate"])), toward)


def _link_latency(inj, event, link, p) -> None:
    undo = inj.hold(event.kind, link.name,
                    partial(setattr, link, "latency_s", link.latency_s))
    # the factor scales the latency the *held* undo restores (the
    # pristine one), not whatever an earlier spike left behind
    link.latency_s = undo.args[2] * max(0.0, p["factor"])


def _clock_skew(inj, event, host, p) -> None:
    if p["offset"]:
        host.clock.adjust(p["offset"])
    if p["drift"] is not None:
        host.clock.set_drift(p["drift"])


def _asymmetric_partition(inj, event, groups, p) -> None:
    """Blackhole every A->B route while leaving B->A (and routing)
    intact: one link per cross route — picked like :func:`_partition`
    picks its cut — gets directional loss 1.0 toward the B side.  The
    links stay up, so senders keep getting "successful" sends."""
    for path in _cross_routes(inj.world.network, *groups):
        if not path.links or path.loss_rate >= 1.0:
            continue  # same node, or already black this way
        chosen = _pick_link(path, *groups)
        _dim(inj, chosen, 1.0, path.nodes[path.links.index(chosen) + 1])


def _sensor_degrade(inj, event, host, p) -> None:
    """The sensor object keeps running and heartbeating — only
    sample-quality supervision can tell."""
    name, sensor = _pick_sensor(host, p["sensor"])
    if sensor is None:
        return
    if p["mode"] is not None:
        sensor.set_degraded(p["mode"], rate=p["rate"], seed=p["seed"])
    inj.settle(event.kind, f"{host.name}/{name}", sensor.clear_degraded,
               restore=p["mode"] is None)


def _knob(setter: Callable) -> Callable:
    """apply for a kind that is one value set on its target:
    ``setter(injector, target, value)`` is the fault, and the same call
    with ``None`` is both its restore form and its undo."""
    def apply(inj, event, target, p) -> None:
        (value,) = p.values()
        if value is not None:
            setter(inj, target, value)
        inj.settle(event.kind, event.target,
                   partial(setter, inj, target, None), restore=value is None)
    return apply


def _throttle(inj, host, rate: Optional[float]) -> None:
    hosts = inj.world.hosts
    for name in sorted(hosts):
        gw = hosts[name].service("gateway")
        if gw is not None and hasattr(gw, "throttle_consumer"):
            gw.throttle_consumer(host.name, rate)


def _compaction_stall(inj, event, archive, p) -> None:
    if p["mode"] is not None:
        archive.stall_compaction(p["mode"])
    if p["mode"] != "kill":  # one-shot: supervision alone recovers it
        inj.settle(event.kind, event.target, archive.clear_compaction_stall,
                   restore=p["mode"] is None)


def _torn_segment(inj, event, archive, p) -> None:
    if p["index"] is None or archive.tear_segment(p["index"]):
        inj.settle(event.kind, event.target, archive.mend_segments,
                   restore=p["index"] is None)


def _congestion_storm(inj, event, pair, p) -> None:
    """Start (or replace) a background-traffic generator between the
    host pair; the world tracks it, the ledger knows how to stop it."""
    inj.release(event.kind, event.target)
    world = inj.world
    storm = world.start_traffic(dict(p, src=pair[0], dst=pair[1]))
    inj.hold(event.kind, event.target, partial(world.stop_traffic, storm))


def _flaky_rpc(inj, event, host, p) -> None:
    transport = inj.world.transport
    transport.set_flaky_host(host.name, **p)
    inj.hold(event.kind, host.name,
             partial(transport.clear_flaky_host, host.name))


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

#: kind name -> its row.  Order matters twice: it is the order
#: :meth:`FaultPlan.random` picks from (append new rows' draws last, so
#: old seeds keep their plans) and the order ``heal`` undoes kinds in.
FAULT_TABLE: Mapping[str, FaultKind] = MappingProxyType({r.name: r for r in (
    FaultKind("host_crash", "host", lambda inj, ev, host, p: host.crash(),
              recovery="host_restart",
              draw=_draws("crashable", _crash_and_restart)),
    FaultKind("host_restart", "host",
              lambda inj, ev, host, p: host.restart()),
    FaultKind("process_kill", "host", _process_kill,
              {"sensor": Param(str, "")},
              draw=_draws("hosts", lambda d, at, host:
                          d.plan.kill_process(at, host))),
    FaultKind("partition", "groups", _partition,
              recovery="heal", draw=partial(_draw_partition, False)),
    FaultKind("heal", "none", lambda inj, ev, target, p: inj.heal_all()),
    FaultKind("link_down", "link", lambda inj, ev, link, p: _cut(inj, link),
              recovery="link_up"),
    FaultKind("link_up", "link", _link_up),
    FaultKind("link_loss", "link", _link_loss,
              {"loss_rate": Param(float), "toward": Param(str, "")},
              recovery="heal",
              draw=_draws("links", lambda d, at, link: d.plan.link_loss(
                  at, link, round(d.rng.uniform(0.0, 0.2), 4)))),
    FaultKind("link_latency", "link", _link_latency,
              {"factor": Param(float)}, recovery="heal",
              draw=_draws("links", lambda d, at, link: d.plan.link_latency(
                  at, link, round(d.rng.uniform(0.5, 20.0), 3)))),
    FaultKind("clock_skew", "host", _clock_skew,
              {"offset": Param(float, 0.0), "drift": Param(float, None)},
              draw=_draws("hosts", lambda d, at, host: d.plan.skew_clock(
                  at, host, offset=round(d.rng.uniform(-0.5, 0.5), 6),
                  drift=round(d.rng.uniform(-1e-4, 1e-4), 9)))),
    # gray failures: the component stays "up" but misbehaves
    FaultKind("sensor_degrade", "host", _sensor_degrade,
              {"mode": Param(str, None, ("corrupt", "partial", "stale")),
               "sensor": Param(str, ""),
               "rate": Param(float, 1.0), "seed": Param(int, 0)},
              recovery="sensor_degrade",
              draw=_draws("unprotected",
                          lambda d, at, host: d.plan.degrade_sensor(
                              at, host,
                              mode=d.rng.choice(["corrupt", "partial"]),
                              rate=round(d.rng.uniform(0.5, 1.0), 3),
                              seed=d.rng.randrange(2**31)),
                          FaultPlan.restore_sensor)),
    FaultKind("asymmetric_partition", "groups", _asymmetric_partition,
              recovery="heal", draw=partial(_draw_partition, True)),
    FaultKind("slow_consumer", "host", _knob(_throttle),
              {"rate": Param(_positive(float), None)},
              recovery="slow_consumer", gate="consumers",
              draw=_draws("consumers",
                          lambda d, at, host: d.plan.slow_consumer(
                              at, host, rate=round(d.rng.uniform(1.0, 10.0),
                                                   3)),
                          FaultPlan.restore_consumer)),
    FaultKind("disk_full", "archive",
              _knob(lambda inj, archive, v: archive.set_byte_budget(v)),
              {"budget_bytes": Param(_positive(int), None)},
              recovery="disk_full", gate="archives",
              draw=_draws("archives",
                          lambda d, at, archive: d.plan.disk_full(
                              at, archive,
                              budget_bytes=d.rng.randrange(8_000, 64_000)),
                          FaultPlan.restore_disk)),
    # storage faults against segmented archives
    FaultKind("compaction_stall", "archive", _compaction_stall,
              {"mode": Param(str, None, ("wedge", "kill"))},
              recovery="compaction_stall", gate="archives",
              draw=_draws("archives",
                          lambda d, at, archive: d.plan.stall_compaction(
                              at, archive, mode="wedge"),
                          FaultPlan.restore_compaction)),
    FaultKind("torn_segment", "archive", _torn_segment,
              {"index": Param(int, None)},
              recovery="torn_segment", gate="archives",
              draw=_draws("archives",
                          lambda d, at, archive: d.plan.tear_segment(
                              at, archive, index=d.rng.randrange(0, 8)),
                          FaultPlan.mend_segments)),
    FaultKind("slow_disk", "archive",
              _knob(lambda inj, archive, v: archive.set_io_latency(v)),
              {"factor": Param(_positive(float), None)},
              recovery="slow_disk", gate="archives",
              draw=_draws("archives",
                          lambda d, at, archive: d.plan.slow_disk(
                              at, archive,
                              round(d.rng.uniform(2.0, 20.0), 3)),
                          FaultPlan.restore_disk_speed)),
    # background cross-traffic (shared-link congestion)
    FaultKind("congestion_storm", "pair", _congestion_storm,
              {"rate_bps": Param(_positive(float)),
               "kind": Param(str, "constant", TRAFFIC_KINDS),
               "packet_bytes": Param(_positive(int), 8192),
               "on_s": Param(_positive(float), 0.5),
               "off_s": Param(float, 0.5), "seed": Param(int, 0)},
              recovery="calm_traffic", gate="storms", gate_min=2,
              draw=_draw_congestion_storm),
    FaultKind("calm_traffic", "pair", lambda inj, ev, pair, p:
              inj.release("congestion_storm", ev.target),
              optional_target=True),
    # transient RPC faults at the transport boundary
    FaultKind("flaky_rpc", "host", _flaky_rpc,
              {"rate": Param(_probability, 0.3),
               "latency_s": Param(float, 0.0), "seed": Param(int, 0)},
              recovery="steady_rpc", gate="flaky",
              draw=_draws("flaky",
                          lambda d, at, host: d.plan.flaky_rpc(
                              at, host,
                              rate=round(d.rng.uniform(0.2, 0.8), 3),
                              latency_s=round(d.rng.uniform(0.0, 0.5), 3),
                              seed=d.rng.randrange(2**31)),
                          FaultPlan.steady_rpc)),
    FaultKind("steady_rpc", "host", lambda inj, ev, host, p:
              inj.release("flaky_rpc", ev.target),
              optional_target=True),
)})

#: every fault kind the injector knows how to apply
FAULT_KINDS = tuple(FAULT_TABLE)


class FaultInjector:
    """Schedules a :class:`FaultPlan` against a GridWorld.

    The injector owns the one piece of bookkeeping that makes a plan
    reversible: :attr:`active`, the ledger of undo callables for every
    fault still in force.  Faults with unknown targets or params that
    do not fit their kind's schema raise :class:`FaultError` at
    :meth:`arm` time — a plan must be entirely valid before any of it
    runs, wherever it came from.
    """

    def __init__(self, world: Any, plan: FaultPlan):
        self.world = world
        self.plan = plan
        self.applied: list[tuple[float, FaultEvent]] = []
        #: (kind, target name) -> undo, in the order the faults landed
        self.active: dict[tuple[str, str], Callable[[], None]] = {}
        self._armed = False

    # -- the ledger -------------------------------------------------------------

    def hold(self, kind: str, target: str,
             undo: Callable[[], None]) -> Callable[[], None]:
        """File ``undo`` for a fault now in force and return the undo
        held.  A fault already active keeps its first undo — that is
        the one that restores the pristine state."""
        return self.active.setdefault((kind, target), undo)

    def release(self, kind: str, target: str = "") -> None:
        """Run and drop the undo of ``(kind, target)`` — of every
        active fault of ``kind`` when ``target`` is empty."""
        for key in [k for k in self.active
                    if k[0] == kind and target in ("", k[1])]:
            self.active.pop(key)()

    def settle(self, kind: str, target: str, undo: Callable[[], None], *,
               restore: bool) -> None:
        """The tail of a kind that has a restore form.  Fault form: hold
        ``undo``.  Restore form: drop the entry and run ``undo`` — even
        with nothing on the books, a restore event still makes the call
        (lifting a throttle that was never set re-arms the pump)."""
        if restore:
            self.active.pop((kind, target), None)
            undo()
        else:
            self.hold(kind, target, undo)

    def heal_all(self) -> None:
        """Undo every fault still in force — kinds in table order,
        targets in the order they were hit.  The one recovery entry
        point: ``heal`` events and scenario teardown both land here.
        (Crashed hosts are not the ledger's business: ``host_restart``
        is an event, not an undo.)"""
        for key in sorted(self.active,
                          key=lambda k: FAULT_KINDS.index(k[0])):
            self.active.pop(key)()

    # -- scheduling ------------------------------------------------------------

    def _check(self, event: FaultEvent) -> tuple[FaultKind, Any, dict]:
        """``event``'s row, resolved target and bound params, or
        :class:`FaultError`."""
        row = FAULT_TABLE[event.kind]
        target = None if row.optional_target and not event.target \
            else _TARGETS[row.target](self, event)
        return row, target, row.bind(event.params)

    def arm(self) -> "FaultInjector":
        """Validate the plan and schedule every event on the kernel."""
        if self._armed:
            raise FaultError("injector already armed")
        for event in self.plan:
            self._check(event)
        self._armed = True
        sim = self.world.sim
        for event in self.plan:
            when = max(event.at, sim.now)
            sim.call_at(when, self._apply, event)
        return self

    def _apply(self, event: FaultEvent) -> None:
        row, target, params = self._check(event)
        row.apply(self, event, target, params)
        self.applied.append((self.world.sim.now, event))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<FaultInjector plan={self.plan!r} "
                f"applied={len(self.applied)}>")
