"""The rule catalog: one class per proven bug class.

Every rule here targets a failure mode this codebase has actually
shipped and later hand-fixed (see ``docs/ANALYSIS.md`` for the PR
archaeology).  Rules are pure AST checks — no imports of the analyzed
code, no execution — so the analyzer can lint broken or dependency-
gated files.

A rule yields :class:`~repro.analysis.engine.Finding`-shaped tuples via
``check(ctx, project)``; the engine owns suppression (``# repro:
noqa[RULE]``), baselines, and reporting.

Scope notes
-----------
* DET/SIM rules treat every analyzed file as simulation code; the CLI
  is pointed at ``src/`` (scripts and tests are not part of the
  deterministic world and are not linted by default).
* SLOT001 applies only to *hot-path* modules: the built-in list in
  :data:`HOT_PATH_SUFFIXES` plus any file carrying a
  ``# repro: hot-path`` pragma (how fixtures and new hot modules
  opt in).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

__all__ = ["Rule", "RULES", "rule_catalog", "HOT_PATH_SUFFIXES"]


#: modules whose per-event allocations dominate the throughput benches
#: (see PERFORMANCE.md); SLOT001 requires ``__slots__`` here
HOT_PATH_SUFFIXES = (
    "repro/simgrid/kernel.py",
    "repro/simgrid/sockets.py",
    "repro/ulm/message.py",
    "repro/core/gateway.py",
    "repro/core/subscriptions.py",
)

#: wall-clock reads that leak host time into the simulated world.
#: (``time.perf_counter``/``time.monotonic`` are deliberately absent:
#: they are sanctioned for *measuring* a run — never for driving one.)
WALL_CLOCK_CALLS = (
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "ctime"),
    ("time", "localtime"),
    ("time", "gmtime"),
    ("time", "strftime"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
)

#: process-global entropy sources; per-world draws must come from
#: ``simgrid.randomness.RandomStreams``
GLOBAL_RANDOM_FUNCS = frozenset((
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "getrandbits", "seed",
))

#: modules whose import means real-OS concurrency / IO inside sim code
BLOCKING_MODULES = frozenset((
    "socket", "threading", "subprocess", "multiprocessing",
    "concurrent", "selectors", "asyncio",
))

#: containers (and factories) whose module-level binding is mutable
#: process-global state — the cross-world leak substrate
MUTABLE_FACTORIES = frozenset((
    "list", "dict", "set", "bytearray", "deque", "defaultdict",
    "Counter", "OrderedDict", "count",
))

#: resource-opening method names RES001 tracks, and the methods that
#: discharge the obligation
RESOURCE_OPENERS = frozenset(("open", "session"))
RESOURCE_CLOSERS = frozenset(("close", "stop", "shutdown", "unsubscribe",
                              "unsubscribe_all", "__exit__"))

#: EventArchive catalog internals RES002 fences off.  Sealed-segment
#: state is owned by the archive: compaction retires, merges, and
#: quarantines segments on any pass, so handles to these outside
#: ``repro/core/archive.py`` dangle as soon as the compactor runs.
SEGMENT_INTERNALS = frozenset((
    "_segments", "_seal_head", "_quarantined",
    "_seg_bytes", "_seg_tmins", "_rollup_tree", "_sealed_raw_count",
))

#: call wrappers whose result does not depend on iteration order — a
#: set flowing into these is safe
ORDER_INSENSITIVE_CALLS = frozenset((
    "sorted", "len", "min", "max", "any", "all", "set", "frozenset",
))


class Rule:
    """Base class: subclasses define ``code``/``title``/``rationale``
    and implement :meth:`check`."""

    code: str = ""
    title: str = ""
    rationale: str = ""

    def check(self, ctx: "FileContext",
              project: "ProjectIndex") -> Iterator[tuple[int, int, str]]:
        raise NotImplementedError

    @staticmethod
    def _walk(tree: ast.AST) -> Iterator[ast.AST]:
        return ast.walk(tree)


def _call_name(node: ast.Call) -> Optional[str]:
    """The bare function name of a call (``f(...)`` or ``m.f(...)``)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _attr_chain(node: ast.AST) -> tuple[str, ...]:
    """``a.b.c`` -> ("a", "b", "c"); empty tuple when not a pure chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return tuple(parts)
    return ()


# ---------------------------------------------------------------------------
# DET001 — wall clock in sim code
# ---------------------------------------------------------------------------


class WallClockRule(Rule):
    code = "DET001"
    title = "wall-clock read in simulation code"
    rationale = (
        "Virtual time comes from the kernel (`sim.now`, `host.timestamp()`);"
        " `time.time()`/`datetime.now()` make event contents depend on the"
        " machine running the test, breaking bit-reproducible digests."
    )

    def check(self, ctx, project):
        pairs = frozenset(WALL_CLOCK_CALLS)
        for node in self._walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if len(chain) < 2:
                # `from time import time` style: flag bare names that
                # the file imported from the time/datetime modules
                name = _call_name(node)
                if name and (("time", name) in pairs or
                             ("datetime", name) in pairs) \
                        and name in (ctx.from_import("time")
                                     | ctx.from_import("datetime")):
                    yield (node.lineno, node.col_offset,
                           f"wall-clock call {name}() — use sim.now / "
                           f"host.timestamp()")
                continue
            mod, attr = chain[-2], chain[-1]
            if (mod, attr) in pairs:
                yield (node.lineno, node.col_offset,
                       f"wall-clock call {mod}.{attr}() — use sim.now / "
                       f"host.timestamp()")


# ---------------------------------------------------------------------------
# DET002 — process-global randomness
# ---------------------------------------------------------------------------


class GlobalRandomRule(Rule):
    code = "DET002"
    title = "process-global randomness in simulation code"
    rationale = (
        "Draws from the module-level `random` state (or uuid4/os.urandom)"
        " depend on everything that ran earlier in the process; per-world"
        " streams come from `simgrid.randomness.RandomStreams`."
    )

    def check(self, ctx, project):
        random_aliases = ctx.module_aliases.get("random", frozenset())
        from_random = ctx.from_imports.get("random", frozenset())
        for node in self._walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if len(chain) == 2 and chain[0] in random_aliases:
                if chain[1] in GLOBAL_RANDOM_FUNCS:
                    yield (node.lineno, node.col_offset,
                           f"process-global random.{chain[1]}() — draw from"
                           f" a per-world RandomStreams stream")
                elif chain[1] == "Random" and not node.args \
                        and not node.keywords:
                    yield (node.lineno, node.col_offset,
                           "unseeded random.Random() — seed it from a "
                           "per-world stream name")
            elif isinstance(node.func, ast.Name) \
                    and node.func.id in GLOBAL_RANDOM_FUNCS \
                    and node.func.id in from_random:
                yield (node.lineno, node.col_offset,
                       f"process-global {node.func.id}() imported from "
                       f"random — draw from a per-world stream")
            elif chain[-2:] == ("uuid", "uuid4") or \
                    chain[-2:] == ("uuid", "uuid1") or \
                    chain[-2:] == ("os", "urandom"):
                yield (node.lineno, node.col_offset,
                       f"{'.'.join(chain[-2:])}() is process-global entropy"
                       " — derive ids from Simulator.serial / seeded streams")


# ---------------------------------------------------------------------------
# DET003 — unordered set iteration
# ---------------------------------------------------------------------------


class _SetTracker:
    """Per-function map of local names known to hold sets."""

    def __init__(self, project: "ProjectIndex"):
        self.project = project
        self.locals: set[str] = set()

    def is_set_valued(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in ("set", "frozenset"):
                return True
            return False
        if isinstance(node, ast.Name):
            return node.id in self.locals
        if isinstance(node, ast.Attribute):
            return node.attr in self.project.set_attrs
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return (self.is_set_valued(node.left)
                    or self.is_set_valued(node.right))
        return False


class UnorderedSetIterationRule(Rule):
    code = "DET003"
    title = "iteration over an unordered set"
    rationale = (
        "Set iteration order depends on PYTHONHASHSEED and object"
        " addresses; feeding it into scheduling, float accumulation, or"
        " digests makes runs machine-dependent.  Wrap in sorted(...) or"
        " use an insertion-ordered dict-as-set."
    )

    def check(self, ctx, project):
        # one tracker per function scope (simple: per module walk with
        # assignment tracking — locals are rarely shadowed across defs
        # in this codebase, and false negatives only cost coverage)
        tracker = _SetTracker(project)
        seen: set[tuple[int, int]] = set()
        for node in self._walk(ctx.tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                if tracker.is_set_valued(node.value):
                    tracker.locals.add(node.targets[0].id)
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name) \
                    and node.value is not None:
                if tracker.is_set_valued(node.value) \
                        or _annotation_is_set(node.annotation):
                    tracker.locals.add(node.target.id)
        for node in self._walk(ctx.tree):
            iter_node = None
            context = None
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_node, context = node.iter, "for-loop"
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                # only the outermost generator's source matters here;
                # inner ones are re-visited as their own nodes by walk
                iter_node, context = node.generators[0].iter, "comprehension"
            elif isinstance(node, ast.Call):
                name = _call_name(node)
                if name in ("sum", "list", "tuple") and node.args:
                    iter_node, context = node.args[0], f"{name}()"
            if iter_node is None:
                continue
            # see through list(...)/tuple(...) wrappers: they freeze the
            # unordered order, they don't fix it
            probe = iter_node
            while isinstance(probe, ast.Call) \
                    and _call_name(probe) in ("list", "tuple") and probe.args:
                probe = probe.args[0]
            if isinstance(probe, ast.Call) \
                    and _call_name(probe) in ORDER_INSENSITIVE_CALLS \
                    and _call_name(probe) not in ("set", "frozenset"):
                continue
            if context == "comprehension" and isinstance(
                    node, (ast.SetComp,)):
                continue  # set -> set keeps orderlessness explicit
            if tracker.is_set_valued(probe):
                # `for x in list(s)` reaches the same probe twice (as the
                # for-loop iterable and as the list() call) — report once
                where = (probe.lineno, probe.col_offset)
                if where in seen:
                    continue
                seen.add(where)
                desc = _describe(probe)
                yield (probe.lineno, probe.col_offset,
                       f"unordered iteration over set {desc} in {context} — "
                       f"sorted() it or keep an insertion-ordered dict")


def _annotation_is_set(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Name):
        return node.id in ("set", "frozenset", "Set", "FrozenSet", "MutableSet")
    if isinstance(node, ast.Subscript):
        return _annotation_is_set(node.value)
    if isinstance(node, ast.Attribute):
        return node.attr in ("Set", "FrozenSet", "MutableSet")
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.startswith(("set", "frozenset", "Set", "FrozenSet"))
    return False


def _describe(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse covers all our inputs
        return "<expr>"


# ---------------------------------------------------------------------------
# DET004 — id() in observable output
# ---------------------------------------------------------------------------


class IdInOutputRule(Rule):
    code = "DET004"
    title = "id() leaks process addresses"
    rationale = (
        "CPython id() is an address: unstable across runs and machines."
        " Anything persisted, digested, or used as a name must come from"
        " Simulator.serial or another per-world sequence."
    )

    def check(self, ctx, project):
        for node in self._walk(ctx.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "id":
                yield (node.lineno, node.col_offset,
                       "id() is an address, not an identity — use "
                       "Simulator.serial / per-world counters")


# ---------------------------------------------------------------------------
# DET005 — mutable module-level state
# ---------------------------------------------------------------------------


class ModuleStateRule(Rule):
    code = "DET005"
    title = "mutable module-level state"
    rationale = (
        "Module globals outlive worlds: counters and caches leak state"
        " across simulations (the PR 1/2 cross-world id-leak class)."
        " Hold mutable state on the world/simulator, or make it a"
        " value-keyed cache and justify with a noqa."
    )

    def check(self, ctx, project):
        for stmt in _module_level_statements(ctx.tree):
            target_name = None
            value = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                target_name, value = stmt.targets[0].id, stmt.value
            elif isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name) \
                    and stmt.value is not None:
                target_name, value = stmt.target.id, stmt.value
            if target_name is None or value is None:
                continue
            if target_name.startswith("__") and target_name.endswith("__"):
                continue  # __all__ and friends: convention-static
            if _is_constant_table(target_name, value):
                continue
            if _is_mutable_value(value):
                yield (stmt.lineno, stmt.col_offset,
                       f"module-level mutable state {target_name!r} — move"
                       f" it onto the world, or noqa with a justification")


def _module_level_statements(tree: ast.Module) -> Iterator[ast.stmt]:
    """Top-level statements, descending into module-level if/try bodies
    (version-gated globals are still globals)."""
    stack = list(tree.body)
    while stack:
        stmt = stack.pop(0)
        if isinstance(stmt, (ast.If, ast.Try)):
            for body in (getattr(stmt, "body", ()),
                         getattr(stmt, "orelse", ()),
                         getattr(stmt, "finalbody", ())):
                stack.extend(body)
            for handler in getattr(stmt, "handlers", ()):
                stack.extend(handler.body)
            continue
        yield stmt


def _is_constant_table(name: str, value: ast.AST) -> bool:
    """ALL-CAPS names bound to *populated* container literals are
    constant lookup tables by convention (``_OPS = {">": ...}``) — not
    world state.  Empty containers don't qualify: an empty module dict
    exists to be mutated (``_REGISTRY: dict = {}`` still reports)."""
    if name.lstrip("_") != name.lstrip("_").upper():
        return False
    if isinstance(value, (ast.Dict, ast.List, ast.Set)):
        return bool(getattr(value, "keys", None) or
                    getattr(value, "elts", None))
    return False


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _call_name(node)
        return name in MUTABLE_FACTORIES
    return False


# ---------------------------------------------------------------------------
# SIM001 — real blocking / OS concurrency inside the simulated world
# ---------------------------------------------------------------------------


class BlockingCallRule(Rule):
    code = "SIM001"
    title = "real blocking call or OS concurrency in sim code"
    rationale = (
        "time.sleep / sockets / threads run on the host, not in virtual"
        " time: they stall the single-threaded kernel and introduce real"
        " nondeterminism.  Use Timeout/EventFlag waits and the simulated"
        " transport."
    )

    def check(self, ctx, project):
        for node in self._walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in BLOCKING_MODULES:
                        yield (node.lineno, node.col_offset,
                               f"import of {root!r} in sim code — use the"
                               f" simulated kernel/transport instead")
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in BLOCKING_MODULES:
                    yield (node.lineno, node.col_offset,
                           f"import from {root!r} in sim code — use the"
                           f" simulated kernel/transport instead")
            elif isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if chain[-2:] == ("time", "sleep"):
                    yield (node.lineno, node.col_offset,
                           "time.sleep() blocks the real process — yield "
                           "Timeout(delay) inside a simgrid process")
                elif len(chain) == 1 and chain[0] == "sleep" \
                        and "sleep" in ctx.from_imports.get("time", ()):
                    yield (node.lineno, node.col_offset,
                           "time.sleep() blocks the real process — yield "
                           "Timeout(delay) inside a simgrid process")


# ---------------------------------------------------------------------------
# RES001 — resources opened without close / context manager
# ---------------------------------------------------------------------------


class ResourceLeakRule(Rule):
    code = "RES001"
    title = "resource opened without close or context manager"
    rationale = (
        "SubscriptionHandles and sessions hold gateway-side state; one"
        " opened and dropped keeps fan-out structures alive forever (the"
        " leak class the PR 4 reaper and PR 6 outbox-abandon counters"
        " exist to contain)."
    )

    def check(self, ctx, project):
        for func in (n for n in self._walk(ctx.tree)
                     if isinstance(n, (ast.FunctionDef,
                                       ast.AsyncFunctionDef))):
            yield from self._check_function(func)
        # discarded opens at module level
        yield from self._discarded(ctx.tree.body)

    def _discarded(self, body: Iterable[ast.stmt]):
        for stmt in body:
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                call = stmt.value
                if isinstance(call.func, ast.Attribute) \
                        and call.func.attr in RESOURCE_OPENERS:
                    yield (call.lineno, call.col_offset,
                           f".{call.func.attr}(...) result discarded — the"
                           f" handle can never be closed")

    def _check_function(self, func: ast.AST):
        opened: dict[str, ast.Call] = {}
        discharged: set[str] = set()

        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and isinstance(node.value, ast.Call) \
                    and isinstance(node.value.func, ast.Attribute) \
                    and node.value.func.attr in RESOURCE_OPENERS:
                opened[node.targets[0].id] = node.value
            elif isinstance(node, ast.Expr) \
                    and isinstance(node.value, ast.Call) \
                    and isinstance(node.value.func, ast.Attribute) \
                    and node.value.func.attr in RESOURCE_OPENERS \
                    and not isinstance(node.value.func.value, ast.Name):
                # e.g. `self.client.session(...)` discarded outright;
                # plain `name.open(...)` statements are covered when the
                # name was never bound — keep this narrow to avoid noise
                pass

        if not opened:
            return

        for node in ast.walk(func):
            # name escapes: returned, yielded, passed on, stored, aliased
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)) \
                    and node.value is not None:
                for name in _names_in(node.value):
                    discharged.add(name)
            elif isinstance(node, ast.Call):
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    for name in _names_in(arg):
                        discharged.add(name)
                # handle.close() / handle.stop() discharge
                if isinstance(node.func, ast.Attribute) \
                        and node.func.attr in RESOURCE_CLOSERS:
                    for name in _names_in(node.func.value):
                        discharged.add(name)
            elif isinstance(node, ast.Assign):
                stores_out = any(
                    not isinstance(t, ast.Name) for t in node.targets)
                if stores_out or isinstance(node.value, ast.Name):
                    for name in _names_in(node.value):
                        discharged.add(name)
            elif isinstance(node, ast.withitem):
                for name in _names_in(node.context_expr):
                    discharged.add(name)
            elif isinstance(node, (ast.List, ast.Tuple, ast.Dict, ast.Set)):
                for name in _names_in(node):
                    discharged.add(name)

        for name in sorted(opened):
            if name in discharged:
                continue
            call = opened[name]
            yield (call.lineno, call.col_offset,
                   f"{name!r} holds a .{call.func.attr}(...) resource that"
                   f" is never closed, stored, or returned — close it or"
                   f" use a with-block")


def _names_in(node: ast.AST) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id


# ---------------------------------------------------------------------------
# RES002 — sealed-segment handles escaping the archive catalog
# ---------------------------------------------------------------------------


class SegmentHandleEscapeRule(Rule):
    code = "RES002"
    title = "sealed-segment internals accessed outside the archive"
    rationale = (
        "Sealed segments are immutable storage units owned by"
        " EventArchive; compaction retires, merges, and quarantines"
        " them on any pass, so a _Segment handle (or the private"
        " catalog lists behind it) held outside repro/core/archive.py"
        " dangles the moment the compactor runs.  External code reads"
        " catalog() descriptor dicts, query()/summarize_window(),"
        " stats(), and the tear_segment()/mend_segments() fault hooks."
    )

    def check(self, ctx, project):
        if ctx.path_posix.endswith("repro/core/archive.py"):
            return
        for node in self._walk(ctx.tree):
            if isinstance(node, ast.Attribute) \
                    and node.attr in SEGMENT_INTERNALS:
                yield (node.lineno, node.col_offset,
                       f".{node.attr} is sealed-segment state private to"
                       f" the archive catalog — read catalog() descriptor"
                       f" dicts or stats() instead of holding segment"
                       f" handles")
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[-1] == "archive":
                for alias in node.names:
                    if alias.name == "_Segment":
                        yield (node.lineno, node.col_offset,
                               "_Segment is an archive-private storage"
                               " unit — consume catalog() descriptor"
                               " dicts; handles dangle across compaction"
                               " passes")


# ---------------------------------------------------------------------------
# RES003 — bare retry loops outside the resilience layer
# ---------------------------------------------------------------------------


class UnboundedRetryRule(Rule):
    code = "RES003"
    title = "bare retry loop outside the resilience layer"
    rationale = (
        "Hand-rolled sleep-and-retry is the raw material of retry"
        " storms (docs/FAULTS.md): every caller amplifies offered load"
        " exactly when the service is least able to absorb it, and the"
        " system goes metastable.  Retries belong to"
        " repro.core.resilience — ResiliencePolicy.drive() or the"
        " retry_ready/gate helpers — where attempts are bounded by a"
        " deadline, spend a token-bucket budget, and trip a circuit"
        " breaker.  Flagged shapes: a backoff sleep (yield Timeout /"
        " time.sleep) inside an except handler, and a ``while True``"
        " loop whose except handler just swallows the error and goes"
        " around again."
    )

    def check(self, ctx, project):
        if ctx.path_posix.endswith("repro/core/resilience.py"):
            return
        sleep_from_time = "sleep" in ctx.from_imports.get("time", ())
        for node in self._walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler):
                yield from self._backoff_in_handler(node, sleep_from_time)
            elif isinstance(node, ast.While) \
                    and isinstance(node.test, ast.Constant) \
                    and node.test.value is True:
                yield from self._swallow_and_spin(node)

    @classmethod
    def _backoff_in_handler(cls, handler: ast.ExceptHandler,
                            sleep_from_time: bool):
        """Backoff delay issued from an error path: the inline retry."""
        for node in ast.walk(handler):
            if isinstance(node, ast.Yield) \
                    and isinstance(node.value, ast.Call) \
                    and _call_name(node.value) == "Timeout":
                yield (node.value.lineno, node.value.col_offset,
                       "yield Timeout(...) inside an except handler is"
                       " hand-rolled backoff — drive the retry through"
                       " ResiliencePolicy (repro.core.resilience) so it"
                       " is bounded, budgeted, and breaker-gated")
            elif isinstance(node, ast.Call) \
                    and cls._is_sleep(node, sleep_from_time):
                yield (node.lineno, node.col_offset,
                       "time.sleep(...) inside an except handler is"
                       " hand-rolled backoff — drive the retry through"
                       " ResiliencePolicy (repro.core.resilience)")

    @staticmethod
    def _is_sleep(node: ast.Call, sleep_from_time: bool) -> bool:
        chain = _attr_chain(node.func)
        if chain[-2:] == ("time", "sleep"):
            return True
        return sleep_from_time and chain == ("sleep",)

    @classmethod
    def _swallow_and_spin(cls, loop: ast.While):
        """``while True`` whose except handler only swallows and loops:
        an unbounded retry with no exit condition.  Only trys at the
        loop's own level count — a ``continue`` inside a nested for/
        while targets that inner loop, not the retry loop."""
        for stmt in cls._loop_level(loop.body):
            if not isinstance(stmt, ast.Try):
                continue
            for handler in stmt.handlers:
                if cls._only_swallows(handler.body):
                    yield (handler.lineno, handler.col_offset,
                           "while True retry loop swallows the error and"
                           " goes around again — bound it with"
                           " ResiliencePolicy (max_attempts, retry"
                           " budget, breaker) from repro.core.resilience")

    @classmethod
    def _loop_level(cls, body: list) -> Iterator[ast.stmt]:
        """Statements whose ``continue`` would target the enclosing
        loop: recurse through if/with/try arms, stop at nested loops
        and function definitions."""
        for stmt in body:
            yield stmt
            if isinstance(stmt, ast.If):
                yield from cls._loop_level(stmt.body)
                yield from cls._loop_level(stmt.orelse)
            elif isinstance(stmt, ast.With):
                yield from cls._loop_level(stmt.body)
            elif isinstance(stmt, ast.Try):
                yield from cls._loop_level(stmt.body)
                yield from cls._loop_level(stmt.finalbody)

    @staticmethod
    def _only_swallows(body: list) -> bool:
        """True when the handler neither re-raises nor exits the loop
        and just goes around again: an explicit ``continue``, or a body
        of nothing but ``pass``.  Any Raise/Return/Break escapes."""
        saw_continue = False
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Raise, ast.Return, ast.Break)):
                    return False
                if isinstance(node, ast.Continue):
                    saw_continue = True
        if saw_continue:
            return True
        return all(isinstance(s, ast.Pass) for s in body)


# ---------------------------------------------------------------------------
# SLOT001 — hot-path classes must be slotted
# ---------------------------------------------------------------------------


class HotPathSlotsRule(Rule):
    code = "SLOT001"
    title = "hot-path class without __slots__"
    rationale = (
        "Per-event allocations dominate the throughput benches"
        " (PERFORMANCE.md); a __dict__ per kernel event or wire message"
        " costs ~3x memory and measurable time.  Classes in hot-path"
        " modules must declare __slots__ (or dataclass(slots=True));"
        " per-world singletons opt out with a noqa."
    )

    def check(self, ctx, project):
        hot = ctx.path_posix.endswith(HOT_PATH_SUFFIXES) \
            or ctx.has_pragma("hot-path")
        if not hot:
            return
        for node in self._walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if self._is_exceptionish(node) or self._is_enum(node):
                continue
            if self._has_slots(node):
                continue
            yield (node.lineno, node.col_offset,
                   f"class {node.name} in a hot-path module has no"
                   f" __slots__ — slot it (dataclass(slots=True) for"
                   f" dataclasses) or noqa a per-world singleton")

    @staticmethod
    def _is_exceptionish(node: ast.ClassDef) -> bool:
        for base in node.bases:
            chain = _attr_chain(base)
            if chain and (chain[-1].endswith(("Error", "Exception",
                                              "Warning", "Interrupt"))
                          or chain[-1] == "BaseException"):
                return True
        return False

    @staticmethod
    def _is_enum(node: ast.ClassDef) -> bool:
        """Enum members are class-level singletons, never per-event
        allocations — and Enum's metaclass manages storage itself."""
        for base in node.bases:
            chain = _attr_chain(base)
            if chain and chain[-1] in ("Enum", "IntEnum", "StrEnum",
                                       "Flag", "IntFlag", "EnumMeta"):
                return True
        return False

    @staticmethod
    def _has_slots(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in stmt.targets):
                return True
            if isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name) \
                    and stmt.target.id == "__slots__":
                return True
        for deco in node.decorator_list:
            if isinstance(deco, ast.Call) \
                    and _call_name(deco) == "dataclass":
                for kw in deco.keywords:
                    if kw.arg == "slots" and isinstance(kw.value, ast.Constant) \
                            and kw.value.value is True:
                        return True
        return False


#: the registry, in catalog order (a tuple: module state stays immutable)
RULES: tuple[Rule, ...] = (
    WallClockRule(),
    GlobalRandomRule(),
    UnorderedSetIterationRule(),
    IdInOutputRule(),
    ModuleStateRule(),
    BlockingCallRule(),
    ResourceLeakRule(),
    SegmentHandleEscapeRule(),
    UnboundedRetryRule(),
    HotPathSlotsRule(),
)


def rule_catalog() -> tuple[dict, ...]:
    """(code, title, rationale) dicts in catalog order — docs and the
    JSON report share this."""
    return tuple({"code": r.code, "title": r.title,
                  "rationale": r.rationale} for r in RULES)
