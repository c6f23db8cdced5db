"""Span tracer installed around the layer boundaries from outside ``src/``.

For the duration of one traced run every layer's entry points (listed
in :func:`_boundaries`) are replaced by wrappers that record a span —
``(name, start, end, parent)`` in four parallel arrays — and restored
afterwards.  A span's name is ``<layer>.<operation>``; a layer's *self
time* is its spans' durations minus the part their child spans cover,
so the shares of all layers plus the root's own self time
(``trace.unattributed_share``) sum to the run's wall time.

Spans that receive (or return) a :class:`~repro.ulm.ULMMessage` carry
its ``(HOST, SEQ)`` so the fragments of one sensor event join into a
lifeline; a span without one inherits its nearest tagged ancestor's,
and everything else is ``background``.

Methods are patched on their classes, so the tracer must be installed
*before* the world is built: ports and kernel timers hold bound methods
looked up at bind time.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter_ns
from typing import Any, Callable, Iterator, Optional

__all__ = ["Tracer", "percentile"]

ROOT = "run"
_RESULT = "result"


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def _boundaries() -> list[tuple[Any, str, str, Any]]:
    """``(owner, attribute, span name, where the ULMMessage is)`` for
    every wrapped callable.  The last item is a positional index (self
    counts), ``"result"``, or None."""
    from repro.client.facade import ClientSession, MonitoringClient
    from repro.core.archive import EventArchive
    from repro.core.consumers.base import Consumer
    from repro.core.directory.client import DirectoryClient
    from repro.core.directory.replication import DirectoryReplicator
    from repro.core.directory.server import Backend, DirectoryServer
    from repro.core.filters import EventFilter
    from repro.core.gateway import EventGateway
    from repro.core.manager import SensorManager
    from repro.core.resilience import ResiliencePolicy
    from repro.core.sensors.base import Sensor
    from repro.core.subscriptions import SubscriptionHandle
    from repro.simgrid.faults import FaultInjector
    from repro.simgrid.kernel import Simulator
    from repro.simgrid.network import Network
    from repro.simgrid.sockets import MessageTransport
    from repro.simgrid.traffic import TrafficGenerator

    rows: list[tuple[Any, str, str, Any]] = [
        (Simulator, "run", "kernel.run", None),
        (Sensor, "emit", "sensors.emit", _RESULT),
        (SensorManager, "check_sensors", "sensors.supervise", None),
        (MessageTransport, "send", "transport.send", None),
        (MessageTransport, "request", "transport.request", None),
        # the receive side has no public entry: the kernel calls this
        (MessageTransport, "_deliver_batch", "transport.deliver", None),
        (Network, "route", "network.route", None),
        (TrafficGenerator, "_send_one", "network.traffic_send", None),
        (EventGateway, "ingest", "gateway.ingest", 2),
        (EventGateway, "open", "gateway.open", None),
        (EventGateway, "unsubscribe", "gateway.unsubscribe", None),
        (EventGateway, "_handle_intake", "gateway.intake", None),
        (EventGateway, "_handle_request", "gateway.request", None),
        (EventGateway, "_pump_one", "gateway.pump", None),
        (EventArchive, "append", "archive.append", 1),
        (EventArchive, "query", "archive.query", None),
        (EventArchive, "summarize_window", "archive.summary", None),
        (EventArchive, "compact_once", "archive.compact", None),
        (Consumer, "_handle_delivery", "client.receive", None),
        (SubscriptionHandle, "_dispatch", "client.on_event", 1),
        (ClientSession, "heal_now", "client.heal", None),
        (ClientSession, "subscribe", "client.subscribe", None),
        (MonitoringClient, "sensors", "client.discover", None),
        (DirectoryReplicator, "ship", "directory.replicate", None),
        (DirectoryReplicator, "deliver", "directory.replicate", None),
        (DirectoryReplicator, "snapshot", "directory.replicate", None),
        (FaultInjector, "arm", "faults.arm", None),
        (FaultInjector, "_apply", "faults.apply", None),
    ]
    for method in ("search", "get", "add", "modify", "publish", "delete",
                   "search_remote", "search_resilient", "write_remote"):
        rows.append((DirectoryClient, method, f"directory.{method}", None))
    for method in ("add_now", "modify_now", "delete_now", "search_now"):
        rows.append((DirectoryServer, method, f"directory.{method}", None))
    for method in ("retry_ready", "gate_failure", "gate_success",
                   "rank_endpoints", "allow_attempt", "succeed", "fail"):
        rows.append((ResiliencePolicy, method, f"resilience.{method}", None))
    # overridden in subclasses, so each override is wrapped where defined
    for base, method, name, where in ((Sensor, "sample", "sensors.sample", None),
                                      (EventFilter, "accept", "filters.accept", 1),
                                      (Backend, "search", "directory.backend_search", None)):
        for cls in _subclasses(base):
            if method in vars(cls):
                rows.append((cls, method, name, where))
    return rows


#: span names whose falsy results are counted (``Tracer.rejections``)
_COUNT_REJECTIONS = frozenset({"filters.accept"})

#: module-level codec functions; callers bind them with ``from … import``
#: (some under an alias), so every ``repro`` namespace holding one is patched
_CODEC = (("serialize", "ulm.serialize", 0), ("parse", "ulm.parse", _RESULT),
          ("encode", "ulm.encode", 0), ("decode", "ulm.decode", _RESULT),
          ("to_xml", "ulm.to_xml", 0), ("from_xml", "ulm.from_xml", _RESULT))


class Tracer:
    def __init__(self, *, lifelines: bool = False) -> None:
        #: tag spans with their message's (HOST, SEQ) — only worth its
        #: cost (a third of the tracing overhead) when the trace is dumped
        self.lifelines = lifelines
        self.names: list[str] = [ROOT]
        self._name_ids: dict[str, int] = {ROOT: 0}
        self.span_name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        #: span index -> (HOST, SEQ), only for spans that saw a message
        self.lifeline: dict[int, tuple] = {}
        self._stack: list[int] = []
        self.recording = False
        #: runs begun so far (a generator outliving its run records nothing)
        self.runs = 0
        #: calls of a ``_COUNT_REJECTIONS`` boundary that returned falsy
        self.rejections = 0
        self._undo: list[tuple[Any, str, Any]] = []

    # -- installing ------------------------------------------------------------

    def install(self) -> "Tracer":
        import repro.ulm as ulm
        from repro.core.archive import EventArchive

        for owner, attr, name, where in _boundaries():
            self._patch(owner, attr, self._wrap(vars(owner)[attr], name, where))
        self._patch(EventArchive, "iter_query", self._wrap_generator(
            EventArchive.iter_query, "archive.iter_query"))
        for attr, name, where in _CODEC:
            original = getattr(ulm, attr)
            wrapped = self._wrap(original, name, where)
            for module_name, module in list(sys.modules.items()):
                if module is None or not module_name.startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn: Callable, name: str, where: Any) -> Callable:
        from repro.ulm import ULMMessage

        tracer = self
        nid = self._name_id(name)
        # the arrays are emptied in place between runs, never rebound,
        # so their bound methods can live in the closure
        name_append, parent_append = self.span_name.append, self.parent.append
        start, start_append = self.start, self.start.append
        end, end_append = self.end, self.end.append
        stack, push, pop = self._stack, self._stack.append, self._stack.pop
        lifeline = self.lifeline
        clock = perf_counter_ns
        counts_rejections = name in _COUNT_REJECTIONS
        if not self.lifelines:
            where = None

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = len(start)
            name_append(nid)
            parent_append(stack[-1])
            end_append(0)
            push(index)
            start_append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                pop()
            if where is not None:
                msg = result if where is _RESULT else \
                    (args[where] if len(args) > where else None)
                if type(msg) is ULMMessage:
                    lifeline[index] = (msg.host, msg.fields.get("SEQ"))
            if counts_rejections and not result:
                tracer.rejections += 1
            return result

        return traced

    def _wrap_generator(self, fn: Callable, name: str) -> Callable:
        """A generator boundary: one span per call whose duration is the
        time spent *inside* the generator (its resumptions added up), so
        the consumer's work between items is never billed to the layer.
        The span is recorded when the generator finishes and ends there.
        Called from inside a span of its own layer (``query`` draining
        ``iter_query``) it is not traced again."""
        tracer = self
        layer = name.split(".")[0] + "."
        nid = self._name_id(name)
        stack, names, span_name = self._stack, self.names, self.span_name
        clock = perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Iterator:
            inner = fn(*args, **kwargs)
            if not tracer.recording or \
                    names[span_name[stack[-1]]].startswith(layer):
                yield from inner
                return
            run, parent, busy = tracer.runs, stack[-1], 0
            try:
                while True:
                    resumed = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        busy += clock() - resumed
                    yield item
            finally:
                if tracer.recording and tracer.runs == run:
                    now = clock()
                    span_name.append(nid)
                    tracer.parent.append(parent)
                    tracer.start.append(now - busy)
                    tracer.end.append(now)

        return traced

    # -- one run ---------------------------------------------------------------

    def begin_run(self) -> None:
        for column in (self.span_name, self.start, self.end, self.parent):
            del column[:]
        self.lifeline.clear()
        self.rejections = 0
        self._stack[:] = [-1, 0]
        self.span_name.append(0)
        self.parent.append(-1)
        self.end.append(0)
        self.start.append(perf_counter_ns())
        self.runs += 1
        self.recording = True

    def end_run(self) -> None:
        """Close the root span.  Idempotent, so a harness hook that ends
        the run early (before result collection) and the caller's own
        ``finally`` can both call it."""
        if self.recording:
            self.recording = False
            self.end[0] = perf_counter_ns()

    # -- reading the trace -----------------------------------------------------

    def ledger(self) -> dict:
        """Per-span-name ``{calls, total_ns, self_ns}`` plus ``wall_ns``.

        ``total_ns`` is inclusive (what the caller waited), ``self_ns``
        excludes child spans (what the layer itself burned)."""
        start, end, parent, span_name = \
            self.start, self.end, self.parent, self.span_name
        n = len(start)
        covered = [0] * n
        for index in range(1, n):
            covered[parent[index]] += end[index] - start[index]
        rows = [[0, 0, 0] for _ in self.names]
        for index in range(n):
            row = rows[span_name[index]]
            duration = end[index] - start[index]
            row[0] += 1
            row[1] += duration
            row[2] += duration - covered[index]
        return {"wall_ns": end[0] - start[0], "spans": n,
                "by_name": {name: {"calls": row[0], "total_ns": row[1],
                                   "self_ns": row[2]}
                            for name, row in zip(self.names, rows) if row[0]}}

    def calls_under(self, parent_name: str, child_name: str) -> int:
        """Spans named ``child_name`` whose direct parent is a
        ``parent_name`` span."""
        parent_id = self._name_ids.get(parent_name)
        child_id = self._name_ids.get(child_name)
        if parent_id is None or child_id is None:
            return 0
        names, parents = self.span_name, self.parent
        return sum(1 for index, nid in enumerate(names)
                   if nid == child_id and names[parents[index]] == parent_id)

    def durations_ns(self, name: str) -> list[int]:
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        return [self.end[i] - self.start[i]
                for i, value in enumerate(self.span_name) if value == nid]

    def dump(self, path: str) -> None:
        """Write the trace as JSON: times are ns since the run began;
        ``lifeline`` is an index into ``lifelines`` (0 = background),
        inherited from the nearest ancestor that saw a message."""
        t0 = self.start[0]
        lifelines: list = ["background"]
        ids: dict[tuple, int] = {}
        resolved = array("l")
        spans = []
        for index in range(len(self.start)):
            key = self.lifeline.get(index)
            if key is not None:
                lid = ids.get(key)
                if lid is None:
                    lid = ids[key] = len(lifelines)
                    lifelines.append(list(key))
            else:
                up = self.parent[index]
                lid = resolved[up] if up >= 0 else 0
            resolved.append(lid)
            spans.append([self.span_name[index], self.start[index] - t0,
                          self.end[index] - t0, self.parent[index], lid])
        with open(path, "w") as out:
            json.dump({"schema": "repro-e2e-trace/1",
                       "columns": ["name", "start_ns", "end_ns", "parent",
                                   "lifeline"],
                       "names": self.names, "lifelines": lifelines,
                       "spans": spans}, out)


def percentile(values: list, q: float) -> Optional[float]:
    """Nearest-rank percentile (``q`` in [0, 1]); None when empty."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
