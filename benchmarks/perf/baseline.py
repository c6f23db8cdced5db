"""Seed-equivalent reference implementations for the perf harness.

These reproduce the *algorithms* the seed tree shipped — per-character
ULM tokenizing, strftime/strptime per event, rescan-everything window
extrema, scan-every-entry directory search, one-heap kernel dispatch —
so ``scripts/bench.py`` can report speedups against a fixed reference
instead of against whatever the previous commit happened to contain.  They are correct
(the benchmarks assert output parity) but deliberately unoptimized; do
not "fix" their performance.
"""

from __future__ import annotations

import datetime as _dt
import heapq
from collections import deque
from dataclasses import dataclass
from dataclasses import field as _dc_field
from typing import Any, Callable, Generator, Optional

from repro.simgrid.kernel import Timeout
from repro.ulm import EPOCH, ULMMessage
from repro.ulm.fields import DATE, HOST, LVL, PROG, is_valid_field_name
from repro.ulm.parse import ParseError

__all__ = ["seed_serialize", "seed_parse", "seed_parse_stream",
           "seed_serialize_stream", "SeedSummaryWindow",
           "seed_directory_search", "SeedSimulator", "SeedEventFlag",
           "SeedProcess", "SeedScheduledCall"]


# -- seed ULM codec: per-character tokenizer, per-event strftime/strptime ----

def _seed_format_date(wallclock_s: float) -> str:
    micros = int(round(wallclock_s * 1e6))
    when = EPOCH + _dt.timedelta(microseconds=micros)
    return when.strftime("%Y%m%d%H%M%S") + f".{when.microsecond:06d}"


def _seed_parse_date(text: str) -> float:
    stamp, _, frac = text.partition(".")
    when = _dt.datetime.strptime(stamp, "%Y%m%d%H%M%S").replace(
        tzinfo=_dt.timezone.utc)
    return (when - EPOCH).total_seconds() + int(frac.ljust(6, "0")) / 1e6


def _seed_quote(value: str) -> str:
    if value == "" or any(c.isspace() for c in value) or '"' in value:
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return value


def seed_serialize(msg: ULMMessage) -> str:
    pairs = [(DATE, _seed_format_date(msg.date)), (HOST, msg.host),
             (PROG, msg.prog), (LVL, msg.lvl), *msg.fields.items()]
    return " ".join(f"{name}={_seed_quote(value)}" for name, value in pairs)


def _seed_tokenize(line: str):
    i = 0
    n = len(line)
    while i < n:
        while i < n and line[i].isspace():
            i += 1
        if i >= n:
            return
        eq = line.find("=", i)
        if eq < 0:
            raise ParseError(f"expected field=value at column {i}")
        name = line[i:eq]
        if not is_valid_field_name(name):
            raise ParseError(f"invalid field name {name!r}")
        i = eq + 1
        if i < n and line[i] == '"':
            i += 1
            out = []
            while i < n:
                c = line[i]
                if c == "\\" and i + 1 < n:
                    out.append(line[i + 1])
                    i += 2
                    continue
                if c == '"':
                    i += 1
                    break
                out.append(c)
                i += 1
            else:
                raise ParseError(f"unterminated quoted value for {name!r}")
            yield name, "".join(out)
        else:
            j = i
            while j < n and not line[j].isspace():
                j += 1
            yield name, line[i:j]
            i = j


def seed_parse(line: str) -> ULMMessage:
    required: dict = {}
    extra: dict = {}
    for name, value in _seed_tokenize(line.strip()):
        if name in (DATE, HOST, PROG, LVL):
            required[name] = value
        else:
            extra[name] = value
    return ULMMessage(date=_seed_parse_date(required[DATE]),
                      host=required[HOST], prog=required[PROG],
                      lvl=required[LVL], fields=extra)


def seed_serialize_stream(messages) -> str:
    return "".join(seed_serialize(m) + "\n" for m in messages)


def seed_parse_stream(text: str) -> list:
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        out.append(seed_parse(line))
    return out


# -- seed summary window: O(n) extrema over never-expired samples ------------

class SeedSummaryWindow:
    """The seed :class:`SummaryWindow`: extrema rescan every sample."""

    def __init__(self, span: float):
        self.span = span
        self._samples: deque = deque()
        self._sum = 0.0

    def ingest(self, t: float, value: float) -> None:
        self._samples.append((t, value))
        self._sum += value
        cutoff = t - self.span
        while self._samples and self._samples[0][0] < cutoff:
            _, v = self._samples.popleft()
            self._sum -= v

    def average(self):
        return self._sum / len(self._samples) if self._samples else None

    def minimum(self):
        return min((v for _, v in self._samples), default=None)

    def maximum(self):
        return max((v for _, v in self._samples), default=None)


# -- seed directory search: re-parse the filter, linear-scan every entry -----

def seed_directory_search(server, base, filter_text, scope: str = "sub"):
    """The seed ``search_now`` algorithm: the filter text is re-parsed on
    every call and every entry in the backend is scanned and matched —
    no AST cache, no attribute indexes, no planner.  Matches are
    snapshot-copied, as ``search_now`` returns them."""
    from repro.core.directory.entry import DN
    from repro.core.directory.filterlang import parse_filter

    flt = parse_filter(filter_text)
    base = DN.of(base)
    out = []
    for dn, entry in server.backend.entries.items():
        if not dn.is_under(base):
            continue
        if scope == "one" and dn.depth_below(base) != 1:
            continue
        if flt.matches(entry):
            out.append(entry.copy())
    return out


# -- seed discrete-event kernel: one heap, dataclass calls, no fast path -----
#
# The kernel the seed tree shipped: every scheduled call — including the
# zero-delay wake-ups behind EventFlag.trigger, process steps, and bare
# yields — is a heap push/pop of an order-comparable dataclass;
# cancelled entries linger in the heap until popped; pending_events is
# an O(n) scan.  The sim_kernel benchmarks assert output parity against
# repro.simgrid.kernel and report speedup = current/seed.  Wait
# conditions (Timeout) are shared with the current kernel so only
# dispatch cost is compared.


@dataclass(order=True)
class SeedScheduledCall:
    time: float
    seq: int
    fn: Callable = _dc_field(compare=False)
    args: tuple = _dc_field(compare=False, default=())
    cancelled: bool = _dc_field(compare=False, default=False)

    def cancel(self) -> None:
        self.cancelled = True


class SeedEventFlag:
    __slots__ = ("sim", "name", "reusable", "_triggered", "_value",
                 "_waiters", "_callbacks")

    def __init__(self, sim: "SeedSimulator", name: str = "", *,
                 reusable: bool = False):
        self.sim = sim
        self.name = name
        self.reusable = reusable
        self._triggered = False
        self._value: Any = None
        self._waiters: list = []
        self._callbacks: list = []

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        return self._value

    def on_trigger(self, callback: Callable[[Any], None]) -> None:
        if self._triggered and not self.reusable:
            self.sim.call_in(0.0, callback, self._value)
        else:
            self._callbacks.append(callback)

    def _add_waiter(self, resume: Callable[[Any], None]) -> None:
        if self._triggered and not self.reusable:
            self.sim.call_in(0.0, resume, self._value)
        else:
            self._waiters.append(resume)

    def trigger(self, value: Any = None) -> None:
        if self._triggered and not self.reusable:
            raise RuntimeError(f"flag {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for resume in waiters:
            self.sim.call_in(0.0, resume, value)
        callbacks = list(self._callbacks)
        if not self.reusable:
            self._callbacks.clear()
        for cb in callbacks:
            self.sim.call_in(0.0, cb, value)
        if self.reusable:
            self._triggered = False


class SeedProcess:
    __slots__ = ("sim", "name", "gen", "done", "alive",
                 "_pending_cancel")

    def __init__(self, sim: "SeedSimulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.name = name or "process"
        self.gen = gen
        self.done = SeedEventFlag(sim, name=f"{self.name}.done")
        self.alive = True
        self._pending_cancel: Optional[SeedScheduledCall] = None

    def _start(self) -> None:
        self.sim.call_in(0.0, self._step, None)

    def _step(self, send_value: Any) -> None:
        if not self.alive:
            return
        self._pending_cancel = None
        try:
            condition = self.gen.send(send_value)
        except StopIteration:
            self._finish()
            return
        if isinstance(condition, Timeout):
            self._pending_cancel = self.sim.call_in(
                condition.delay, self._step, None)
        elif isinstance(condition, SeedEventFlag):
            condition._add_waiter(self._step)
        elif isinstance(condition, SeedProcess):
            condition.done._add_waiter(self._step)
        elif condition is None:
            self._pending_cancel = self.sim.call_in(0.0, self._step, None)
        else:
            raise RuntimeError(f"unsupported condition {condition!r}")

    def _finish(self) -> None:
        self.alive = False
        self.done.trigger(None)

    def kill(self) -> None:
        if not self.alive:
            return
        if self._pending_cancel is not None:
            self._pending_cancel.cancel()
        self.gen.close()
        self._finish()


class SeedSimulator:
    """The seed event loop, byte-for-byte the pre-fast-path algorithm."""

    def __init__(self) -> None:
        self.now = 0.0
        self.events_executed = 0
        self._queue: list = []
        self._seq = 0

    def call_at(self, when: float, fn: Callable, *args: Any) -> SeedScheduledCall:
        if when < self.now:
            raise RuntimeError("cannot schedule into the past")
        self._seq += 1
        call = SeedScheduledCall(when, self._seq, fn, args)
        heapq.heappush(self._queue, call)
        return call

    def call_in(self, delay: float, fn: Callable, *args: Any) -> SeedScheduledCall:
        return self.call_at(self.now + delay, fn, *args)

    def spawn(self, gen: Generator, name: str = "") -> SeedProcess:
        proc = SeedProcess(self, gen, name=name)
        proc._start()
        return proc

    def flag(self, name: str = "", *, reusable: bool = False) -> SeedEventFlag:
        return SeedEventFlag(self, name=name, reusable=reusable)

    def step(self) -> bool:
        while self._queue:
            call = heapq.heappop(self._queue)
            if call.cancelled:
                continue
            self.now = call.time
            self.events_executed += 1
            call.fn(*call.args)
            return True
        return False

    def run(self, until: Optional[float] = None) -> float:
        while self._queue:
            while self._queue and self._queue[0].cancelled:
                heapq.heappop(self._queue)
            if not self._queue:
                break
            if until is not None and self._queue[0].time > until:
                self.now = until
                break
            self.step()
        if until is not None and not self._queue and self.now < until:
            self.now = until
        return self.now

    @property
    def pending_events(self) -> int:
        return sum(1 for c in self._queue if not c.cancelled)
