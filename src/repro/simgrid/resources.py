"""Host resource models: CPU and memory accounting.

These provide the quantities the JAMM host sensors sample — the same
ones ``vmstat``/``iostat`` report on a real host: user/system/idle CPU
percentages, load averages, and free memory.

The models are *contribution-based*: simulated activities (an
application computing, the TCP stack processing packets, a monitoring
sensor itself) register a fractional demand while they are active.  The
instantaneous utilization is the sum of contributions, clipped to the
number of CPUs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .kernel import Simulator

__all__ = ["CPUModel", "MemoryModel", "CPUSample", "MemorySample"]


@dataclass(frozen=True)
class CPUSample:
    """A vmstat-style CPU snapshot (percentages, 0–100)."""

    user: float
    system: float
    idle: float
    load: float  # runnable demand in units of CPUs (like loadavg)


@dataclass(frozen=True)
class MemorySample:
    """Memory snapshot in kilobytes."""

    total_kb: int
    free_kb: int
    used_kb: int


class CPUModel:
    """CPU utilization accounting for one host.

    Contributions are (user_fraction, system_fraction) pairs in units of
    *one CPU*; e.g. a busy single-threaded app contributes (1.0, 0.0) on
    an ``ncpus=2`` host → 50% user.  Network interrupt/driver overhead
    registers as *system* time, which is how the Matisse receiver's
    ``VMSTAT_SYS_TIME`` signal (paper Fig. 7) arises.
    """

    def __init__(self, sim: Simulator, *, ncpus: int = 1):
        if ncpus < 1:
            raise ValueError("ncpus must be >= 1")
        self.sim = sim
        self.ncpus = ncpus
        self._contribs: dict[int, tuple[float, float]] = {}
        # per-model token sequence: process-global counters would leak
        # across worlds sharing the interpreter
        self._next_token = 0

    # -- contributions ------------------------------------------------------

    def add_load(self, user: float = 0.0, system: float = 0.0) -> int:
        """Register a demand contribution; returns a token for removal."""
        if user < 0 or system < 0:
            raise ValueError("negative CPU demand")
        self._next_token += 1
        token = self._next_token
        self._contribs[token] = (user, system)
        return token

    def update_load(self, token: int, user: float = 0.0, system: float = 0.0) -> None:
        if token not in self._contribs:
            raise KeyError(token)
        self._contribs[token] = (user, system)

    def remove_load(self, token: int) -> None:
        self._contribs.pop(token, None)

    # -- sampling -----------------------------------------------------------

    def _raw_demand(self) -> tuple[float, float]:
        user = sum(u for u, _ in self._contribs.values())
        system = sum(s for _, s in self._contribs.values())
        return user, system

    def _instant_percent(self) -> tuple[float, float]:
        user, system = self._raw_demand()
        total = user + system
        capacity = float(self.ncpus)
        if total <= capacity or total == 0:
            return 100.0 * user / capacity, 100.0 * system / capacity
        # over-committed: scale demands down to capacity (system work —
        # interrupts — preempts user work, so it is satisfied first)
        system_served = min(system, capacity)
        user_served = capacity - system_served
        return 100.0 * user_served / capacity, 100.0 * system_served / capacity

    def sample(self) -> CPUSample:
        """Instantaneous vmstat-style snapshot."""
        user_pct, sys_pct = self._instant_percent()
        idle = max(0.0, 100.0 - user_pct - sys_pct)
        user, system = self._raw_demand()
        return CPUSample(user=user_pct, system=sys_pct, idle=idle, load=user + system)


class MemoryModel:
    """Free/used memory accounting for one host."""

    def __init__(self, *, total_kb: int = 512 * 1024):
        if total_kb <= 0:
            raise ValueError("total_kb must be positive")
        self.total_kb = total_kb
        self._allocs: dict[int, int] = {}
        self._next_token = 0

    @property
    def used_kb(self) -> int:
        return sum(self._allocs.values())

    @property
    def free_kb(self) -> int:
        return max(0, self.total_kb - self.used_kb)

    def allocate(self, kb: int) -> Optional[int]:
        """Allocate ``kb``; returns a token, or None if it doesn't fit."""
        if kb < 0:
            raise ValueError("negative allocation")
        if kb > self.free_kb:
            return None
        self._next_token += 1
        token = self._next_token
        self._allocs[token] = kb
        return token

    def resize(self, token: int, kb: int) -> bool:
        if token not in self._allocs:
            raise KeyError(token)
        delta = kb - self._allocs[token]
        if delta > self.free_kb:
            return False
        self._allocs[token] = kb
        return True

    def release(self, token: int) -> None:
        self._allocs.pop(token, None)

    def sample(self) -> MemorySample:
        used = self.used_kb
        return MemorySample(total_kb=self.total_kb,
                            free_kb=self.total_kb - used, used_kb=used)
