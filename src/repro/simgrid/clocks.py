"""Per-host clocks and NTP-style synchronization (paper §4.3).

NetLogger analysis "assumes the existence of accurate and synchronized
system clocks"; the paper reports that a GPS-fed NTP server per subnet
keeps hosts within ~0.25 ms, degrading somewhat when the time source is
several IP router hops away, and that ~1 ms is good enough for most
analyses.

This module models exactly that:

* :class:`HostClock` — wall-clock = virtual time + offset + drift·t.
  Unsynchronized hosts accumulate skew; timestamps taken through the
  clock carry that skew into ULM events, which is what corrupts
  lifelines in experiment E9.
* :class:`NTPServer` / :class:`NTPDaemon` — an xntpd-like polling
  daemon.  Each poll estimates the offset with an error proportional to
  the network path's round-trip jitter (more router hops → more jitter
  → worse sync), then disciplines the clock toward the estimate.
"""

from __future__ import annotations

from typing import Optional

from .kernel import Simulator, Timeout

__all__ = ["HostClock", "NTPServer", "NTPDaemon", "SYNC_ACCURACY_LAN", "PER_HOP_JITTER"]

#: achievable accuracy with a GPS NTP server on the same subnet (paper: ~0.25 ms)
SYNC_ACCURACY_LAN = 0.25e-3
#: additional one-way jitter contributed by each IP router hop
PER_HOP_JITTER = 0.2e-3


class HostClock:
    """A host's system clock.

    ``offset`` is the instantaneous error versus true (virtual) time and
    ``drift`` the frequency error in seconds per second (a few ppm on
    real hardware).
    """

    def __init__(self, sim: Simulator, *, offset: float = 0.0, drift: float = 0.0):
        self.sim = sim
        self._base_offset = offset
        self._drift = drift
        self._drift_epoch = sim.now  # virtual time at which offset was last set

    @property
    def drift(self) -> float:
        return self._drift

    def error(self) -> float:
        """Current clock error relative to true time (seconds)."""
        return self._base_offset + self._drift * (self.sim.now - self._drift_epoch)

    def time(self) -> float:
        """Wall-clock reading (what timestamps are taken from)."""
        return self.sim.now + self.error()

    def adjust(self, correction: float) -> None:
        """Step the clock by ``correction`` seconds (NTP discipline)."""
        # fold accumulated drift into the base offset, then apply the step
        self._base_offset = self.error() + correction
        self._drift_epoch = self.sim.now

    def set_drift(self, drift: float) -> None:
        self._base_offset = self.error()
        self._drift_epoch = self.sim.now
        self._drift = drift


class NTPServer:
    """A (GPS-disciplined) reference time source.

    The stratum-1 server is assumed perfect; all error in the model
    comes from the network path between daemon and server.
    """

    def __init__(self, sim: Simulator, name: str = "ntp0"):
        self.sim = sim
        self.name = name


class NTPDaemon:
    """xntpd-like clock-discipline loop for one host.

    ``hops`` is the number of IP router hops to the server; offset
    estimates carry zero-mean error with magnitude
    ``SYNC_ACCURACY_LAN + hops * PER_HOP_JITTER``, matching the paper's
    observation that accuracy "may decrease somewhat" off-subnet.
    """

    def __init__(self, sim: Simulator, clock: HostClock, server: NTPServer, *,
                 hops: int = 0, poll_interval: float = 16.0, rng=None,
                 gain: float = 0.8):
        self.sim = sim
        self.clock = clock
        self.server = server
        self.hops = max(0, int(hops))
        self.poll_interval = poll_interval
        self.gain = gain
        self._rng = rng
        self.polls = 0
        self.last_estimate_error: Optional[float] = None
        self._proc = None

    @property
    def accuracy_bound(self) -> float:
        """Expected worst-case sync error for this daemon's path."""
        return SYNC_ACCURACY_LAN + self.hops * PER_HOP_JITTER

    def start(self) -> None:
        if self._proc is None or not self._proc.alive:
            self._proc = self.sim.spawn(self._run(), name=f"ntpd[{self.server.name}]")

    def stop(self) -> None:
        if self._proc is not None and self._proc.alive:
            self._proc.kill()

    def poll_once(self) -> float:
        """One NTP exchange: estimate offset (with path noise) and discipline.

        Returns the *applied* correction.
        """
        self.polls += 1
        true_error = self.clock.error()
        noise_scale = self.accuracy_bound
        if self._rng is not None:
            noise = self._rng.uniform(-noise_scale, noise_scale)
        else:
            noise = 0.0
        estimated_offset = true_error + noise
        self.last_estimate_error = noise
        correction = -self.gain * estimated_offset
        self.clock.adjust(correction)
        return correction

    def _run(self):
        while True:
            self.poll_once()
            yield Timeout(self.poll_interval)
