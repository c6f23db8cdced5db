"""Seeded background-traffic generators.

The paper's congestion pathologies (§6, §7) only appear when links
carry *cross traffic*: someone else's bytes filling the queues the
monitoring path observes.  This module provides deterministic
background sources — a constant-rate stream and an on/off burst source
— that push datagrams through the control-plane transport tagged with
the ``"background"`` traffic class, so link queues, utilization
windows, and drop counters move exactly as they would under real load.

Background traffic is link load, not mail: a source aims at its
destination's discard service (:func:`repro.simgrid.sockets.discard` on
:data:`TRAFFIC_PORT`), so a packet is one timer tick and a one-delivery
``send_burst`` that charges every hop and both port tables, on a route
the transport already holds, and builds no message and schedules no
arrival.
Aimed at a port with a real listener, the same packets are delivered.

Specs are plain data (:class:`TrafficSpec` round-trips through JSON,
like fault plans), and every generator draws jitter from a named world
RNG stream, so a storm replays bit-identically from its seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from typing import Any, Optional

from .kernel import ScheduledCall
from .network import TRAFFIC_CLASSES
from .sockets import discard, ignore_failure

__all__ = ["TrafficSpec", "TrafficGenerator", "TRAFFIC_PORT",
           "TRAFFIC_KINDS"]

#: well-known sink port (the "discard" service): the first generator
#: toward a host binds :func:`~repro.simgrid.sockets.discard` here, for good
TRAFFIC_PORT = 9

#: generator shapes
TRAFFIC_KINDS = ("constant", "onoff")


@dataclass(frozen=True)
class TrafficSpec:
    """One background source, as plain data.

    ``kind`` is ``"constant"`` (packets evenly spaced at ``rate_bps``)
    or ``"onoff"`` (bursts of ``on_s`` at ``rate_bps``, silent for
    ``off_s`` — the classic exponential-ish on/off cross-traffic
    shape).  ``jitter`` (0..1) spreads each inter-packet gap uniformly
    by ±``jitter``/2, drawn from a seeded stream.
    """

    src: str
    dst: str
    rate_bps: float
    kind: str = "constant"
    packet_bytes: int = 8192
    start: float = 0.0
    duration: Optional[float] = None
    on_s: float = 0.5
    off_s: float = 0.5
    jitter: float = 0.0
    seed: int = 0
    traffic_class: str = "background"
    port: int = TRAFFIC_PORT

    def __post_init__(self) -> None:
        if self.kind not in TRAFFIC_KINDS:
            raise ValueError(f"unknown traffic kind {self.kind!r}")
        if self.rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        if self.packet_bytes <= 0:
            raise ValueError("packet_bytes must be positive")
        if not (0.0 <= self.jitter <= 1.0):
            raise ValueError("jitter must be in [0, 1]")
        if self.kind == "onoff" and (self.on_s <= 0 or self.off_s < 0):
            raise ValueError("onoff needs on_s > 0 and off_s >= 0")
        if self.traffic_class not in TRAFFIC_CLASSES:
            raise ValueError(f"unknown traffic class {self.traffic_class!r}")

    # -- serialization (mirrors FaultPlan's JSON discipline) ----------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrafficSpec":
        return cls(**data)

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TrafficSpec":
        return cls.from_dict(json.loads(text))


class TrafficGenerator:
    """Runs one :class:`TrafficSpec` against a world.

    The generator sends fire-and-forget datagrams on the transport (a
    failed send — src host down, no route — is counted and tolerated:
    background traffic does not crash when the world degrades, it
    resumes when the path does).  It is a timer, not a process: each
    tick sends one packet and re-arms itself.  :meth:`stop` is
    idempotent and cancels the pending tick.
    """

    def __init__(self, world: Any, spec: TrafficSpec):
        self.world = world
        self.spec = spec
        self.rng = world.rng.stream(
            f"traffic:{spec.src}->{spec.dst}:{spec.seed}")
        self.packets_sent = 0
        self.send_failures = 0
        self.running = False
        self._timer: Optional[ScheduledCall] = None
        #: end of the run / of the on-period (None: the next tick opens one)
        self._t_end = self._burst_end = float("inf")
        #: the stream's one source port; every packet is the same
        #: one-delivery burst — ``(transport, src, (delivery,))`` —
        #: which :meth:`start` builds
        self.src_port = world.transport.ephemeral_port()
        self._flow: Optional[tuple] = None
        #: a packet's payload: the spec's size less the header the
        #: transport adds back, never under one byte
        self._payload_bytes = max(
            1, spec.packet_bytes - world.transport.HEADER_BYTES)
        #: the mean inter-packet gap, seconds (jitter spreads each one)
        self._gap = spec.packet_bytes * 8.0 / spec.rate_bps

    @property
    def bytes_sent(self) -> int:
        """Bytes the sent packets put on the wire, headers included —
        what the transport's ``class_bytes`` and the port records count."""
        return self.packets_sent * (self._payload_bytes
                                    + self.world.transport.HEADER_BYTES)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "TrafficGenerator":
        if self.running:
            return self
        self.running = True
        transport = self.world.transport
        dst = self.world.hosts[self.spec.dst]
        packet = (dst, self.spec.port, None, self._payload_bytes,
                  self.src_port, ignore_failure, None)
        self._flow = (transport, self.world.hosts[self.spec.src], (packet,))
        # the discard service is the host's: bound by whoever needs it
        # first, unbound by nobody (a neighbour storm may still be sending)
        if dst.ports.listener(self.spec.port) is None:
            dst.ports.bind(self.spec.port, discard)
        self._timer = self.world.sim.call_soon(self._open)
        return self

    def stop(self) -> None:
        if self.running:
            self.running = False
            self._timer.cancel()

    # -- engine -------------------------------------------------------------

    def _send_one(self) -> None:
        transport, src, packet = self._flow
        if transport.send_burst(src, packet,
                                traffic_class=self.spec.traffic_class) is None:
            self.send_failures += 1
        else:
            self.packets_sent += 1

    def _open(self, waited: bool = False) -> None:
        spec, sim = self.spec, self.world.sim
        if not waited and spec.start > sim.now:
            self._timer = sim.call_in(spec.start - sim.now, self._open, True)
            return
        if spec.duration is not None:
            self._t_end = sim.now + spec.duration
        self._burst_end = None if spec.kind == "onoff" else float("inf")
        self._tick()

    def _tick(self) -> None:
        spec, sim = self.spec, self.world.sim
        now = sim.now
        if now >= self._t_end:
            self.running = False
            return
        if self._burst_end is None or now >= self._burst_end:
            if self._burst_end is not None and spec.off_s > 0:
                # on-period over: rest; the tick after it opens the next
                self._burst_end = None
                self._timer = sim.call_in(spec.off_s, self._tick)
                return
            self._burst_end = now + spec.on_s
        self._send_one()
        gap = self._gap
        if spec.jitter > 0.0:
            gap *= 1.0 + spec.jitter * (self.rng.random() - 0.5)
        self._timer = sim.call_at(now + gap, self._tick)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TrafficGenerator {self.spec.src}->{self.spec.dst} "
                f"{self.spec.rate_bps/1e6:.0f}Mbps "
                f"sent={self.packets_sent}>")
