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
:data:`TRAFFIC_PORT`), where a packet charges every hop and both port
tables and builds no message and schedules no arrival.  So a storm is
a packet train: one timer tick sends every packet due before the
kernel's next dispatch (``Simulator.run_ahead_limit``) in one
``send_train``, with the outcome of one tick per packet.  Aimed at a
port with a real listener, a tick is one packet, delivered.

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
    tick sends a train of packets (one, toward a real listener) and
    re-arms itself once.  :meth:`stop` is idempotent and cancels the
    pending tick.
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
        #: the stream's one source port; :meth:`start` builds the flow,
        #: ``(transport, src, dst, (delivery,))`` — a packet toward a
        #: real listener is that one-delivery burst
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
        self._flow = (transport, self.world.hosts[self.spec.src], dst,
                      (packet,))
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

    def _send_one(self, times: list, train: bool) -> None:
        """Send the packets due at ``times``: a train of them into the
        discard sink, else the one packet as a one-delivery burst."""
        transport, src, dst, packet = self._flow
        if train:
            sent = transport.send_train(
                src, dst, self.spec.port, self._payload_bytes, self.src_port,
                times, traffic_class=self.spec.traffic_class)
        else:
            sent = transport.send_burst(
                src, packet, traffic_class=self.spec.traffic_class) \
                is not None
        self.packets_sent += sent
        self.send_failures += len(times) - sent

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
        """Walk the timeline from now: each step a packet or the end of a
        rest.  Into the discard sink a packet schedules nothing, so every
        step before the kernel's next dispatch is taken here and its
        packets go out as one train; elsewhere a tick is one step."""
        spec, sim = self.spec, self.world.sim
        train = self._flow[2].ports._listeners.get(spec.port) is discard
        t = now = sim.now
        limit = sim.run_ahead_limit() if train else now
        times = []
        while True:
            if t >= self._t_end:
                # the end is a tick of its own: only a dispatch moves
                # the clock to it
                if t == now:
                    self.running = False
                break
            if self._burst_end is None or t >= self._burst_end:
                if self._burst_end is not None and spec.off_s > 0:
                    # on-period over: rest; the step after it opens the next
                    self._burst_end = None
                    t += spec.off_s
                    if t < limit:
                        continue
                    break
                self._burst_end = t + spec.on_s
            times.append(t)
            gap = self._gap
            if spec.jitter > 0.0:
                gap *= 1.0 + spec.jitter * (self.rng.random() - 0.5)
            t += gap
            if not t < limit:
                break
        if times:
            self._send_one(times, train)
        if self.running:
            self._timer = sim.call_at(t, self._tick)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TrafficGenerator {self.spec.src}->{self.spec.dst} "
                f"{self.spec.rate_bps/1e6:.0f}Mbps "
                f"sent={self.packets_sent}>")
