"""The MATISSE application pipeline (paper §6, Fig. 5/6/7).

"...enable MEMS researchers to efficiently access, manipulate, and view
high resolution high frame rate video data of MEMS devices remotely
over the DARPA Supernet."  Data flows DPSS (LBNL) → across Supernet →
compute/viewer host (Arlington).

The frame loop is the paper's on-demand pipeline, instrumented with the
NetLogger events visible in Fig. 7::

    MPLAY_START_READ_FRAME  → DPSS striped read issued
    MPLAY_END_READ_FRAME    → all stripes arrived
    MPLAY_START_PUT_IMAGE   → decode/display begins (CPU burst)
    MPLAY_END_PUT_IMAGE     → frame on screen

Frame-rate burstiness ("Sometimes images arrived at 6 frames/sec, and
other times only 1-2 frames/sec") emerges from the TCP dynamics of the
underlying DPSS session — especially with four data sockets.
"""

from __future__ import annotations

from typing import Any, Optional

from ..netlogger.api import NetLogger
from ..simgrid.host import Host
from ..simgrid.kernel import Timeout
from ..simgrid.world import GridWorld
from .dpss import DPSSCluster, DPSSSession

__all__ = ["MatisseViewer", "FRAME_BYTES"]

#: one video frame (high-resolution MEMS imagery)
FRAME_BYTES = 1_500_000


class MatisseViewer:
    """The frame-request/display loop on the receiving host."""

    def __init__(self, world: GridWorld, cluster: DPSSCluster, viewer: Host, *,
                 n_servers: Optional[int] = None,
                 frame_bytes: int = FRAME_BYTES,
                 decode_time: float = 0.020,
                 decode_cpu: float = 0.6,
                 netlogger: Optional[NetLogger] = None,
                 app_sensor: Any = None,
                 burst_loss_prob: float = 0.0):
        self.world = world
        self.sim = world.sim
        self.viewer = viewer
        self.frame_bytes = frame_bytes
        self.decode_time = decode_time
        self.decode_cpu = decode_cpu
        self.netlogger = netlogger
        self.app_sensor = app_sensor
        self.session: DPSSSession = cluster.open_session(
            viewer, n_servers=n_servers, netlogger=netlogger,
            burst_loss_prob=burst_loss_prob)
        #: (request_time, display_time) per frame
        self.frame_times: list[tuple[float, float]] = []
        self.frames_displayed = 0
        self.running = False
        self._proc = None

    # -- instrumentation ---------------------------------------------------------

    def _log(self, event: str, frame_id: int) -> None:
        if self.netlogger is not None:
            self.netlogger.write(event, FRAME_ID=frame_id)
        if self.app_sensor is not None:
            self.app_sensor.log_event(event, FRAME_ID=frame_id)

    # -- the pipeline ---------------------------------------------------------------

    def play(self, *, n_frames: Optional[int] = None,
             duration: Optional[float] = None):
        """Start the frame loop; returns the kernel process."""
        if self.running:
            raise RuntimeError("viewer already playing")
        self.running = True
        deadline = self.sim.now + duration if duration is not None else None
        self._proc = self.sim.spawn(self._loop(n_frames, deadline),
                                    name=f"matisse[{self.viewer.name}]")
        return self._proc

    def stop(self) -> None:
        self.running = False

    def _loop(self, n_frames: Optional[int], deadline: Optional[float]):
        frame_id = 0
        while self.running:
            if n_frames is not None and frame_id >= n_frames:
                break
            if deadline is not None and self.sim.now >= deadline:
                break
            frame_id += 1
            requested_at = self.sim.now
            self._log("MPLAY_START_READ_FRAME", frame_id)
            yield self.session.read(self.frame_bytes)
            self._log("MPLAY_END_READ_FRAME", frame_id)
            # decode + display: a CPU burst on the viewer host
            self._log("MPLAY_START_PUT_IMAGE", frame_id)
            token = self.viewer.cpu.add_load(self.decode_cpu, 0.0)
            yield Timeout(self.decode_time)
            self.viewer.cpu.remove_load(token)
            self._log("MPLAY_END_PUT_IMAGE", frame_id)
            self.frames_displayed += 1
            self.frame_times.append((requested_at, self.sim.now))
        self.running = False
        self.session.close()

    # -- analysis ---------------------------------------------------------------------

    def frame_rate_series(self, window: float = 1.0) -> list[tuple[float, float]]:
        """(t, frames/sec) series at ``window`` granularity."""
        if not self.frame_times:
            return []
        displays = sorted(t1 for _, t1 in self.frame_times)
        t_start, t_end = displays[0], displays[-1]
        out = []
        t = t_start + window
        while t <= t_end + window:
            count = sum(1 for d in displays if t - window < d <= t)
            out.append((t, count / window))
            t += window
        return out

    def mean_frame_rate(self) -> float:
        if len(self.frame_times) < 2:
            return 0.0
        displays = [t1 for _, t1 in self.frame_times]
        span = displays[-1] - displays[0]
        return (len(displays) - 1) / span if span > 0 else 0.0

    def frame_latencies(self) -> list[float]:
        return [t1 - t0 for t0, t1 in self.frame_times]
