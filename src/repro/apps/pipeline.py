"""The full Matisse pipeline of Fig. 5: DPSS → compute cluster → viewer.

"Data was stored on a Distributed Parallel Storage System (DPSS) at
LBNL in Berkeley, CA.  Data was transferred on-demand across Supernet
to a Linux compute cluster, which did the data analysis, and then sent
the results to a workstation."

:class:`MatissePipeline` models that three-stage path with a
configurable compute-cluster width (the paper's had 8 nodes) and a
pipeline depth (frames in flight).  Each frame:

1. a compute node issues a striped DPSS read across the WAN;
2. the node runs the MEMS analysis (a CPU burst);
3. the (smaller) result frame moves node → viz workstation over the
   site LAN;
4. the workstation displays it.

NetLogger events cover every stage, so lifelines span three hosts —
the "13 in this example" machines §6 mentions JAMM saved the user from
logging into by hand.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional, Sequence

from ..simgrid.host import Host
from ..simgrid.kernel import Timeout
from ..simgrid.world import GridWorld
from .dpss import DPSSCluster, DPSSSession
from .matisse import FRAME_BYTES

__all__ = ["MatissePipeline"]

RESULT_PORT_BASE = 7800


class MatissePipeline:
    """DPSS storage cluster → compute cluster → visualization host."""

    def __init__(self, world: GridWorld, cluster: DPSSCluster,
                 compute_nodes: Sequence[Host], viz: Host, *,
                 n_servers: Optional[int] = None,
                 frame_bytes: int = FRAME_BYTES,
                 result_bytes: int = 400_000,
                 analysis_time: float = 0.08,
                 analysis_cpu: float = 0.9,
                 display_time: float = 0.01,
                 pipeline_depth: int = 2,
                 log_destination: Any = None,
                 burst_loss_prob: float = 0.0):
        if not compute_nodes:
            raise ValueError("need at least one compute node")
        if pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        self.world = world
        self.sim = world.sim
        self.compute_nodes = list(compute_nodes)
        self.viz = viz
        self.frame_bytes = frame_bytes
        self.result_bytes = result_bytes
        self.analysis_time = analysis_time
        self.analysis_cpu = analysis_cpu
        self.display_time = display_time
        self.pipeline_depth = pipeline_depth
        # one NetLogger per stage host, all writing to a shared
        # destination — each stage stamps with its own (possibly
        # skewed) clock, as real instrumentation does
        self._loggers: dict[str, Any] = {}
        if log_destination is not None:
            from ..netlogger.api import NetLogger
            for host in [*self.compute_nodes, viz]:
                logger = NetLogger("mpipe", host=host)
                logger.dest = log_destination
                self._loggers[host.name] = logger
        #: one DPSS session per compute node (persistent data sockets)
        self.sessions: dict[str, DPSSSession] = {
            node.name: cluster.open_session(node, n_servers=n_servers,
                                            burst_loss_prob=burst_loss_prob)
            for node in self.compute_nodes}
        #: persistent result flows node -> viz (LAN)
        self.result_flows = {}
        for i, node in enumerate(self.compute_nodes):
            flow = world.tcp_flow(node, viz, dst_port=RESULT_PORT_BASE + i,
                                  rng_name=f"matisse-result:{i}")
            flow.open_persistent()
            self.result_flows[node.name] = flow
        self.frames_displayed = 0
        self.display_times: list[float] = []
        self.running = False
        self._next_frame = itertools.count(1)
        self._display_queue: list[int] = []

    def _log(self, event: str, frame_id: int, host: Host) -> None:
        logger = self._loggers.get(host.name)
        if logger is not None:
            logger.write(event, FRAME_ID=frame_id)

    # -- execution ------------------------------------------------------------

    def play(self, *, n_frames: Optional[int] = None,
             duration: Optional[float] = None):
        """Run ``pipeline_depth`` concurrent frame workers."""
        if self.running:
            raise RuntimeError("pipeline already playing")
        self.running = True
        deadline = (self.sim.now + duration) if duration is not None else None
        budget = [n_frames if n_frames is not None else float("inf")]
        workers = []
        for lane in range(self.pipeline_depth):
            node = self.compute_nodes[lane % len(self.compute_nodes)]
            workers.append(self.sim.spawn(
                self._lane(node, budget, deadline),
                name=f"matisse-lane{lane}[{node.name}]"))
        self._workers = workers
        return workers

    def stop(self) -> None:
        self.running = False

    def _lane(self, node: Host, budget, deadline):
        session = self.sessions[node.name]
        result_flow = self.result_flows[node.name]
        while self.running:
            if deadline is not None and self.sim.now >= deadline:
                break
            if budget[0] <= 0:
                break
            budget[0] -= 1
            frame_id = next(self._next_frame)
            # 1. storage -> compute (WAN striped read)
            self._log("MPIPE_START_READ", frame_id, node)
            yield session.read(self.frame_bytes)
            self._log("MPIPE_END_READ", frame_id, node)
            # 2. analysis on the compute node
            self._log("MPIPE_START_ANALYZE", frame_id, node)
            token = node.cpu.add_load(self.analysis_cpu, 0.0)
            yield Timeout(self.analysis_time)
            node.cpu.remove_load(token)
            self._log("MPIPE_END_ANALYZE", frame_id, node)
            # 3. compute -> viz (LAN result transfer)
            self._log("MPIPE_START_SEND", frame_id, node)
            yield result_flow.request(self.result_bytes)
            self._log("MPIPE_END_SEND", frame_id, self.viz)
            # 4. display
            self._log("MPIPE_START_DISPLAY", frame_id, self.viz)
            yield Timeout(self.display_time)
            self._log("MPIPE_END_DISPLAY", frame_id, self.viz)
            self.frames_displayed += 1
            self.display_times.append(self.sim.now)
        self.running = self.running and budget[0] > 0

    # -- analysis ---------------------------------------------------------------

    def mean_frame_rate(self) -> float:
        if len(self.display_times) < 2:
            return 0.0
        span = self.display_times[-1] - self.display_times[0]
        return (len(self.display_times) - 1) / span if span > 0 else 0.0

    def total_retransmits(self) -> int:
        return sum(s.total_retransmits() for s in self.sessions.values())

    def close(self) -> None:
        self.running = False
        for session in self.sessions.values():
            session.close()
        for flow in self.result_flows.values():
            flow.stop()
