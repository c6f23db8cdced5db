"""Round-based TCP flow model.

Bulk data (DPSS block reads, iperf tests) moves through
:class:`TCPFlow` objects that implement per-RTT congestion-control
rounds: slow start, AIMD congestion avoidance, fast recovery on loss,
and retransmission timeouts.  The model is deliberately at the
granularity the paper's sensors observe — retransmission counters and
window sizes (the modified-tcpdump sensor, §6) — not per-segment.

Loss sources, in order of application each round:

1. **Path loss** — random per-packet loss from link ``loss_rate``.
2. **Receiver multi-socket loss** — per-packet drop probability from
   :class:`repro.simgrid.host.NICModel` when several sockets receive
   concurrently (the paper's gigabit-driver bottleneck).
3. **Congestion** — the receiver NIC's token bucket
   (:attr:`repro.simgrid.host.NICModel.rx_bucket`, its sustainable
   receive rate) paces the round, and what it grants queues in the
   bottleneck link's per-direction FIFO; demand beyond the granted
   tokens, and what overflows the FIFO, is treated as queue-overflow
   loss.

Why this reproduces §6: the multi-socket drop *rate* is independent of
round-trip time, but AIMD throughput under a loss rate ``p`` scales as
``MSS / (RTT * sqrt(p))`` — so the same four-socket drops that are
invisible on a 0.4 ms LAN collapse aggregate throughput on a 60 ms WAN,
while a single socket (no multi-socket drops) rides at the receiver
window limit (1 MB / 60 ms ≈ 140 Mbit/s).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Optional

from .host import Host
from .kernel import EventFlag, Simulator, Timeout

__all__ = ["TCPFlow", "poisson_draw", "TCPStats", "RequestFailed"]


class RequestFailed:
    """Error marker a persistent request's flag triggers with when the
    connection closes before the request is fully delivered.

    Success triggers with the :class:`TCPFlow` itself, so callers
    distinguish the two by type — a failed read must not be mistaken
    for a complete one (it was: DPSS logged full-size ``DPSS_END_READ``
    events for reads that died mid-flight).
    """

    __slots__ = ("flow", "requested", "delivered")

    def __init__(self, flow: "TCPFlow", requested: int, delivered: int):
        self.flow = flow
        self.requested = requested
        self.delivered = delivered

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<RequestFailed {self.flow.name} "
                f"{self.delivered}/{self.requested}B>")


def poisson_draw(rng, lam: float) -> int:
    """Sample a Poisson(lam) variate (Knuth for small lam, normal approx
    beyond) — used to approximate per-round binomial loss counts."""
    if lam <= 0:
        return 0
    if lam < 30.0:
        threshold = math.exp(-lam)
        k = 0
        p = 1.0
        while True:
            p *= rng.random()
            if p <= threshold:
                return k
            k += 1
    # normal approximation for large lam
    return max(0, int(round(rng.gauss(lam, math.sqrt(lam)))))


class TCPStats:
    """Counters and time series for one flow."""

    def __init__(self) -> None:
        self.bytes_acked = 0
        self.packets_sent = 0
        self.packets_lost = 0
        self.retransmits = 0
        self.timeouts = 0
        self.rounds = 0
        #: cumulative queuing delay experienced at the bottleneck link
        self.queue_delay_s = 0.0
        #: packets lost to bottleneck queue overflow (subset of
        #: ``packets_lost``)
        self.queue_drops = 0
        #: (time, cumulative bytes_acked) samples, one per round
        self.progress: list[tuple[float, int]] = []
        #: (time, cwnd_packets) samples on every change
        self.cwnd_history: list[tuple[float, int]] = []

    def throughput_bps(self, t0: float, t1: float) -> float:
        """Average goodput over [t0, t1] from the progress series."""
        if t1 <= t0 or not self.progress:
            return 0.0
        b0 = self._bytes_at(t0)
        b1 = self._bytes_at(t1)
        return (b1 - b0) * 8.0 / (t1 - t0)

    def _bytes_at(self, t: float) -> int:
        best = 0
        for ts, b in self.progress:
            if ts <= t:
                best = b
            else:
                break
        return best

    def throughput_series(self, window: float) -> list[tuple[float, float]]:
        """(t, Mbit/s) series at ``window`` granularity."""
        if not self.progress:
            return []
        out = []
        t_end = self.progress[-1][0]
        t = self.progress[0][0] + window
        while t <= t_end + window:
            bps = self.throughput_bps(t - window, t)
            out.append((t, bps / 1e6))
            t += window
        return out


class TCPFlow:
    """One congestion-controlled bulk-transfer connection."""

    #: initial / minimum retransmission timeout (seconds)
    RTO_MIN = 0.2
    RTO_MAX = 8.0

    def __init__(self, sim: Simulator, network, src: Host, dst: Host, *,
                 dst_port: int, src_port: Optional[int] = None,
                 mss: int = 1460, rwnd_bytes: int = 1 << 20,
                 rng=None, burst_loss_prob: float = 0.0,
                 traffic_class: str = "bulk",
                 name: str = ""):
        self.sim = sim
        self.network = network
        self.src = src
        self.dst = dst
        self.dst_port = dst_port
        self.src_port = (src_port if src_port is not None
                         else 32768 + sim.serial("tcpflow"))
        self.mss = mss
        self.rwnd_pkts = max(1, rwnd_bytes // mss)
        self.rng = rng
        self.burst_loss_prob = burst_loss_prob
        self.traffic_class = traffic_class
        self.name = (name or
                     f"tcp{sim.serial('tcpflow')}:{src.name}->{dst.name}:{dst_port}")

        self.cwnd = 2               # packets
        self.ssthresh = self.rwnd_pkts
        self.rto = self.RTO_MIN
        self.stats = TCPStats()
        self.active = False
        self.nic_rate = 0.0         # pps reported to the receiver NIC
        self.done = EventFlag(sim, name=f"{self.name}.done")

        self._retransmit_cbs: list[Callable[["TCPFlow", int], None]] = []
        self._window_cbs: list[Callable[["TCPFlow", int, int], None]] = []
        self._progress_cbs: list[Callable[["TCPFlow", int], None]] = []
        self._proc = None
        self._target_bytes: Optional[int] = None
        self._deadline: Optional[float] = None
        # persistent mode: queued (nbytes, flag) requests served in order
        self._persistent = False
        self._requests: deque = deque()
        self._request_flag = EventFlag(sim, name=f"{self.name}.requests",
                                       reusable=True)
        self._current_request: Optional[EventFlag] = None
        self._current_nbytes = 0    # size of the request being served

    # -- observer hooks (the tcpdump-style sensor attaches here) -------------

    def on_retransmit(self, cb: Callable[["TCPFlow", int], None]) -> None:
        """``cb(flow, n_retransmits_this_round)``"""
        self._retransmit_cbs.append(cb)

    def on_window_change(self, cb: Callable[["TCPFlow", int, int], None]) -> None:
        """``cb(flow, old_cwnd, new_cwnd)``"""
        self._window_cbs.append(cb)

    def on_progress(self, cb: Callable[["TCPFlow", int], None]) -> None:
        """``cb(flow, bytes_delivered_this_round)`` — receive-side hook
        (the DPSS client models read() syscall sizes from it)."""
        self._progress_cbs.append(cb)

    # -- public API ----------------------------------------------------------

    def transfer(self, nbytes: int):
        """Start transferring ``nbytes``; returns the kernel Process.

        ``flow.done`` triggers with the flow's :class:`TCPStats`.
        """
        self._target_bytes = nbytes
        return self._start()

    def run_for(self, duration: float):
        """Run as a continuous source (iperf-style) for ``duration``."""
        self._deadline = self.sim.now + duration
        return self._start()

    def open_persistent(self):
        """Open a long-lived connection served by :meth:`request`.

        The connection idles (keeping its congestion state) between
        requests — how DPSS keeps its data sockets open across block
        reads.  Close with :meth:`stop`.
        """
        self._persistent = True
        return self._start()

    def request(self, nbytes: int) -> EventFlag:
        """Queue ``nbytes`` on a persistent connection; the returned flag
        triggers (with this flow) when the bytes are fully delivered."""
        if not self._persistent:
            raise RuntimeError(f"{self.name}: request() needs open_persistent()")
        flag = EventFlag(self.sim, name=f"{self.name}.req")
        self._requests.append((int(nbytes), flag))
        self._request_flag.trigger()
        return flag

    def stop(self) -> None:
        self._persistent = False
        self._deadline = self.sim.now  # next round check terminates
        self._request_flag.trigger()   # wake an idle persistent loop

    def _start(self):
        if self.active:
            raise RuntimeError(f"{self.name} already running")
        self.active = True
        self.src.ports.connection_opened(self.src_port)
        self.dst.ports.connection_opened(self.dst_port)
        self.dst.nic.register_rx_flow(self)
        self._proc = self.sim.spawn(self._run(), name=self.name)
        return self._proc

    # -- engine ---------------------------------------------------------------

    def _round_trip(self) -> tuple:
        """Resolve the current route; returns ``(rtt_s, path)``."""
        path = self.network.route(self.src.node, self.dst.node)
        return max(1e-4, path.rtt_s), path

    def _set_cwnd(self, new: int) -> None:
        new = max(1, min(new, self.rwnd_pkts))
        if new != self.cwnd:
            old = self.cwnd
            self.cwnd = new
            self.stats.cwnd_history.append((self.sim.now, new))
            self.src.tcp_counters["window_changes"] += 1
            for cb in self._window_cbs:
                cb(self, old, new)

    def _emit_retransmits(self, count: int) -> None:
        if count <= 0:
            return
        self.stats.retransmits += count
        self.src.tcp_counters["retransmits"] += count
        for cb in self._retransmit_cbs:
            cb(self, count)

    def _finished(self) -> bool:
        if self._persistent:
            return False
        if self._target_bytes is not None and \
                self.stats.bytes_acked >= self._target_bytes:
            return True
        if self._deadline is not None and self.sim.now >= self._deadline:
            return True
        return False

    def _advance_requests(self):
        """Persistent mode: complete/pull requests.  Returns True when
        there is work to do, False when the loop should exit."""
        stats = self.stats
        while True:
            if self._target_bytes is not None and \
                    stats.bytes_acked < self._target_bytes:
                return True  # current request still in flight
            if self._current_request is not None:
                self._current_request.trigger(self)
                self._current_request = None
                self._current_nbytes = 0
                self._target_bytes = None
            if self._requests:
                nbytes, flag = self._requests.popleft()
                self._target_bytes = stats.bytes_acked + nbytes
                self._current_request = flag
                self._current_nbytes = nbytes
                continue
            if not self._persistent:
                return False  # stopped and drained
            return None  # idle: wait for a request

    def _run(self):
        stats = self.stats
        try:
            while True:
                if self._persistent or self._current_request is not None:
                    state = self._advance_requests()
                    if state is False:
                        break
                    if state is None:
                        yield self._request_flag
                        continue
                if self._finished():
                    break
                try:
                    rtt, path = self._round_trip()
                except Exception:  # repro: noqa[RES003] — TCP RTO *is* the policy
                    # NoRouteError: path down.  The transport's own
                    # exponential RTO + cwnd collapse bounds the retry
                    # rate; application-level retries go through
                    # repro.core.resilience instead.
                    stats.timeouts += 1
                    self._emit_retransmits(1)
                    self.ssthresh = max(2, self.cwnd // 2)
                    self._set_cwnd(1)
                    yield Timeout(self.rto)  # repro: noqa[RES003] — bounded RTO wait
                    self.rto = min(self.RTO_MAX, self.rto * 2)
                    continue
                send_pkts = min(self.cwnd, self.rwnd_pkts)
                if self._target_bytes is not None:
                    remaining = self._target_bytes - stats.bytes_acked
                    send_pkts = min(send_pkts,
                                    max(1, (remaining + self.mss - 1) // self.mss))
                send_bytes = send_pkts * self.mss
                stats.rounds += 1

                # --- congestion: receiver NIC ceiling ----------------------
                granted = self.dst.nic.rx_bucket.grant(float(send_bytes))
                granted_pkts = int(granted // self.mss)
                # Un-granted packets are ack-paced (never put on the wire);
                # a small number of queue-overflow drops signal congestion.
                excess = send_pkts - granted_pkts
                congestion_lost = min(excess, 3) if excess > 0 else 0

                # --- shared bottleneck FIFO: this round's burst queues
                # behind cross traffic.  Backlog shows up as extra RTT;
                # what overflows the queue is loss AIMD will react to.
                qdelay = 0.0
                hop = path.bottleneck_hop
                if hop is not None and granted_pkts > 0:
                    bottleneck = path.links[hop]
                    accepted, qdelay = bottleneck.queue_offer(
                        path.nodes[hop], granted_pkts * self.mss,
                        self.sim.now, self.traffic_class)
                    queue_lost = granted_pkts - accepted // self.mss
                    if queue_lost > 0:
                        granted_pkts -= queue_lost
                        congestion_lost += queue_lost
                        stats.queue_drops += queue_lost
                        self.src.tcp_counters["congestion_drops"] += queue_lost
                        path.nodes[hop + 1].interface(bottleneck) \
                            .discards += queue_lost
                if qdelay > 0.0:
                    stats.queue_delay_s += qdelay
                rtt += qdelay

                if granted_pkts == 0 and send_pkts > 0:
                    # receiver/link saturated this instant: stall one round,
                    # halving the window as the overflow drop is detected
                    stats.packets_lost += congestion_lost
                    stats.packets_sent += congestion_lost
                    if congestion_lost:
                        self._emit_retransmits(congestion_lost)
                    self.ssthresh = max(2, self.cwnd // 2)
                    self._set_cwnd(self.ssthresh)
                    yield Timeout(max(rtt, 0.002))
                    continue

                # --- random losses: path + receiver multi-socket ----------
                p_loss = path.loss_rate + self.dst.nic.rx_loss_probability()
                random_lost = 0
                if p_loss > 0 and granted_pkts > 0 and self.rng is not None:
                    random_lost = min(granted_pkts,
                                      poisson_draw(self.rng, granted_pkts * p_loss))
                burst = (self.rng is not None and self.burst_loss_prob > 0
                         and self.rng.random() < self.burst_loss_prob)
                if burst:
                    random_lost = granted_pkts  # whole window lost

                delivered = granted_pkts - random_lost
                lost = congestion_lost + random_lost
                stats.packets_sent += granted_pkts + congestion_lost
                stats.packets_lost += lost
                delivered_bytes = delivered * self.mss
                if self._target_bytes is not None:
                    # don't overshoot the request boundary
                    delivered_bytes = min(delivered_bytes,
                                          self._target_bytes - stats.bytes_acked)
                stats.bytes_acked += delivered_bytes
                stats.progress.append((self.sim.now + rtt, stats.bytes_acked))
                if delivered_bytes > 0:
                    for cb in self._progress_cbs:
                        cb(self, delivered_bytes)

                # --- traffic accounting (port tables + SNMP counters) ------
                acct_bytes = delivered_bytes
                if acct_bytes:
                    now = self.sim.now
                    act = self.src.ports.activity(self.src_port)
                    act.bytes_out += acct_bytes
                    act.packets_out += delivered
                    act.last_activity = now
                    act = self.dst.ports.activity(self.dst_port)
                    act.bytes_in += acct_bytes
                    act.packets_in += delivered
                    act.last_activity = now
                    for node, link in zip(path.nodes[:-1], path.links):
                        link.record_transit(node, acct_bytes, delivered)

                # --- receiver CPU coupling ---------------------------------
                self.nic_rate = delivered / rtt if rtt > 0 else 0.0
                self.dst.nic.refresh_rx_rate()

                # --- congestion control update ------------------------------
                if delivered == 0 and send_pkts > 0:
                    # retransmission timeout: the Fig. 7 "gap with no data"
                    stats.timeouts += 1
                    self._emit_retransmits(max(1, lost))
                    self.ssthresh = max(2, self.cwnd // 2)
                    self._set_cwnd(1)
                    yield Timeout(self.rto)
                    self.rto = min(self.RTO_MAX, self.rto * 2)
                    continue
                if lost > 0:
                    self._emit_retransmits(lost)
                    self.ssthresh = max(2, self.cwnd // 2)
                    self._set_cwnd(self.ssthresh)
                else:
                    if self.cwnd < self.ssthresh:
                        self._set_cwnd(min(self.cwnd * 2, self.ssthresh))
                    else:
                        self._set_cwnd(self.cwnd + 1)
                self.rto = max(self.RTO_MIN, min(self.RTO_MAX, 2.0 * rtt + 0.01))
                yield Timeout(rtt)
        finally:
            self._teardown()

    def _teardown(self) -> None:
        self.active = False
        self.nic_rate = 0.0
        # a closed connection FAILS its outstanding requests: the flag
        # triggers with a RequestFailed marker (success triggers with
        # the flow itself), so callers can tell a dead read from a
        # complete one and see how many bytes actually arrived
        if self._current_request is not None and not self._current_request.triggered:
            short = (self._target_bytes - self.stats.bytes_acked
                     if self._target_bytes is not None else self._current_nbytes)
            self._current_request.trigger(RequestFailed(
                self, self._current_nbytes,
                max(0, self._current_nbytes - short)))
            self._current_request = None
        while self._requests:
            nbytes, flag = self._requests.popleft()
            if not flag.triggered:
                flag.trigger(RequestFailed(self, nbytes, 0))
        self.dst.nic.unregister_rx_flow(self)
        self.dst.nic.refresh_rx_rate()
        self.src.ports.connection_closed(self.src_port)
        self.dst.ports.connection_closed(self.dst_port)
        if not self.done.triggered:
            self.done.trigger(self.stats)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<TCPFlow {self.name} cwnd={self.cwnd} acked={self.stats.bytes_acked}>"
