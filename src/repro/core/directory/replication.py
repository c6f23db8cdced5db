"""Replicated directory deployment helpers.

"Replication is critical to JAMM.  Otherwise, failure of the sensor
directory server could take down the entire system" (§2.2).  These
helpers stand up a master plus N replicas on given hosts and build
failover-aware clients.

:class:`DirectoryReplicator` is the master-side shipping engine: every
committed write becomes one incremental (generation, op, dn, payload)
delta, and a full snapshot is sent only when a replica's generation
does not line up (fresh attach, missed deltas while down, or detected
divergence) — the slapd model of a changelog with out-of-band resync.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

from .client import DirectoryClient
from .server import DirectoryError, DirectoryServer, LDAPBackend

__all__ = ["DirectoryReplicator", "ReplicatedDirectory",
           "deploy_replicated_directory"]


class DirectoryReplicator:
    """Ships incremental write deltas from one master to its replicas.

    The master stamps each committed write with a monotonically
    increasing ``generation``.  A replica applies a delta only when it
    extends its ``applied_generation`` by exactly one:

    * delta ``generation <= applied_generation`` — already covered by a
      snapshot that raced the delta; dropped as stale;
    * delta ``generation == applied_generation + 1`` — applied
      incrementally (the steady-state path; no snapshot traffic);
    * anything later — the replica missed deltas (it was down, or was
      just attached), so incremental replay is unsafe and a full
      :meth:`snapshot` resync runs instead.

    Apply-time :class:`DirectoryError` (e.g. a duplicate add against a
    diverged tree) also heals via snapshot rather than being silently
    swallowed.
    """

    #: edge name in the resilience policy's counters
    EDGE = "directory.replicate"

    def __init__(self, master: DirectoryServer):
        self.master = master
        self.deltas_shipped = 0
        self.deltas_applied = 0
        self.snapshots = 0
        self.stale_dropped = 0
        #: deltas lost to partitions / down hosts (each one forces a
        #: generation gap, which heals via snapshot once reachable)
        self.deltas_lost = 0
        #: deltas never scheduled because the replica's circuit breaker
        #: was open (the gap heals via snapshot / anti-entropy later)
        self.deltas_skipped = 0
        #: optional :class:`repro.core.resilience.ResiliencePolicy`.
        #: When set, delivery outcomes feed per-replica breakers and
        #: health, and :meth:`ship` stops hammering a replica whose
        #: breaker is open instead of queueing doomed deltas.  The
        #: anti-entropy monitor stays breaker-blind, so convergence
        #: never depends on the policy.
        self.resilience = None

    def reachable(self, replica: DirectoryServer) -> bool:
        """Can the master's host currently reach the replica's host?

        In-process groups (no hosts) are always reachable.  A down host
        on either side, or no surviving route, means delta/snapshot
        traffic is lost — the partition model."""
        m_host = self.master.host
        r_host = replica.host
        return m_host is None or r_host is None or m_host.can_reach(r_host)

    # -- master side -------------------------------------------------------

    def ship(self, op: str, dn: Any, payload: Optional[dict]) -> None:
        """Commit one write into the replication stream."""
        self.master.generation += 1
        generation = self.master.generation
        policy = self.resilience
        for replica in self.master.replicas:
            if policy is not None:
                if not policy.breaker(("replica", replica.name)).allow(
                        self.master.sim.now):
                    policy.edge(self.EDGE)["breaker_rejections"] += 1
                    self.deltas_skipped += 1
                    continue
                policy.edge(self.EDGE)["attempts"] += 1
            self.deltas_shipped += 1
            self.master.sim.call_in(self.master.replication_delay,
                                    self.deliver, replica, generation,
                                    op, dn, payload)

    def snapshot(self, replica: DirectoryServer) -> None:
        """Full resync: replace the replica's tree with the master's and
        fast-forward its generation high-water mark."""
        self.snapshots += 1
        replica.backend.clear()
        for entry in self.master.backend.entries.values():
            replica.backend.put(entry.copy())
        replica.applied_generation = self.master.generation
        replica.sync_source = self

    # -- replica side ------------------------------------------------------

    def deliver(self, replica: DirectoryServer, generation: int, op: str,
                dn: Any, payload: Optional[dict]) -> None:
        if not replica.is_replica:
            # the target was promoted while this delta was in flight; a
            # master never applies (or snapshots from) another stream
            self.stale_dropped += 1
            return
        if not replica.up:
            self._note_outcome(replica, False)
            return  # the generation gap forces a snapshot after recovery
        if not self.reachable(replica):
            # partitioned mid-stream: the delta is lost on the wire.
            # The replica's generation now lags; the first delta that
            # arrives after the heal sees the gap and snapshot-resyncs.
            self.deltas_lost += 1
            self._note_outcome(replica, False)
            return
        if replica.sync_source is not self:
            # the replica is synced to a different stream (a promotion
            # happened, or it was never snapshot): generations do not
            # compare across masters.  If it is still ours, adopt it
            # with a snapshot; an in-flight delta from a demoted master
            # is simply dropped.
            if replica in self.master.replicas and not self.master.is_replica:
                self.snapshot(replica)
            else:
                self.stale_dropped += 1
            return
        if generation <= replica.applied_generation:
            self.stale_dropped += 1
            return  # a snapshot already covered this write
        if generation > replica.applied_generation + 1:
            self.snapshot(replica)
            self._note_outcome(replica, True)
            return
        try:
            if op == "add":
                replica.add_now(dn, payload, _from_master=True)
            elif op == "modify":
                replica.modify_now(dn, payload or {}, upsert=True,
                                   _from_master=True)
            elif op == "delete":
                replica.delete_now(dn, _from_master=True)
            replica.applied_generation = generation
            self.deltas_applied += 1
            self._note_outcome(replica, True)
        except DirectoryError:
            self.snapshot(replica)  # diverged tree: heal with a full sync
            self._note_outcome(replica, True)

    def _note_outcome(self, replica: DirectoryServer, ok: bool) -> None:
        """Feed one delivery outcome into the per-replica breaker and
        health score (no-op without a policy).  A snapshot resync counts
        as success: the replica was reachable and converged."""
        if self.resilience is None:
            return
        if ok:
            self.resilience.succeed(self.EDGE, ("replica", replica.name))
        else:
            self.resilience.fail(self.EDGE, ("replica", replica.name))


class ReplicatedDirectory:
    """A master + replicas group with client-construction helpers."""

    def __init__(self, master: DirectoryServer,
                 replicas: Sequence[DirectoryServer]):
        self.master = master
        self.replicas = list(replicas)
        #: automatic failovers performed by the self-healing monitor
        self.auto_promotions = 0
        self.anti_entropy_snapshots = 0
        self._healer = None
        #: replica name -> applied_generation at the last healthy check,
        #: so anti-entropy only resyncs replicas that made NO progress
        #: (in-flight deltas are not "lag")
        self._lag_marks: dict[str, int] = {}

    @property
    def servers(self) -> list[DirectoryServer]:
        return [self.master, *self.replicas]

    def client(self, *, host: Any = None, transport: Any = None,
               principal: Any = None, prefer_replica: bool = False,
               resilience: Any = None) -> DirectoryClient:
        """A failover client.  ``prefer_replica`` orders a replica first
        for reads (load spreading); writes always reach the master."""
        order = self.servers
        if prefer_replica and self.replicas:
            order = [*self.replicas, self.master]
        return DirectoryClient(order, host=host, transport=transport,
                               principal=principal,
                               all_servers={s.name: s for s in self.servers},
                               resilience=resilience)

    def fail_master(self) -> None:
        self.master.fail()

    def resync(self) -> None:
        """Full snapshot of every up replica from the master's tree (the
        out-of-band catch-up real slapd replication performs)."""
        for replica in self.replicas:
            if not replica.up:
                continue
            self.master.replicator.snapshot(replica)

    # -- self-healing monitor ------------------------------------------------

    def start_self_healing(self, *, check_interval: float = 5.0,
                           master_grace: int = 2) -> None:
        """Supervise the group: auto-promote a replica when the master
        stays dead for ``master_grace`` consecutive checks, and run an
        anti-entropy pass that snapshot-resyncs reachable replicas
        stuck off the master's stream (recovered crashes, healed
        partitions with no subsequent write traffic)."""
        if self._healer is not None and self._healer.alive:
            return
        self._healer = self.master.sim.spawn(
            self._heal_loop(check_interval, master_grace),
            name="directory-self-heal")

    def _master_dead(self) -> bool:
        master = self.master
        if not master.up:
            return True
        return master.host is not None and not master.host.up

    def _heal_loop(self, interval: float, grace: int):
        from ...simgrid.kernel import Timeout  # local: avoid module cycle
        misses = 0
        while True:
            yield Timeout(interval)
            if self._master_dead():
                misses += 1
                if misses >= grace and self.promote_replica() is not None:
                    self.auto_promotions += 1
                    misses = 0
                continue
            misses = 0
            self._anti_entropy_pass()

    def _anti_entropy_pass(self) -> None:
        """Resync replicas that are stuck: off the master's stream
        (foreign/none sync source) or behind with no progress since the
        last check.  Reachability-gated, so a partitioned replica is
        left alone until the partition heals."""
        replicator = self.master.replicator
        for replica in list(self.replicas):
            if not replica.up or not replicator.reachable(replica):
                continue
            prev = self._lag_marks.get(replica.name)
            self._lag_marks[replica.name] = replica.applied_generation
            if replica.sync_source is not replicator:
                stuck = True   # foreign stream: generations don't compare
            else:
                behind = replica.applied_generation < self.master.generation
                stuck = behind and prev == replica.applied_generation
            if stuck:
                replicator.snapshot(replica)
                self.anti_entropy_snapshots += 1
                self._lag_marks[replica.name] = replica.applied_generation

    def promote_replica(self) -> Optional[DirectoryServer]:
        """Promote the first up replica to master (manual failover)."""
        for replica in self.replicas:
            if replica.up:
                replica.is_replica = False
                # shed the replica-side stream state: generations from
                # the dead master's stream are meaningless to a master
                replica.sync_source = None
                replica.applied_generation = 0
                # every other replica — down ones included — follows the
                # new master's stream from here on
                replica.replicas = [s for s in self.servers
                                    if s is not replica and s.is_replica]
                for follower in replica.replicas:
                    if follower.up:
                        # up survivors are assumed current as of the
                        # promotion point; deltas extend the new stream
                        follower.applied_generation = replica.generation
                        follower.sync_source = replica.replicator
                    # a down follower keeps its old sync source: the
                    # first delta it sees after recovery comes from a
                    # foreign stream and snapshot-adopts it
                self.replicas = [s for s in self.replicas if s is not replica]
                old_master = self.master
                self.master = replica
                # the new master's shipping engine inherits the group's
                # resilience policy (per-replica breakers carry over)
                replica.replicator.resilience = \
                    old_master.replicator.resilience
                # the demoted master must stop shipping: its queued
                # deltas carry generations from a dead stream
                old_master.replicas = []
                # ...and it rejoins the group as a replica (even while
                # down: the sync-source/generation checks snapshot it
                # back to health at its first delta after recovery)
                old_master.is_replica = True
                self.replicas.append(old_master)
                replica.replicas.append(old_master)
                return replica
        return None


def deploy_replicated_directory(sim, *, hosts: Iterable[Any] = (),
                                transport: Any = None,
                                n_replicas: int = 1,
                                backend_factory=LDAPBackend,
                                suffix: str = "o=grid",
                                replication_delay: float = 0.05,
                                authz: Any = None,
                                resilience: Any = None) -> ReplicatedDirectory:
    """Create a master + ``n_replicas`` group.

    When ``hosts`` are supplied (master first), servers bind the LDAP
    port on them and serve networked requests; otherwise they are
    in-process only.  An optional ``resilience`` policy is installed on
    every server's replicator so delta shipping gets per-replica
    breakers/health (and survives promotions).
    """
    host_list = list(hosts)

    def make(i: int, is_replica: bool) -> DirectoryServer:
        host = host_list[i] if i < len(host_list) else None
        return DirectoryServer(
            sim, name=f"ldap{i}", suffix=suffix,
            backend=backend_factory(), host=host,
            transport=transport if host is not None else None,
            is_replica=is_replica, replication_delay=replication_delay,
            authz=authz)

    master = make(0, False)
    replicas = [make(i + 1, True) for i in range(n_replicas)]
    for replica in replicas:
        master.add_replica(replica)
    if resilience is not None:
        for server in (master, *replicas):
            server.replicator.resilience = resilience
    return ReplicatedDirectory(master, replicas)
