"""The directory server (LDAP-style), with pluggable storage backends.

Paper §2.2 ("directory service"):

* read-optimized LDAP backends "do not work well in an environment
  with many updates" — :class:`LDAPBackend` models the expensive
  index-maintaining writes;
* "the Globus system uses its own optimized database underneath the
  LDAP communications protocol to improve the performance of updates"
  — :class:`MDSBackend` models that write-optimized engine;
* servers "can be hierarchical, with referrals to other LDAP servers";
* replication "is critical to JAMM.  Otherwise, failure of the sensor
  directory server could take down the entire system";
* LDAPv3 persistent search ("event notification", §2.2/[25]) notifies
  clients when matching entries appear or change.

Networked operations are served by a single-threaded worker process
with per-operation service times from the backend cost model, so
update-heavy load visibly queues reads — experiment E7.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, Optional

from ...simgrid.kernel import EventFlag, Simulator, Timeout
from ...simgrid.sockets import ignore_failure
from .entry import DN, Entry
from .filterlang import (AndFilter, EqualityFilter, OrFilter, SearchFilter,
                         parse_filter_cached)

__all__ = ["DirectoryServer", "DirectoryError", "Backend", "LDAPBackend",
           "MDSBackend", "Referral", "SearchResult", "LDAP_PORT",
           "PersistentSearch", "DEFAULT_INDEXED_ATTRS"]

LDAP_PORT = 389


class DirectoryError(RuntimeError):
    """Directory operation failure (no such entry, duplicate, schema...)."""


@dataclass(frozen=True)
class Referral:
    """Points a client at the server holding a subtree."""

    base: str
    server: str  # host name of the referred-to server


@dataclass
class SearchResult:
    entries: list
    referrals: list

    def dns(self) -> list[str]:
        return [str(e.dn) for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


#: equality-indexed attributes: the discriminating conjuncts consumer
#: filters use — object class, host (both spellings the tree publishes),
#: and the sensor type/name
DEFAULT_INDEXED_ATTRS = ("objectclass", "host", "hostname", "sensortype",
                         "sensor")


class Backend:
    """Storage engine with a per-operation service-time cost model.

    Beyond the DN-keyed entry map, the backend maintains incremental
    attribute-equality indexes (``attr -> value -> {DN}``) that are
    updated on every put/remove — never rebuilt — and a small query
    planner (:meth:`search`) that picks the most selective index to
    produce a candidate set before the filter AST (always the source of
    truth) evaluates.  Full scans survive only for filters with no
    indexable conjunct.
    """

    #: service time charged per read operation (search)
    read_cost = 0.3e-3
    #: service time charged per write operation (add/modify/delete)
    write_cost = 0.3e-3
    name = "base"

    def __init__(self, indexed_attrs: Iterable[str] = DEFAULT_INDEXED_ATTRS) -> None:
        self.entries: dict[DN, Entry] = {}
        self.reads = 0
        self.writes = 0
        self.indexed_attrs = frozenset(a.lower() for a in indexed_attrs)
        #: attr -> value -> insertion-ordered {DN: None} of carriers.  A
        #: dict, not a set: candidate iteration must be deterministic
        #: (hash-randomized order would leak into search results and
        #: break seeded-simulation reproducibility)
        self._indexes: dict[str, dict[str, dict[DN, None]]] = {
            attr: {} for attr in self.indexed_attrs}
        #: DN -> {attr: values} as last indexed, so modifies can unindex
        #: stale postings without a rebuild
        self._posted: dict[DN, dict[str, tuple[str, ...]]] = {}
        self.index_hits = 0
        self.full_scans = 0

    # -- primitive ops -----------------------------------------------------

    def get(self, dn: DN) -> Optional[Entry]:
        return self.entries.get(dn)

    def put(self, entry: Entry) -> None:
        self.writes += 1
        self.entries[entry.dn] = entry
        self._reindex(entry)

    def remove(self, dn: DN) -> bool:
        self.writes += 1
        existed = self.entries.pop(dn, None) is not None
        if existed:
            self._unpost(dn, self._posted.pop(dn, {}))
        return existed

    def clear(self) -> None:
        """Drop every entry (and its postings) — snapshot-resync reset."""
        self.entries.clear()
        self._posted.clear()
        for postings in self._indexes.values():
            postings.clear()

    # -- incremental index maintenance ----------------------------------------

    def _reindex(self, entry: Entry) -> None:
        dn = entry.dn
        old = self._posted.get(dn, {})
        new: dict[str, tuple[str, ...]] = {}
        for attr in self.indexed_attrs:
            values = entry.values(attr)
            if values:
                new[attr] = tuple(values)
        if new == old:
            return
        self._unpost(dn, old)
        for attr, values in new.items():
            postings = self._indexes[attr]
            for value in values:
                postings.setdefault(value, {})[dn] = None
        self._posted[dn] = new

    def _unpost(self, dn: DN, posted: dict) -> None:
        for attr, values in posted.items():
            postings = self._indexes[attr]
            for value in values:
                bucket = postings.get(value)
                if bucket is not None:
                    bucket.pop(dn, None)
                    if not bucket:
                        del postings[value]

    # -- planned search --------------------------------------------------------

    def _candidates(self, node: SearchFilter) -> Optional[dict]:
        """The most selective indexed candidate DNs covering ``node``
        (an insertion-ordered {DN: None}), or None when no indexable
        conjunct exists.  The result may be an internal index bucket —
        callers must not mutate it."""
        if isinstance(node, EqualityFilter):
            if node.attr in self.indexed_attrs:
                return self._indexes[node.attr].get(node.value, _EMPTY_DNS)
            return None
        if isinstance(node, AndFilter):
            best = None
            for part in node.parts:
                cand = self._candidates(part)
                if cand is not None and (best is None or len(cand) < len(best)):
                    best = cand
                    if not best:
                        break  # an empty conjunct decides the AND
            return best
        if isinstance(node, OrFilter):
            union: dict = {}
            for part in node.parts:
                cand = self._candidates(part)
                if cand is None:
                    return None  # one unindexable arm forces the scan
                union.update(cand)
            return union
        return None

    def search(self, base: DN, scope: str, flt: SearchFilter) -> list[Entry]:
        """Matching entries under ``base``: planner-selected candidates,
        verified by full AST evaluation."""
        self.reads += 1
        if scope == "base":
            entry = self.entries.get(base)
            return [entry] if entry is not None and flt.matches(entry) else []
        cand = self._candidates(flt)
        if cand is None:
            self.full_scans += 1
            pool: Iterable[Entry] = self.entries.values()
        else:
            self.index_hits += 1
            entries = self.entries
            pool = (entries[dn] for dn in cand)
        one = scope == "one"
        out = []
        for entry in pool:
            dn = entry.dn
            if not dn.is_under(base):
                continue
            if one and dn.depth_below(base) != 1:
                continue
            if flt.matches(entry):
                out.append(entry)
        return out

    def scan(self, base: DN, scope: str) -> list[Entry]:
        """Unplanned subtree scan (kept as the brute-force reference)."""
        self.reads += 1
        if scope == "base":
            entry = self.entries.get(base)
            return [entry] if entry is not None else []
        out = []
        for dn, entry in self.entries.items():
            if not dn.is_under(base):
                continue
            depth = dn.depth_below(base)
            if scope == "one" and depth != 1:
                continue
            out.append(entry)
        return out

    def __len__(self) -> int:
        return len(self.entries)


#: immutable lookup-miss sentinel shared by every backend — a plain
#: module dict here would be mutable cross-world state
_EMPTY_DNS: Mapping = MappingProxyType({})


class LDAPBackend(Backend):
    """Read-optimized: fast searches, expensive (index-rebuilding) writes."""

    read_cost = 0.3e-3
    write_cost = 12e-3
    name = "ldap"


class MDSBackend(Backend):
    """Globus-MDS-style write-optimized engine: cheap updates, slightly
    costlier reads than a fully-indexed store."""

    read_cost = 1.0e-3
    write_cost = 1.0e-3
    name = "mds"


@dataclass
class PersistentSearch:
    """An LDAPv3-style persistent search registration."""

    psearch_id: int
    base: DN
    search_filter: SearchFilter
    callback: Optional[Callable[[str, Entry], None]] = None
    remote: Optional[tuple] = None  # (host, port) for networked notify
    src_port: Optional[int] = None  # the notify stream's one source port


class DirectoryServer:
    """One directory server instance (master or replica)."""

    def __init__(self, sim: Simulator, *, name: str = "ldap0",
                 suffix: str = "o=grid", backend: Optional[Backend] = None,
                 host: Any = None, transport: Any = None,
                 authz: Any = None, is_replica: bool = False,
                 replication_delay: float = 0.05):
        self.sim = sim
        self.name = name
        self.suffix = DN.parse(suffix)
        self.backend = backend if backend is not None else LDAPBackend()
        self.host = host
        self.transport = transport
        self.authz = authz
        self.is_replica = is_replica
        self.replication_delay = replication_delay
        self.up = True
        self.replicas: list["DirectoryServer"] = []
        #: master-side write counter: every committed write bumps it, and
        #: the replicator stamps the shipped delta with the new value
        self.generation = 0
        #: replica-side high-water mark of contiguously applied deltas
        self.applied_generation = 0
        #: the replicator whose stream ``applied_generation`` counts —
        #: generations are meaningless across masters, so a delta from
        #: any other stream can never advance the mark
        self.sync_source: Any = None
        from .replication import DirectoryReplicator  # avoid import cycle
        self.replicator = DirectoryReplicator(self)
        self.referrals: list[Referral] = []
        self._psearches: dict[int, PersistentSearch] = {}
        # per-server psearch ids (a module counter would leak across
        # worlds and make ids depend on what ran earlier in the process)
        self._psearch_ids = itertools.count(1)
        # networked-request queue served by a single worker
        self._queue: list[tuple[float, dict, Any]] = []
        self._queue_flag = EventFlag(sim, name=f"{name}.queue", reusable=True)
        self._worker = None
        self.op_counts = {"add": 0, "modify": 0, "delete": 0, "search": 0}
        self.op_latencies: dict[str, list[float]] = {
            "add": [], "modify": [], "delete": [], "search": []}
        if host is not None and transport is not None:
            host.ports.bind(LDAP_PORT, self._handle)
            host.register_service("ldap", self)
            self._worker = sim.spawn(self._serve(), name=f"ldap-worker[{name}]")

    # -- lifecycle ---------------------------------------------------------

    def fail(self) -> None:
        """Simulate a server crash (stops answering; queue dropped)."""
        self.up = False
        self._queue.clear()

    def recover(self) -> None:
        self.up = True

    # host fault hooks (Host.crash/restart): the server dies with its
    # host.  Recovery resync is driven by the replication layer — a
    # recovered replica snapshot-adopts at its first delta, or the
    # group's self-healing monitor anti-entropy pass picks it up.
    def on_host_down(self) -> None:
        self.fail()

    def on_host_up(self) -> None:
        self.recover()

    def add_replica(self, replica: "DirectoryServer") -> None:
        """Attach a replica; it receives one full snapshot and then
        incremental write deltas after ``replication_delay``."""
        replica.is_replica = True
        self.replicas.append(replica)
        self.replicator.snapshot(replica)

    def add_referral(self, base: str, server: str) -> None:
        self.referrals.append(Referral(base=base, server=server))

    # -- immediate (in-process) operations -----------------------------------

    def _check_up(self) -> None:
        if not self.up:
            raise DirectoryError(f"server {self.name} is down")

    def _authorize(self, principal: Any, action: str) -> None:
        if self.authz is not None:
            self.authz.require(principal, resource=f"directory:{self.name}",
                               action=action)

    def add_now(self, dn: DN | str, attributes: Optional[dict] = None, *,
                principal: Any = None, _from_master: bool = False) -> Entry:
        self._check_up()
        if not _from_master:  # replication is trusted server-to-server
            self._authorize(principal, "directory.write")
        if self.is_replica and not _from_master:
            raise DirectoryError(f"{self.name} is a read-only replica")
        dn = DN.of(dn)
        if not dn.is_under(self.suffix):
            raise DirectoryError(f"{dn} outside suffix {self.suffix}")
        if self.backend.get(dn) is not None:
            raise DirectoryError(f"entry exists: {dn}")
        entry = Entry(dn, attributes, timestamp=self.sim.now)
        self.backend.put(entry)
        self.op_counts["add"] += 1
        self._notify_psearches("add", entry)
        self._propagate("add", dn, attributes)
        return entry

    def modify_now(self, dn: DN | str, changes: dict, *, principal: Any = None,
                   upsert: bool = False, _from_master: bool = False) -> Entry:
        self._check_up()
        if not _from_master:  # replication is trusted server-to-server
            self._authorize(principal, "directory.write")
        if self.is_replica and not _from_master:
            raise DirectoryError(f"{self.name} is a read-only replica")
        dn = DN.of(dn)
        entry = self.backend.get(dn)
        if entry is None:
            if not upsert:
                raise DirectoryError(f"no such entry: {dn}")
            return self.add_now(dn, {k: v for k, v in changes.items()
                                     if v is not None},
                                principal=principal, _from_master=_from_master)
        entry.apply_changes(changes, timestamp=self.sim.now)
        self.backend.put(entry)
        self.op_counts["modify"] += 1
        self._notify_psearches("modify", entry)
        self._propagate("modify", dn, changes)
        return entry

    def delete_now(self, dn: DN | str, *, principal: Any = None,
                   _from_master: bool = False) -> bool:
        self._check_up()
        if not _from_master:  # replication is trusted server-to-server
            self._authorize(principal, "directory.write")
        if self.is_replica and not _from_master:
            raise DirectoryError(f"{self.name} is a read-only replica")
        dn = DN.of(dn)
        existed = self.backend.remove(dn)
        if existed:
            self.op_counts["delete"] += 1
            self._propagate("delete", dn, None)
        return existed

    def search_now(self, base: DN | str, filter_text: str = "(objectclass=*)",
                   *, scope: str = "sub", principal: Any = None) -> SearchResult:
        self._check_up()
        self._authorize(principal, "directory.read")
        base = DN.of(base)
        flt = parse_filter_cached(filter_text) if isinstance(filter_text, str) \
            else filter_text
        referrals = [r for r in self.referrals
                     if DN.parse(r.base).is_under(base) or base.is_under(DN.parse(r.base))]
        entries: list[Entry] = []
        if base.is_under(self.suffix) or self.suffix.is_under(base):
            scan_base = base if base.is_under(self.suffix) else self.suffix
            entries = self.backend.search(scan_base, scope, flt)
        self.op_counts["search"] += 1
        return SearchResult(entries=[e.copy() for e in entries],
                            referrals=referrals)

    # -- replication -----------------------------------------------------------

    def _propagate(self, op: str, dn: DN, payload: Optional[dict]) -> None:
        if not self.is_replica:
            self.replicator.ship(op, dn, payload)

    # -- persistent search (LDAPv3 event notification) ----------------------------

    def persistent_search(self, base: DN | str, filter_text: str, *,
                          callback: Optional[Callable[[str, Entry], None]] = None,
                          remote: Optional[tuple] = None) -> int:
        """Register interest; returns an id usable with :meth:`cancel_psearch`."""
        ps = PersistentSearch(
            psearch_id=next(self._psearch_ids), base=DN.of(base),
            search_filter=parse_filter_cached(filter_text),
            callback=callback, remote=remote)
        if remote is not None and self.transport is not None:
            ps.src_port = self.transport.ephemeral_port()
        self._psearches[ps.psearch_id] = ps
        return ps.psearch_id

    def cancel_psearch(self, psearch_id: int) -> None:
        self._psearches.pop(psearch_id, None)

    def _notify_psearches(self, op: str, entry: Entry) -> None:
        for ps in list(self._psearches.values()):
            if not entry.dn.is_under(ps.base):
                continue
            if not ps.search_filter.matches(entry):
                continue
            snapshot = entry.copy()
            if ps.callback is not None:
                self.sim.call_soon(ps.callback, op, snapshot)
            if ps.remote is not None and self.transport is not None \
                    and self.host is not None:
                dst_host, dst_port = ps.remote
                self.transport.send(
                    self.host, dst_host, dst_port,
                    {"psearch": ps.psearch_id, "op": op,
                     "entry": snapshot.to_dict()},
                    size_bytes=400, src_port=ps.src_port,
                    on_fail=ignore_failure)

    # -- networked service ------------------------------------------------------------

    def _handle(self, msg, transport) -> None:
        if not self.up:
            return  # dead servers drop requests; clients time out
        self._queue.append((self.sim.now, msg.payload, msg))
        self._queue_flag.trigger()

    def _serve(self):
        while True:
            while not self._queue:
                yield self._queue_flag
            arrived, request, msg = self._queue.pop(0)
            op = request.get("op", "search")
            cost = (self.backend.read_cost if op == "search"
                    else self.backend.write_cost)
            yield Timeout(cost)
            if not self.up:
                continue
            response = self._execute(request)
            self.op_latencies.setdefault(op, []).append(self.sim.now - arrived)
            if self.transport is not None:
                self.transport.reply(msg, response, size_bytes=512)

    def _execute(self, request: dict) -> dict:
        op = request.get("op", "search")
        try:
            if op == "search":
                result = self.search_now(request["base"],
                                         request.get("filter", "(objectclass=*)"),
                                         scope=request.get("scope", "sub"),
                                         principal=request.get("principal"))
                return {"ok": True,
                        "entries": [e.to_dict() for e in result.entries],
                        "referrals": [(r.base, r.server) for r in result.referrals]}
            if op == "add":
                self.add_now(request["dn"], request.get("attributes"),
                             principal=request.get("principal"))
                return {"ok": True}
            if op == "modify":
                self.modify_now(request["dn"], request.get("changes", {}),
                                upsert=request.get("upsert", False),
                                principal=request.get("principal"))
                return {"ok": True}
            if op == "delete":
                self.delete_now(request["dn"],
                                principal=request.get("principal"))
                return {"ok": True}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except Exception as exc:  # noqa: BLE001 - marshalled to the client
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    # -- diagnostics -----------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def entry_count(self) -> int:
        return len(self.backend)

    def __repr__(self) -> str:  # pragma: no cover
        state = "up" if self.up else "DOWN"
        return f"<DirectoryServer {self.name} [{self.backend.name}] {state}>"
