"""Directory client: lookup/publish with replica failover and referrals.

"LDAP also supports the notion of replicated servers, providing fault
tolerance.  Replication is critical to JAMM" (§2.2).  The client holds
an ordered server list: writes go to the first *writable* (master)
server; reads prefer the first *up* server and fail over down the list.
Referral chasing is supported one level deep (site directories under a
root, per the paper's hierarchical-LDAP description).
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from ...simgrid.kernel import EventFlag
from ..resilience import ResiliencePolicy
from .entry import Entry
from .server import (DirectoryError, DirectoryServer, LDAP_PORT, Referral,
                     SearchResult)

__all__ = ["DirectoryClient", "unwrap_directory"]


def unwrap_directory(obj: Any, suffix: Optional[str] = None) -> tuple:
    """Accept a directory client or a ``repro.client.MonitoringClient``
    facade; return ``(directory, suffix)``.

    Surfaces that only need directory reads/writes (GUIs, the
    network-aware client) take either object; the facade is recognized
    by its ``sensors`` + ``directory`` attributes.  An explicitly
    passed ``suffix`` always wins; ``None`` means "the facade's suffix,
    or the default ``o=grid``"."""
    if hasattr(obj, "sensors") and hasattr(obj, "directory"):
        if suffix is None:
            suffix = getattr(obj, "suffix", None)
        obj = obj.directory
    return obj, (suffix if suffix is not None else "o=grid")


class DirectoryClient:
    """In-process client used by managers, gateways, and consumers.

    Operations are synchronous against the server objects (the
    networked, queued path is exercised through
    :meth:`search_remote` / :meth:`write_remote`, which benchmarks use
    to measure service latency under load).
    """

    def __init__(self, servers: Iterable[DirectoryServer], *,
                 host: Any = None, transport: Any = None,
                 principal: Any = None,
                 all_servers: Optional[dict] = None,
                 resilience: Optional[ResiliencePolicy] = None):
        self.servers = list(servers)
        if not self.servers:
            raise ValueError("need at least one directory server")
        self.host = host
        self.transport = transport
        self.principal = principal
        #: name -> server, for referral chasing
        self.all_servers = dict(all_servers or {})
        for server in self.servers:
            self.all_servers.setdefault(server.name, server)
        self.failovers = 0
        #: optional :class:`ResiliencePolicy`: endpoint health ranks
        #: master-vs-replica reads, and the networked path
        #: (:meth:`search_resilient`) gets deadline/budget/breaker
        #: protection.  In-process liveness (``server.up``) stays
        #: authoritative — health only orders servers whose liveness
        #: cannot be read directly, so an all-healthy list keeps its
        #: configured order (digest-neutral when no faults happen).
        self.resilience = resilience

    # -- server selection ---------------------------------------------------

    def _read_server(self) -> DirectoryServer:
        candidates = [s for s in self.servers if s.up]
        if not candidates:
            if self.resilience is not None:
                self.resilience.edge("directory.read")["failures"] += 1
            raise DirectoryError("no directory server is up")
        chosen = candidates[0]
        if self.resilience is not None and len(candidates) > 1:
            by_key = {("ldap", s.name): s for s in candidates}
            ranked = self.resilience.rank_endpoints(list(by_key))
            chosen = by_key[ranked[0]]
        if chosen is not self.servers[0]:
            self.failovers += 1
        return chosen

    def _write_server(self) -> DirectoryServer:
        for server in self.servers:
            if server.up and not server.is_replica:
                return server
        raise DirectoryError("no writable directory server is up")

    # -- synchronous API -------------------------------------------------------

    def search(self, base: str, filter_text: str = "(objectclass=*)", *,
               scope: str = "sub", chase_referrals: bool = True) -> SearchResult:
        if self.resilience is not None:
            self.resilience.edge("directory.search")["attempts"] += 1
        server = self._read_server()
        result = server.search_now(base, filter_text, scope=scope,
                                   principal=self.principal)
        if chase_referrals and result.referrals:
            for ref in result.referrals:
                target = self.all_servers.get(ref.server)
                if target is None or not target.up:
                    continue
                sub = target.search_now(base, filter_text, scope=scope,
                                        principal=self.principal)
                known = {str(e.dn) for e in result.entries}
                result.entries.extend(e for e in sub.entries
                                      if str(e.dn) not in known)
        return result

    def get(self, dn: str) -> Optional[Entry]:
        result = self.search(dn, "(objectclass=*)", scope="base",
                             chase_referrals=False)
        return result.entries[0] if result.entries else None

    def add(self, dn: str, attributes: Optional[dict] = None) -> Entry:
        return self._write_server().add_now(dn, attributes,
                                            principal=self.principal)

    def modify(self, dn: str, changes: dict, *, upsert: bool = False) -> Entry:
        return self._write_server().modify_now(dn, changes, upsert=upsert,
                                               principal=self.principal)

    def publish(self, dn: str, attributes: dict) -> Entry:
        """Upsert convenience used by sensor managers."""
        return self.modify(dn, attributes, upsert=True)

    def delete(self, dn: str) -> bool:
        return self._write_server().delete_now(dn, principal=self.principal)

    def persistent_search(self, base: str, filter_text: str, callback) -> int:
        """Register an LDAPv3-style persistent search on the read server."""
        if self.resilience is not None:
            self.resilience.edge("directory.psearch")["attempts"] += 1
        return self._read_server().persistent_search(base, filter_text,
                                                     callback=callback)

    # -- networked API (measured path) --------------------------------------------

    def _require_net(self) -> None:
        if self.host is None or self.transport is None:
            raise DirectoryError("networked ops need host= and transport=")

    def search_remote(self, base: str, filter_text: str = "(objectclass=*)",
                      *, scope: str = "sub",
                      timeout: float = 10.0) -> EventFlag:
        """Send a search over the wire; flag triggers with the response
        dict (or an exception instance on failure)."""
        self._require_net()
        server = self._read_server()
        return self.transport.request(
            self.host, server.host, LDAP_PORT,
            {"op": "search", "base": base, "filter": filter_text,
             "scope": scope, "principal": self.principal},
            size_bytes=300, timeout=timeout)

    def search_remote_at(self, server: DirectoryServer, base: str,
                         filter_text: str = "(objectclass=*)", *,
                         scope: str = "sub",
                         timeout: float = 10.0) -> EventFlag:
        """:meth:`search_remote` aimed at one specific server — the
        building block endpoint-health failover drives."""
        self._require_net()
        return self.transport.request(
            self.host, server.host, LDAP_PORT,
            {"op": "search", "base": base, "filter": filter_text,
             "scope": scope, "principal": self.principal},
            size_bytes=300, timeout=timeout)

    def search_resilient(self, base: str,
                         filter_text: str = "(objectclass=*)", *,
                         scope: str = "sub", timeout: Optional[float] = None,
                         deadline: Any = None):
        """Drive a networked search through the resilience policy.

        A generator for ``yield from`` inside a simulation process:
        candidate servers are tried in endpoint-health order under the
        policy's deadline/backoff/budget/breaker rules, so a flaky or
        partitioned master sheds load to the replica instead of being
        hammered.  Returns the policy's ``(ok, value, key, attempts)``
        tuple, where ``value`` is the response dict (or the last
        exception on failure).
        """
        self._require_net()
        if self.resilience is None:
            raise DirectoryError("search_resilient needs a resilience policy")
        by_key = {("ldap", s.name): s for s in self.servers}

        def start(key, per_timeout):
            return self.search_remote_at(by_key[key], base, filter_text,
                                         scope=scope, timeout=per_timeout)

        result = yield from self.resilience.drive(
            "directory.search_remote", list(by_key), start,
            size_bytes=300, timeout=timeout, deadline=deadline)
        return result

    def write_remote(self, op: str, dn: str, payload: Optional[dict] = None,
                     *, timeout: float = 10.0) -> EventFlag:
        """Send add/modify/delete over the wire to the master."""
        self._require_net()
        server = self._write_server()
        request = {"op": op, "dn": dn, "principal": self.principal}
        if op == "add":
            request["attributes"] = payload
        elif op == "modify":
            request["changes"] = payload or {}
            request["upsert"] = True
        return self.transport.request(self.host, server.host, LDAP_PORT,
                                      request, size_bytes=300, timeout=timeout)
