"""The single authorization interface (paper §7.1).

"A wrapper to the LDAP server and the gateway could both call the same
authorization interface with the user's identity and the name of the
resource the user wants to access.  This authorization interface could
return a list of allowed actions, or simply deny access if the user is
unauthorized."

:class:`AuthorizationService` is that interface.  It authenticates the
presented certificate over the SSL-style context, maps the identity
through the gridmap when present, and takes the union of:

* local ACL grants (per local-user, per subject, or ``anonymous`` /
  ``*`` wildcards) — "locally maintained access control lists";
* Akenti use-condition grants — "the more distributed Akenti policy
  certificates".

The §2.2 site-policy example ("only allow internal access to real-time
sensor streams, with only summary data being available off-site") is a
two-line policy: grant ``events.stream`` to ``ou=lbl`` subjects and
``summary.read`` to everyone.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from .akenti import AkentiEngine
from .certs import Certificate, TrustStore
from .gridmap import GridMap
from .ssl import SecureChannelContext, SSLHandshakeError

__all__ = ["AuthorizationService", "AuthorizationError"]


class AuthorizationError(PermissionError):
    pass


class AuthorizationService:
    """Combined authentication + authorization front door."""

    def __init__(self, *, trust: Optional[TrustStore] = None,
                 gridmap: Optional[GridMap] = None,
                 akenti: Optional[AkentiEngine] = None,
                 time_source=None,
                 allow_anonymous: bool = False):
        self.trust = trust
        self.gridmap = gridmap
        self.akenti = akenti
        self._time = time_source or (lambda: 0.0)
        self.allow_anonymous = allow_anonymous
        self.ssl = (SecureChannelContext(trust, require_cert=not allow_anonymous)
                    if trust is not None else None)
        #: resource → {who: set(actions)}; who is a local user, a subject
        #: DN, "anonymous", or "*"
        self._acls: dict[str, dict[str, set]] = {}
        self.checks = 0
        self.denials = 0

    # -- policy management -----------------------------------------------------

    def grant(self, who: str, resource: str, actions: Sequence[str]) -> None:
        self._acls.setdefault(resource, {}).setdefault(who, set()).update(actions)

    # -- the single interface -----------------------------------------------------

    def authenticate(self, credential: Any) -> Optional[str]:
        """Certificate → effective identity (None = anonymous)."""
        if credential is None:
            if not self.allow_anonymous:
                raise AuthorizationError("credential required")
            return None
        if isinstance(credential, str):
            # pre-authenticated identity (co-located caller)
            return credential
        if isinstance(credential, Certificate):
            if self.ssl is None:
                raise AuthorizationError("no trust store configured")
            try:
                peer = self.ssl.handshake(credential, when=self._time())
            except SSLHandshakeError as exc:
                raise AuthorizationError(f"authentication failed: {exc}") from exc
            return peer.identity if peer else None
        raise AuthorizationError(f"unsupported credential {type(credential).__name__}")

    def allowed_actions(self, credential: Any, resource: str,
                        attribute_certs: Sequence[Certificate] = ()) -> set:
        identity = self.authenticate(credential)
        allowed: set = set()
        acl = self._acls.get(resource, {})
        allowed.update(acl.get("*", ()))
        if identity is None:
            allowed.update(acl.get("anonymous", ()))
        else:
            allowed.update(acl.get(identity, ()))
            if self.gridmap is not None:
                local = self.gridmap.lookup(identity)
                if local is not None:
                    allowed.update(acl.get(local, ()))
            if self.akenti is not None:
                allowed.update(self.akenti.allowed_actions(
                    identity, resource, attribute_certs))
        return allowed

    def require(self, credential: Any, *, resource: str, action: str,
                attribute_certs: Sequence[Certificate] = ()) -> str:
        """Raise unless ``action`` is allowed; returns the identity."""
        self.checks += 1
        identity = self.authenticate(credential)
        allowed = self.allowed_actions(credential, resource, attribute_certs)
        if action not in allowed:
            self.denials += 1
            who = identity or "anonymous"
            raise AuthorizationError(
                f"{who} may not perform {action!r} on {resource!r}")
        return identity or "anonymous"
