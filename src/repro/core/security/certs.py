"""Toy X.509-style identity certificates (paper §7.1).

"Public key based X.509 identity certificates are a recognized solution
for cross-realm identification of users."  Real asymmetric crypto is
out of scope (and unnecessary for reproducing the *authorization
architecture*), so signatures are HMAC-like hashes over the certificate
content keyed by the issuer's secret: unforgeable within the simulation
(nobody else holds the secret), verifiable by the issuing
:class:`CertificateAuthority`.

GSI-style *proxy certificates* (short-lived credentials signed by a
user certificate's holder) are supported via :meth:`Certificate.issue_proxy`
— "Globus clients in a Grid environment [can] present Globus proxy
ids, and non-Globus clients ... standard X.509 identity certificates".
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Mapping, Optional

__all__ = ["Certificate", "CertificateAuthority", "CertError", "TrustStore"]


class CertError(RuntimeError):
    """Invalid, expired, or untrusted certificate."""


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


@dataclass
class Certificate:
    """An identity (or attribute/proxy) certificate."""

    subject: str
    issuer: str
    serial: int
    not_before: float
    not_after: float
    attributes: dict = field(default_factory=dict)
    is_proxy: bool = False
    parent: Optional["Certificate"] = None
    signature: str = ""
    #: holder's private secret (never serialized; used to sign proxies)
    _secret: str = field(default="", repr=False)
    #: proxies minted from this certificate (drives proxy serials)
    _proxies: int = field(default=0, repr=False)

    def content_digest(self) -> str:
        attrs = "|".join(f"{k}={v}" for k, v in sorted(self.attributes.items()))
        return _digest(self.subject, self.issuer, str(self.serial),
                       f"{self.not_before:.6f}", f"{self.not_after:.6f}",
                       attrs, str(self.is_proxy))

    def valid_at(self, when: float) -> bool:
        return self.not_before <= when <= self.not_after

    def issue_proxy(self, *, not_after: float,
                    attributes: Optional[Mapping[str, str]] = None) -> "Certificate":
        """Sign a short-lived proxy with this certificate's secret.

        The proxy subject is ``<subject>/proxy`` (mirroring GSI's
        ``/CN=proxy`` convention) and cannot outlive its parent.
        """
        if not self._secret:
            raise CertError("this certificate object does not hold the "
                            "private secret; only the holder can sign proxies")
        # proxy serials derive from the parent serial, not a process
        # counter: serials land in content_digest(), so worlds sharing
        # the interpreter must mint identical sequences
        self._proxies += 1
        proxy = Certificate(
            subject=f"{self.subject}/proxy",
            issuer=self.subject,
            serial=self.serial * 1000 + self._proxies,
            not_before=self.not_before,
            not_after=min(not_after, self.not_after),
            attributes=dict(attributes or {}),
            is_proxy=True,
            parent=self,
        )
        proxy.signature = _digest(proxy.content_digest(), self._secret)
        proxy._secret = _digest("proxy-secret", self._secret, str(proxy.serial))
        return proxy

    @property
    def identity(self) -> str:
        """The effective identity: proxies act as their parent subject."""
        cert: Certificate = self
        while cert.is_proxy and cert.parent is not None:
            cert = cert.parent
        return cert.subject

    def public_view(self) -> "Certificate":
        """A copy without the private secret (what goes on the wire)."""
        dup = Certificate(subject=self.subject, issuer=self.issuer,
                          serial=self.serial, not_before=self.not_before,
                          not_after=self.not_after,
                          attributes=dict(self.attributes),
                          is_proxy=self.is_proxy, parent=self.parent,
                          signature=self.signature)
        return dup


class CertificateAuthority:
    """Issues and verifies identity/attribute certificates."""

    def __init__(self, name: str, *, secret_seed: str = ""):
        self.name = name
        self._secret = _digest("ca-secret", name, secret_seed)
        self.issued = 0
        # per-CA serial space (serials are digested — see issue_proxy)
        self._next_serial = 1000

    def issue(self, subject: str, *, not_before: float = 0.0,
              not_after: float = 1e9,
              attributes: Optional[Mapping[str, str]] = None) -> Certificate:
        if not subject:
            raise CertError("empty subject")
        serial = self._next_serial
        self._next_serial += 1
        cert = Certificate(subject=subject, issuer=self.name,
                           serial=serial, not_before=not_before,
                           not_after=not_after,
                           attributes=dict(attributes or {}))
        cert.signature = _digest(cert.content_digest(), self._secret)
        cert._secret = _digest("holder-secret", self._secret, str(cert.serial))
        self.issued += 1
        return cert

    def verify_signature(self, cert: Certificate) -> bool:
        if cert.issuer != self.name:
            return False
        return cert.signature == _digest(cert.content_digest(), self._secret)


class TrustStore:
    """Trust anchors + chain verification."""

    def __init__(self, authorities: Optional[list] = None):
        self._cas: dict[str, CertificateAuthority] = {}
        for ca in authorities or []:
            self.add_authority(ca)

    def add_authority(self, ca: CertificateAuthority) -> None:
        self._cas[ca.name] = ca

    def verify(self, cert: Certificate, *, when: float) -> str:
        """Verify the chain; returns the effective identity.

        Walks proxy chains to the CA-issued end-entity certificate,
        checking every signature and validity window.
        """
        seen = 0
        current = cert
        while True:
            seen += 1
            if seen > 8:
                raise CertError("certificate chain too long")
            if not current.valid_at(when):
                raise CertError(f"certificate for {current.subject!r} "
                                f"expired or not yet valid at t={when:.3f}")
            if current.is_proxy:
                parent = current.parent
                if parent is None:
                    raise CertError("proxy certificate without a parent")
                expected = _digest(current.content_digest(), parent._secret)
                if not parent._secret or current.signature != expected:
                    # verify against the parent's *public* material: we
                    # recompute using the parent's holder secret, which the
                    # verifier reconstructs through the CA in this model
                    ca = self._cas.get(self._root_issuer(parent))
                    if ca is None:
                        raise CertError(
                            f"untrusted issuer {current.issuer!r} for proxy")
                    rebuilt = _digest("holder-secret", ca._secret,
                                      str(parent.serial))
                    if current.signature != _digest(current.content_digest(),
                                                    rebuilt):
                        raise CertError("bad proxy signature")
                current = parent
                continue
            ca = self._cas.get(current.issuer)
            if ca is None:
                raise CertError(f"untrusted issuer {current.issuer!r}")
            if not ca.verify_signature(current):
                raise CertError(f"bad signature on {current.subject!r}")
            return cert.identity

    @staticmethod
    def _root_issuer(cert: Certificate) -> str:
        current = cert
        while current.is_proxy and current.parent is not None:
            current = current.parent
        return current.issuer
