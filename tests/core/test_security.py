"""Unit tests for certificates, SSL, Akenti, gridmap, and authorization."""

import pytest

from repro.core.security import (AkentiEngine, AuthorizationError,
                                 AuthorizationService, CertError,
                                 Certificate, CertificateAuthority, GridMap,
                                 SecureChannelContext, SSLHandshakeError,
                                 TrustStore, UseCondition)
from repro.core.subscriptions import Delivery, SubscriptionSpec


@pytest.fixture
def ca():
    return CertificateAuthority("doe-grids-ca")


@pytest.fixture
def trust(ca):
    return TrustStore([ca])


class TestCertificates:
    def test_issue_and_verify(self, ca, trust):
        cert = ca.issue("/O=LBNL/CN=Brian Tierney", not_after=100.0)
        assert trust.verify(cert, when=50.0) == "/O=LBNL/CN=Brian Tierney"

    def test_expired_rejected(self, ca, trust):
        cert = ca.issue("/O=LBNL/CN=x", not_after=10.0)
        with pytest.raises(CertError, match="expired"):
            trust.verify(cert, when=20.0)

    def test_not_yet_valid_rejected(self, ca, trust):
        cert = ca.issue("/O=LBNL/CN=x", not_before=100.0, not_after=200.0)
        with pytest.raises(CertError):
            trust.verify(cert, when=50.0)

    def test_untrusted_issuer_rejected(self, trust):
        rogue = CertificateAuthority("rogue-ca")
        cert = rogue.issue("/O=Evil/CN=mallory")
        with pytest.raises(CertError, match="untrusted"):
            trust.verify(cert, when=0.0)

    def test_tampered_certificate_rejected(self, ca, trust):
        cert = ca.issue("/O=LBNL/CN=x")
        cert.attributes["role"] = "admin"  # tamper after signing
        with pytest.raises(CertError, match="signature"):
            trust.verify(cert, when=0.0)

    def test_proxy_chain_resolves_to_owner(self, ca, trust):
        user = ca.issue("/O=LBNL/CN=alice", not_after=1000.0)
        proxy = user.issue_proxy(not_after=100.0)
        assert proxy.is_proxy
        assert trust.verify(proxy, when=50.0) == "/O=LBNL/CN=alice"

    def test_proxy_cannot_outlive_parent(self, ca):
        user = ca.issue("/O=LBNL/CN=alice", not_after=100.0)
        proxy = user.issue_proxy(not_after=500.0)
        assert proxy.not_after == 100.0

    def test_public_view_cannot_sign_proxies(self, ca):
        user = ca.issue("/O=LBNL/CN=alice")
        public = user.public_view()
        with pytest.raises(CertError):
            public.issue_proxy(not_after=10.0)


class TestSSL:
    def test_handshake_success(self, ca, trust):
        ctx = SecureChannelContext(trust)
        cert = ca.issue("/O=LBNL/CN=x")
        peer = ctx.handshake(cert, when=0.0)
        assert peer.identity == "/O=LBNL/CN=x"
        assert ctx.handshakes_ok == 1

    def test_handshake_requires_cert_by_default(self, trust):
        ctx = SecureChannelContext(trust)
        with pytest.raises(SSLHandshakeError):
            ctx.handshake(None, when=0.0)

    def test_anonymous_allowed_when_configured(self, trust):
        ctx = SecureChannelContext(trust, require_cert=False)
        assert ctx.handshake(None, when=0.0) is None

    def test_bad_cert_counted(self, ca, trust):
        ctx = SecureChannelContext(trust)
        cert = ca.issue("/O=LBNL/CN=x", not_after=1.0)
        with pytest.raises(SSLHandshakeError):
            ctx.handshake(cert, when=5.0)
        assert ctx.handshakes_failed == 1


class TestGridMap:
    def test_lookup(self):
        gm = GridMap({"/O=LBNL/CN=alice": "alice"})
        assert gm.lookup("/O=LBNL/CN=alice") == "alice"
        assert gm.lookup("/O=LBNL/CN=bob") is None

    def test_text_roundtrip(self):
        gm = GridMap({"/O=LBNL/CN=alice smith": "asmith",
                      "/O=ANL/CN=bob": "bob"})
        again = GridMap.from_text(gm.to_text())
        assert again.lookup("/O=LBNL/CN=alice smith") == "asmith"
        assert again.subjects() == gm.subjects()

    def test_from_text_skips_comments_and_garbage(self):
        gm = GridMap.from_text('# comment\n\n"/O=X/CN=y" yuser\nbroken\n')
        assert gm.subjects() == ["/O=X/CN=y"]


class TestAkenti:
    def test_dn_component_matching(self):
        engine = AkentiEngine([
            UseCondition(resource="gateway:*", actions=("events.stream",),
                         subject_pattern="/O=LBNL/*")])
        assert engine.allowed_actions("/O=LBNL/CN=x", "gateway:gw0") == \
            {"events.stream"}
        assert engine.allowed_actions("/O=ANL/CN=y", "gateway:gw0") == set()

    def test_attribute_certificate_requirement(self, ca):
        engine = AkentiEngine([
            UseCondition(resource="gateway:gw0", actions=("sensors.control",),
                         required_attributes={"role": "operator"})])
        attr_cert = ca.issue("/O=LBNL/CN=x", attributes={"role": "operator"})
        assert engine.allowed_actions("/O=LBNL/CN=x", "gateway:gw0",
                                      [attr_cert]) == {"sensors.control"}
        assert engine.allowed_actions("/O=LBNL/CN=x", "gateway:gw0") == set()

    def test_grants_union_across_conditions(self):
        engine = AkentiEngine([
            UseCondition(resource="gateway:gw0", actions=("a",)),
            UseCondition(resource="gateway:*", actions=("b",))])
        assert engine.allowed_actions("/CN=x", "gateway:gw0") == {"a", "b"}


class TestAuthorizationService:
    def service(self, ca):
        trust = TrustStore([ca])
        gridmap = GridMap({"/O=LBNL/CN=alice": "alice"})
        akenti = AkentiEngine([
            UseCondition(resource="gateway:*", actions=("summary.read",))])
        return AuthorizationService(trust=trust, gridmap=gridmap,
                                    akenti=akenti)

    def test_acl_by_subject(self, ca):
        authz = self.service(ca)
        authz.grant("/O=LBNL/CN=alice", "gateway:gw0", ["events.stream"])
        cert = ca.issue("/O=LBNL/CN=alice")
        assert authz.require(cert, resource="gateway:gw0",
                             action="events.stream") == "/O=LBNL/CN=alice"

    def test_acl_by_gridmap_local_user(self, ca):
        authz = self.service(ca)
        authz.grant("alice", "directory:ldap0", ["directory.write"])
        cert = ca.issue("/O=LBNL/CN=alice")
        authz.require(cert, resource="directory:ldap0",
                      action="directory.write")

    def test_akenti_grants_merge(self, ca):
        authz = self.service(ca)
        cert = ca.issue("/O=anywhere/CN=stranger")
        authz.require(cert, resource="gateway:gw0", action="summary.read")

    def test_denial_raises_and_counts(self, ca):
        authz = self.service(ca)
        cert = ca.issue("/O=anywhere/CN=stranger")
        with pytest.raises(AuthorizationError):
            authz.require(cert, resource="gateway:gw0",
                          action="events.stream")
        assert authz.denials == 1

    def test_anonymous_policy(self, ca):
        trust = TrustStore([ca])
        authz = AuthorizationService(trust=trust, allow_anonymous=True)
        authz.grant("anonymous", "gateway:gw0", ["summary.read"])
        authz.require(None, resource="gateway:gw0", action="summary.read")
        with pytest.raises(AuthorizationError):
            authz.require(None, resource="gateway:gw0",
                          action="events.stream")

    def test_credential_required_when_not_anonymous(self, ca):
        authz = self.service(ca)
        with pytest.raises(AuthorizationError):
            authz.require(None, resource="gateway:gw0", action="x")

    def test_bad_certificate_fails_authentication(self, ca):
        authz = self.service(ca)
        rogue = CertificateAuthority("rogue").issue("/CN=mallory")
        with pytest.raises(AuthorizationError, match="authentication"):
            authz.require(rogue, resource="gateway:gw0", action="summary.read")

    def test_site_policy_example(self, ca):
        """§2.2: internal users get real-time streams; off-site users get
        summary data only."""
        authz = self.service(ca)
        authz.grant("*", "gateway:gw0", ["summary.read"])
        # Akenti-style: LBNL subjects may stream
        authz.akenti.add_condition(UseCondition(
            resource="gateway:*", actions=("events.stream",),
            subject_pattern="/O=LBNL/*"))
        insider = ca.issue("/O=LBNL/CN=alice")
        outsider = ca.issue("/O=Sarnoff/CN=michael")
        authz.require(insider, resource="gateway:gw0", action="events.stream")
        authz.require(outsider, resource="gateway:gw0", action="summary.read")
        with pytest.raises(AuthorizationError):
            authz.require(outsider, resource="gateway:gw0",
                          action="events.stream")


class TestGatewayAndDirectoryIntegration:
    def test_gateway_enforces_authz(self, ca):
        from repro.core import EventGateway
        from repro.core.sensors import CPUSensor
        from repro.simgrid import GridWorld
        world = GridWorld(seed=20)
        host = world.add_host("h")
        trust = TrustStore([ca])
        authz = AuthorizationService(trust=trust,
                                     time_source=lambda: world.now)
        authz.grant("/O=LBNL/CN=alice", "gateway:gw0",
                    ["events.stream", "events.query"])
        gw = EventGateway(world.sim, name="gw0", authz=authz)
        sensor = CPUSensor(host, period=1.0)
        gw.register_sensor(sensor)
        sensor.start()
        alice = ca.issue("/O=LBNL/CN=alice")
        mallory = CertificateAuthority("rogue").issue("/CN=mallory")
        got = []
        spec = SubscriptionSpec(sensor.name, principal=alice,
                                delivery=Delivery.callback(got.append))
        gw.open(spec)
        with pytest.raises(AuthorizationError):
            gw.open(spec.replace(principal=mallory))
        world.run(until=2.5)
        assert got

    def test_directory_write_protection(self, ca):
        from repro.core.directory import DirectoryServer
        from repro.simgrid import Simulator
        sim = Simulator()
        trust = TrustStore([ca])
        authz = AuthorizationService(trust=trust, allow_anonymous=True)
        authz.grant("/O=LBNL/CN=mgr", "directory:ldap0",
                    ["directory.read", "directory.write"])
        authz.grant("*", "directory:ldap0", ["directory.read"])
        srv = DirectoryServer(sim, name="ldap0", authz=authz)
        manager_cert = ca.issue("/O=LBNL/CN=mgr")
        srv.add_now("x=1,o=grid", principal=manager_cert)
        srv.search_now("o=grid")  # anonymous read is fine
        with pytest.raises(AuthorizationError):
            srv.add_now("x=2,o=grid")  # anonymous write is not
