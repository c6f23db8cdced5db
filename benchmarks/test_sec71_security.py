"""[E13] §7.1: credential-based access control at every access point.

Paper: users "want to find out what sensors are running ... may need to
cause sensor programs to be started ... and finally users want to
subscribe to sensor data via an event gateway.  In each case the domain
that is being monitored is likely to want to control which users may
perform which actions."  The same authorization interface guards the
LDAP lookup, the gateway subscription, the gateway→manager control
path, and enforces the site policy: "only allow internal access to
real-time sensor streams, with only summary data being available
off-site."
"""

import pytest

from repro.core import JAMMConfig, JAMMDeployment
from repro.core.security import (AuthorizationError, AuthorizationService,
                                 CertificateAuthority, TrustStore,
                                 UseCondition, AkentiEngine, GridMap)
from repro.core.subscriptions import Delivery, SubscriptionSpec

from .conftest import matisse_topology, report


def build_secured_deployment():
    world, hosts = matisse_topology(seed=1301)
    ca = CertificateAuthority("doe-grids-ca")
    trust = TrustStore([ca])
    akenti = AkentiEngine([
        # stakeholder policy: LBNL identities may stream and control
        UseCondition(resource="gateway:*",
                     actions=("events.stream", "events.query",
                              "sensors.control"),
                     subject_pattern="/O=LBNL/*"),
        # everyone with a valid Grid credential may read summaries
        UseCondition(resource="gateway:*", actions=("summary.read",)),
        UseCondition(resource="directory:*", actions=("directory.read",)),
    ])
    gridmap = GridMap({"/O=LBNL/CN=sensor-manager": "jammadm"})
    authz = AuthorizationService(trust=trust, gridmap=gridmap,
                                 akenti=akenti,
                                 time_source=lambda: world.sim.now)
    # local ACL: the jammadm local user may write the directory
    authz.grant("jammadm", "directory:ldap0", ["directory.write"])
    jamm = JAMMDeployment(world, authz=authz)
    gw = jamm.add_gateway("gw-lbl", host=hosts["gateway_host"])
    config = JAMMConfig()
    config.add_sensor("vmstat", "vmstat", period=1.0)
    config.add_sensor("cpu", "cpu", mode="manual", period=1.0)
    manager_cert = ca.issue("/O=LBNL/CN=sensor-manager", not_after=1e6)
    manager = jamm.add_manager(hosts["servers"][0], config=config,
                               gateway=gw, principal=manager_cert)
    world.run(until=0.5)
    insider = ca.issue("/O=LBNL/CN=brian", not_after=1e6)
    outsider = ca.issue("/O=Sarnoff/CN=michael", not_after=1e6)
    forged = CertificateAuthority("rogue-ca").issue("/O=LBNL/CN=brian")
    return world, hosts, jamm, gw, manager, insider, outsider, forged


def test_access_control_at_every_point(once):
    (world, hosts, jamm, gw, manager,
     insider, outsider, forged) = once(build_secured_deployment)
    results = []

    # 1. directory lookup (wrapped LDAP): valid credentials read fine
    server = jamm.directory.master
    found = server.search_now("ou=sensors,o=grid", "(objectclass=sensor)",
                              principal=insider)
    results.append(("insider LDAP lookup", "allowed", f"{len(found)} entries"))
    assert len(found) == 2

    # anonymous / forged lookups denied
    with pytest.raises(AuthorizationError):
        server.search_now("o=grid", principal=None)
    with pytest.raises(AuthorizationError):
        server.search_now("o=grid", principal=forged)
    results.append(("forged-CA LDAP lookup", "denied", "denied"))

    # 2. subscription at the gateway: insider streams, outsider does not
    sensor_key = manager.sensors["vmstat"].name
    got = []
    spec = SubscriptionSpec(sensor_key, principal=insider,
                            delivery=Delivery.callback(got.append))
    gw.open(spec)
    with pytest.raises(AuthorizationError):
        gw.open(spec.replace(principal=outsider))
    results.append(("insider stream subscription", "allowed", "allowed"))
    results.append(("off-site stream subscription", "denied (summary only)",
                    "denied"))

    # 3. the off-site user may still read summaries (§2.2 policy)
    gw.summarize(sensor_key, ("VALUE",))
    world.run(until=10.0)
    snap = gw.summary(sensor_key, "VALUE", principal=outsider)
    results.append(("off-site summary read", "allowed", "allowed"))
    assert got, "insider stream delivered"

    # 4. sensor start via the gateway (consumers never reach managers)
    started = gw.request_sensor_start(manager, "cpu", principal=insider)
    assert started
    with pytest.raises(AuthorizationError):
        gw.request_sensor_start(manager, "cpu", principal=outsider)
    results.append(("insider sensor start via gateway", "allowed", "allowed"))
    results.append(("off-site sensor start", "denied", "denied"))

    # 5. expired credentials fail authentication outright
    short = CertificateAuthority("doe-grids-ca")  # same name, same secret
    expired = short.issue("/O=LBNL/CN=brian", not_after=0.0)
    with pytest.raises(AuthorizationError):
        gw.open(spec.replace(principal=expired))
    results.append(("expired certificate", "rejected", "rejected"))

    report("E13", "§7.1 — one authorization interface, every access point",
           results)
