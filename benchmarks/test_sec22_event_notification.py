"""[E16] §2.2: LDAPv3 "event notification" vs polling discovery.

Paper: "We are also interested in exploring the 'event notification'
service of LDAPv3 as soon as it is available.  This service lets a
client register interest in an entry (i.e., sensor running) with the
LDAP server, and LDAP will notify the client when that entry becomes
available or is updated."

We compare the AutoCollector (persistent search) against a polling
collector on two axes: how quickly a newly-started sensor's data
starts flowing, and how much load discovery puts on the directory.
"""

from repro.core import JAMMConfig, JAMMDeployment
from repro.simgrid import GridWorld, Timeout

from .conftest import report

POLL_INTERVAL = 30.0   # a realistic discovery-poll period
NEW_SENSOR_AT = 65.0   # when the new host joins
RUN = 180.0


def build(seed):
    world = GridWorld(seed=seed)
    first = world.add_host("dpss1.lbl.gov")
    noc = world.add_host("noc.lbl.gov")
    world.lan([first, noc], switch="sw")
    jamm = JAMMDeployment(world)
    gw = jamm.add_gateway("gw0", host=noc)
    config = JAMMConfig()
    config.add_sensor("cpu", "cpu", period=1.0)
    jamm.add_manager(first, config=config, gateway=gw)
    world.run(until=0.5)
    return world, noc, jamm, gw


def add_late_host(world, jamm, gw):
    late = world.add_host("late.lbl.gov")
    world.network.link(late.node, world.network.get("sw"),
                       bandwidth_bps=1e9, latency_s=1e-4)
    config = JAMMConfig()
    config.add_sensor("cpu", "cpu", period=1.0)
    jamm.add_manager(late, config=config, gateway=gw)


def first_event_from(collector, hostname):
    for msg in collector.merged_log():
        if msg.host == hostname:
            return msg.date
    return None


def notification_arm(seed):
    world, noc, jamm, gw = build(seed)
    auto = jamm.auto_collector(host=noc)
    auto.watch("(sensortype=cpu)")
    searches_before = jamm.directory.master.op_counts["search"] + \
        sum(r.op_counts["search"] for r in jamm.directory.replicas)
    world.sim.call_in(NEW_SENSOR_AT, add_late_host, world, jamm, gw)
    world.run(until=RUN)
    searches = (jamm.directory.master.op_counts["search"]
                + sum(r.op_counts["search"] for r in jamm.directory.replicas)
                - searches_before)
    return first_event_from(auto, "late.lbl.gov"), searches


def polling_arm(seed):
    world, noc, jamm, gw = build(seed)
    collector = jamm.collector(host=noc)
    seen = set()

    def poll_loop():
        while True:
            for info in collector.client.sensors(type="cpu",
                                                  status="running"):
                if info.key not in seen:
                    seen.add(info.key)
                    collector.subscribe(info)
            yield Timeout(POLL_INTERVAL)

    world.sim.spawn(poll_loop(), name="poller")
    searches_before = jamm.directory.master.op_counts["search"] + \
        sum(r.op_counts["search"] for r in jamm.directory.replicas)
    world.sim.call_in(NEW_SENSOR_AT, add_late_host, world, jamm, gw)
    world.run(until=RUN)
    searches = (jamm.directory.master.op_counts["search"]
                + sum(r.op_counts["search"] for r in jamm.directory.replicas)
                - searches_before)
    return first_event_from(collector, "late.lbl.gov"), searches


def test_persistent_search_beats_polling(once):
    def scenario():
        return notification_arm(seed=1601), polling_arm(seed=1602)

    (notify_first, notify_searches), (poll_first, poll_searches) = \
        once(scenario)
    notify_lag = notify_first - NEW_SENSOR_AT
    poll_lag = poll_first - NEW_SENSOR_AT
    report("E16", "§2.2 — LDAPv3 event notification vs polling discovery", [
        ("new-sensor data lag (notification)", "immediate",
         f"{notify_lag:.2f} s"),
        (f"new-sensor data lag (poll every {POLL_INTERVAL:.0f} s)",
         "up to a poll period", f"{poll_lag:.2f} s"),
        ("directory searches (notification)", "none after registration",
         f"{notify_searches}"),
        ("directory searches (polling)", "one per poll",
         f"{poll_searches}"),
    ])
    assert notify_first is not None and poll_first is not None
    # notification: events flow within a couple of sensor periods
    assert notify_lag < 3.0
    # polling pays up to a full poll interval
    assert poll_lag > notify_lag + 5.0
    # and keeps hitting the directory forever
    assert poll_searches >= (RUN / POLL_INTERVAL) - 1
    assert notify_searches == 0
