"""[E5] §2.2: the port monitor's data reduction.

Paper: "The port monitor has proven itself to be a very useful
component, greatly reducing the total amount of monitoring data that
must be collected and managed."

Workload: FTP sessions with a duty cycle (active bursts separated by
idle periods).  We compare the events collected with always-on sensors
against port-monitor-triggered sensors, sweeping the duty cycle.
"""

from repro.apps import FTPServer, ftp_transfer
from repro.core import JAMMDeployment, JAMMConfig
from repro.simgrid import Timeout

from .conftest import matisse_topology, report


def run_arm(on_demand: bool, duty_seconds: float, seed: int,
            total: float = 120.0, period: float = 30.0):
    """FTP bursts of ~duty_seconds at the start of each ``period``."""
    world, hosts = matisse_topology(seed=seed)
    server_host = hosts["servers"][0]
    client_host = hosts["client"]
    FTPServer(world, server_host)
    jamm = JAMMDeployment(world)
    gw = jamm.add_gateway("gw0", host=hosts["gateway_host"])
    config = JAMMConfig()
    mode = "on-demand" if on_demand else "always"
    ports = (20, 21) if on_demand else ()
    config.add_sensor("netstat", "netstat", mode=mode, ports=ports,
                      period=1.0)
    config.add_sensor("vmstat", "vmstat", mode=mode, ports=ports,
                      period=1.0)
    if on_demand:
        config.enable_portmon(poll=1.0, idle_timeout=10.0)
    jamm.add_manager(server_host, config=config, gateway=gw)
    world.run(until=0.5)
    collector = jamm.collector(host=hosts["viz"])

    def subscribe_loop():
        # (re)subscribe as sensors appear; a real collector would use the
        # directory's persistent search — poll here for simplicity
        seen = set()
        while True:
            for entry in collector.discover("(objectclass=sensor)"):
                key = entry.first("sensorkey")
                if key and key not in seen and \
                        entry.first("status") == "running":
                    seen.add(key)
                    collector.subscribe_entry(entry)
            yield Timeout(2.0)

    world.sim.spawn(subscribe_loop(), name="subscriber")

    # ~duty_seconds of transfer at the start of each period
    nbytes = int(duty_seconds * 17e6)  # ≈140 Mbit/s ≈ 17 MB/s

    def workload():
        while world.now < total - period:
            ftp_transfer(world, client_host, server_host, nbytes=nbytes)
            yield Timeout(period)

    world.sim.spawn(workload(), name="ftp-workload")
    world.run(until=total)
    return collector.received


def test_portmon_reduces_collected_data(once):
    def scenario():
        rows = []
        for duty in (2.0, 5.0):
            always = run_arm(False, duty, seed=501)
            triggered = run_arm(True, duty, seed=502)
            rows.append((duty, always, triggered))
        return rows

    rows = once(scenario)
    table = []
    for duty, always, triggered in rows:
        reduction = 1 - triggered / always
        table.append((f"duty {duty:.0f}s/30s: always-on events",
                      "(baseline)", f"{always}"))
        table.append((f"duty {duty:.0f}s/30s: port-triggered events",
                      "greatly reduced", f"{triggered} (-{reduction:.0%})"))
    report("E5", "§2.2 — port monitor on-demand monitoring", table)
    for duty, always, triggered in rows:
        # the port monitor must cut collected volume substantially at
        # low duty cycles...
        assert triggered < 0.65 * always
    # ...and the saving shrinks as the duty cycle grows
    r2 = rows[0][2] / rows[0][1]
    r5 = rows[1][2] / rows[1][1]
    assert r2 < r5


def test_triggered_sensors_cover_the_active_periods(once):
    """Reduction must not mean blindness: events exist during transfers."""
    def scenario():
        world, hosts = matisse_topology(seed=503)
        server_host = hosts["servers"][0]
        FTPServer(world, server_host)
        jamm = JAMMDeployment(world)
        gw = jamm.add_gateway("gw0", host=hosts["gateway_host"])
        config = JAMMConfig()
        config.add_sensor("netstat", "netstat", mode="on-demand",
                          ports=(20, 21), period=1.0)
        config.enable_portmon(poll=0.5, idle_timeout=5.0)
        jamm.add_manager(server_host, config=config, gateway=gw)
        world.run(until=0.5)
        proc = ftp_transfer(world, hosts["client"], server_host,
                            nbytes=40_000_000)
        world.run(until=2.0)
        collector = jamm.collector(host=hosts["viz"])
        opened = collector.subscribe_all(
            "(&(sensortype=netstat)(status=running))")
        world.run(until=40.0)
        return opened, collector.received, proc.done.triggered

    opened, received, transferred = once(scenario)
    report("E5b", "§2.2 — port-triggered sensor active during transfer", [
        ("sensor visible while port active", "yes", f"{bool(opened)}"),
        ("events during transfer", ">0", f"{received}"),
        ("transfer completed", "yes", f"{transferred}"),
    ])
    assert opened == 1
    assert received > 0
    assert transferred
