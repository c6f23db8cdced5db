#!/usr/bin/env python
"""On-demand monitoring with the port monitor agent (paper §2.0/§2.2).

The paper's FTP example: "an FTP client connecting to an FTP server
could automatically trigger netstat and vmstat monitoring on both the
client and server for the duration of the connection."

We configure netstat+vmstat as on-demand sensors keyed to the FTP
ports, run a few transfers with idle periods between them, and show
(a) the sensors turning on and off with the traffic and (b) how much
monitoring data the port monitor saves versus always-on sensors.

Run:  python examples/port_triggered_monitoring.py
"""

from repro.apps import FTPServer, ftp_transfer
from repro.core import JAMMConfig, JAMMDeployment
from repro.simgrid import GridWorld, Timeout


def main() -> None:
    world = GridWorld(seed=23)
    server = world.add_host("ftp.lbl.gov")
    client = world.add_host("client.lbl.gov")
    gw_host = world.add_host("gw.lbl.gov")
    world.lan([server, client, gw_host], switch="lbl-sw")
    FTPServer(world, server)

    jamm = JAMMDeployment(world)
    gw = jamm.add_gateway("gw0", host=gw_host)
    config = JAMMConfig()
    # the §2.0 scenario: netstat + vmstat triggered by the FTP ports
    config.add_sensor("netstat", "netstat", mode="on-demand",
                      ports=(20, 21), period=1.0)
    config.add_sensor("vmstat", "vmstat", mode="on-demand",
                      ports=(20, 21), period=1.0)
    config.enable_portmon(poll=0.5, idle_timeout=8.0)
    manager = jamm.add_manager(server, config=config, gateway=gw)
    world.run(until=0.5)

    # the client facade sees the on-demand sensors in the directory and
    # a session handle counts what actually flows while they're active
    monitoring = jamm.client(host=gw_host)
    print("On-demand sensors in the directory:")
    for info in monitoring.sensors(host=server.name):
        print(f"  {info.key}  type={info.type}  status={info.status}")
    session = monitoring.session()
    netstat_handle = session.subscribe(f"netstat@{server.name}")

    status = []

    def status_sampler():
        while True:
            running = [n for n, s in manager.sensors.items() if s.running]
            status.append((world.now, tuple(sorted(running))))
            yield Timeout(2.0)

    world.sim.spawn(status_sampler(), name="status")

    def workload():
        for i in range(3):
            print(f"t={world.now:5.1f}  FTP transfer #{i + 1} starts")
            proc = ftp_transfer(world, client, server, nbytes=30_000_000)
            yield proc.done
            print(f"t={world.now:5.1f}  transfer #{i + 1} done; idle period")
            yield Timeout(25.0)

    world.sim.spawn(workload(), name="workload")
    world.run(until=100.0)

    print("\nSensor activity over time (sampled every 2 s):")
    last = None
    for t, running in status:
        if running != last:
            names = ", ".join(running) if running else "(none)"
            print(f"  t={t:5.1f}  running: {names}")
            last = running
    pm = manager.port_monitor.info()
    print(f"\nPort monitor: {pm['triggers']} trigger(s), "
          f"{pm['releases']} idle release(s) on ports {pm['ports']}")
    print(f"netstat events streamed while triggered: "
          f"{netstat_handle.stats()['delivered']}")
    session.close()

    # quantify the saving: events emitted vs an always-on baseline
    on_demand_events = sum(s.events_emitted + s.events_dropped
                           for s in manager.sensors.values())
    run_seconds = world.now
    always_on_estimate = int(2 * 2 * run_seconds)  # 2 sensors x 2+ ev/s
    print(f"\nEvents generated on-demand : {on_demand_events}")
    print(f"Always-on baseline estimate: ~{always_on_estimate}")
    print(f"Reduction                  : "
          f"~{1 - on_demand_events / always_on_estimate:.0%} "
          "(the §2.2 'greatly reducing' claim)")


if __name__ == "__main__":
    main()
