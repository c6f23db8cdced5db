#!/usr/bin/env python
"""The paper's §6 analysis, end to end: find the Matisse bottleneck.

Reproduces the investigation narrated in the paper:

  1. run the Matisse MEMS-video pipeline (4 DPSS servers → WAN →
     viewer) with JAMM monitoring every component;
  2. collect all events with an event collector and render the nlv
     view (Fig. 7);
  3. notice the retransmit/gap correlation and the high receiver
     system CPU;
  4. check the routers' SNMP error counters (clean — so not the WAN);
  5. run the iperf comparison (1 vs 4 streams) and the single-server
     configuration that fixes the problem.

Run:  python examples/matisse_analysis.py
"""

from repro.apps import DPSSCluster, MatisseViewer, run_iperf
from repro.core import JAMMDeployment
from repro.netlogger import (NLVConfig, NLVDataSet, find_gaps, render_ascii)
from repro.simgrid import GridWorld

MPLAY = ["MPLAY_START_READ_FRAME", "MPLAY_END_READ_FRAME",
         "MPLAY_START_PUT_IMAGE", "MPLAY_END_PUT_IMAGE"]


def build_world(seed=11):
    """The Fig. 5 testbed: LBNL storage cluster, Supernet WAN, viewer."""
    world = GridWorld(seed=seed)
    servers = [world.add_host(f"dpss{i}.lbl.gov") for i in range(1, 5)]
    gw_host = world.add_host("gw.lbl.gov")
    client = world.add_host("mems.cairn.net")
    world.lan(servers + [gw_host], switch="lbl-sw")
    world.lan([client], switch="isi-sw")
    world.wan_path("lbl-sw", "isi-sw", routers=["ntn1", "supernet1"],
                   latency_s=10e-3)
    return world, servers, gw_host, client


def main() -> None:
    world, servers, gw_host, client = build_world()

    # --- JAMM on every component -------------------------------------------
    jamm = JAMMDeployment(world)
    gw = jamm.add_gateway("gw-lbl", host=gw_host)
    for host in servers:
        jamm.add_manager(host, config=jamm.standard_config(
            vmstat=True, netstat=True, tcpdump=True), gateway=gw)
    client_config = jamm.standard_config(vmstat=True, netstat=True,
                                         tcpdump=True)
    client_config.add_sensor("mplay", "application", app_name="mplay")
    jamm.add_manager(client, config=client_config, gateway=gw)
    world.run(until=0.5)

    monitoring = jamm.client(host=gw_host)
    collector = jamm.collector(host=gw_host)
    handles = collector.subscribe_all(monitoring.sensors())
    print(f"Subscribed to {len(handles)} sensors found in the directory.\n")

    # --- run the application --------------------------------------------------
    app_sensor = jamm.managers[client.name].sensors["mplay"]
    jamm.managers[client.name].start_sensor("mplay")
    cluster = DPSSCluster(world, servers)
    viewer = MatisseViewer(world, cluster, client, n_servers=4,
                           app_sensor=app_sensor, burst_loss_prob=0.01)
    viewer.play(duration=40.0)
    world.run(until=45.0)

    rates = viewer.frame_rate_series(2.0)
    print(f"Frames displayed: {viewer.frames_displayed} "
          f"(rate {min(r for _, r in rates):.1f}-"
          f"{max(r for _, r in rates):.1f} fps — bursty, as in the paper)")

    # --- the Fig. 7 view ------------------------------------------------------
    log = collector.merged_log()
    data = NLVDataSet(NLVConfig(
        lifeline_events=MPLAY, lifeline_ids=["FRAME.ID"],
        loadlines={"VMSTAT_SYS_TIME": "VALUE"},
        points={"TCPD_RETRANSMITS": None}))
    data.add_many(log)
    t0 = data.t_min + 5
    print("\nnlv (ASCII rendering of Fig. 7, 20 s window):")
    print(render_ascii(data, width=90, t0=t0, t1=t0 + 20))

    # --- the correlation --------------------------------------------------------
    gaps = find_gaps(log, event="MPLAY_END_READ_FRAME", min_gap=1.0)
    retr = [m.date for m in log if m.event == "TCPD_RETRANSMITS"]
    explained = sum(1 for g in gaps
                    if any(g.start - 0.5 <= t <= g.start + 0.5 for t in retr))
    sys_cpu = max((m.get_float("VALUE") for m in log
                   if m.event == "VMSTAT_SYS_TIME" and m.host == client.name),
                  default=0.0)
    print(f"\nFrame-delivery gaps >= 1 s: {len(gaps)}; "
          f"{explained} begin at a TCP retransmission.")
    print(f"Peak receiver system CPU: {sys_cpu:.0f}% "
          "(the VMSTAT_SYS_TIME line in Fig. 7)")

    # --- rule out the network (SNMP error counters) ------------------------------
    errors = [m for m in log if m.event in ("SNMP_ERRORS", "ROUTER_ERRORS")]
    crc = world.network.get("ntn1").totals().crc_errors
    print(f"Router/switch SNMP errors reported: {len(errors)} "
          f"(CRC counter on ntn1: {crc}) -> the network is clean.")

    # --- the iperf experiment ------------------------------------------------------
    print("\niperf, as in the paper:")
    world1, servers1, _g, client1 = build_world(seed=21)
    r1 = run_iperf(world1, servers1[:1], client1, n_streams=1)
    world4, servers4, _g, client4 = build_world(seed=22)
    r4 = run_iperf(world4, servers4, client4, n_streams=4)
    print(f"  1 stream : {r1.aggregate_mbps:6.1f} Mbit/s   (paper: ~140)")
    print(f"  4 streams: {r4.aggregate_mbps:6.1f} Mbit/s   (paper: ~30)")

    # --- the fix: one DPSS server / one socket ---------------------------------------
    world_fix, servers_fix, _g, client_fix = build_world(seed=23)
    cluster_fix = DPSSCluster(world_fix, servers_fix)
    viewer_fix = MatisseViewer(world_fix, cluster_fix, client_fix,
                               n_servers=1)
    viewer_fix.play(duration=30.0)
    world_fix.run(until=32.0)
    print(f"\nWith a single DPSS server: {viewer_fix.mean_frame_rate():.1f} "
          f"fps, {viewer_fix.session.total_retransmits()} retransmissions "
          "-> problem localized to the receiving host's multi-socket path.")


if __name__ == "__main__":
    main()
