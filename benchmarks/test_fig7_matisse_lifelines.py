"""[E2] Fig. 7 + §6: NetLogger real-time analysis of JAMM-managed sensors.

The paper's headline analysis: JAMM collects vmstat/TCP/application
events from all Matisse components; nlv shows (a) frame lifelines whose
slopes flatten during stalls, (b) TCPD_RETRANSMITS points clustered at
"the large gap with no data being received by the application", and
(c) high VMSTAT_SYS_TIME on the receiving host.

This benchmark deploys full JAMM over the Fig. 5 topology, runs the
4-server Matisse configuration, collects everything through the event
gateway, and checks each Fig. 7 signature.
"""

from repro.apps import DPSSCluster, MatisseViewer
from repro.core import JAMMDeployment
from repro.core.sensors import ApplicationSensor
from repro.netlogger import (NLVConfig, NLVDataSet, correlate_lifelines,
                             event_correlation, find_gaps, render_ascii)

from .conftest import matisse_topology, report

MPLAY_EVENTS = ["MPLAY_START_READ_FRAME", "MPLAY_END_READ_FRAME",
                "MPLAY_START_PUT_IMAGE", "MPLAY_END_PUT_IMAGE"]


def run_scenario():
    world, hosts = matisse_topology(seed=301)
    jamm = JAMMDeployment(world)
    gw = jamm.add_gateway("gw-lbl", host=hosts["gateway_host"])
    # CPU/memory (vmstat) sensors on every host, TCP monitors (§6)
    for server in hosts["servers"]:
        jamm.add_manager(server, config=jamm.standard_config(
            vmstat=True, netstat=True, tcpdump=True), gateway=gw)
    client_config = jamm.standard_config(vmstat=True, netstat=True,
                                         tcpdump=True)
    client_config.add_sensor("mplay", "application", app_name="mplay")
    jamm.add_manager(hosts["client"], config=client_config, gateway=gw)
    world.run(until=0.5)

    # the event collector subscribes to every sensor found in the
    # directory ("sensors on all components in use by the application
    # were located in the directory service and subscribed to")
    collector = jamm.collector(host=hosts["viz"])
    subscribed = collector.subscribe_all("(objectclass=sensor)")

    client_mgr = jamm.managers[hosts["client"].name]
    app_sensor = client_mgr.sensors["mplay"]
    assert isinstance(app_sensor, ApplicationSensor)
    client_mgr.start_sensor("mplay")

    cluster = DPSSCluster(world, hosts["servers"])
    viewer = MatisseViewer(world, cluster, hosts["client"], n_servers=4,
                           app_sensor=app_sensor, burst_loss_prob=0.01)
    viewer.play(duration=40.0)
    world.run(until=45.0)
    return viewer, collector, subscribed


def test_fig7_lifeline_analysis(once):
    viewer, collector, subscribed = once(run_scenario)
    log = collector.merged_log()

    # --- frame lifelines from the application sensor stream -------------
    frames = correlate_lifelines(
        [m for m in log if m.event in MPLAY_EVENTS],
        ["FRAME.ID"], event_order=MPLAY_EVENTS)
    complete = [l for l in frames if len(l) == 4]

    # --- the gap/retransmit correlation ----------------------------------
    gaps = find_gaps(log, event="MPLAY_END_READ_FRAME", min_gap=1.0)
    correlation = event_correlation(log, gaps, event="TCPD_RETRANSMITS",
                                    slack=0.5)
    # Fig. 7's visual: the TCPD_RETRANSMITS marks line up with the gap
    # *onsets* (during the stall itself the flows are silent).  Measure
    # the fraction of gaps that have a retransmission at their onset.
    retr_times = [m.date for m in log if m.event == "TCPD_RETRANSMITS"]
    explained = sum(
        1 for g in gaps
        if any(g.start - 0.5 <= t <= g.start + 0.5 for t in retr_times))
    explained_frac = explained / len(gaps) if gaps else 0.0

    # --- receiver system CPU ----------------------------------------------
    sys_cpu = [m.get_float("VALUE") for m in log
               if m.event == "VMSTAT_SYS_TIME"
               and m.host == "mems.cairn.net"]
    server_sys = [m.get_float("VALUE") for m in log
                  if m.event == "VMSTAT_SYS_TIME"
                  and m.host.startswith("dpss")]

    retrans = [m for m in log if m.event == "TCPD_RETRANSMITS"]

    report("E2", "Fig. 7 — Matisse analysis via JAMM + NetLogger", [
        ("sensors subscribed", "all components (13 hosts' worth)",
         f"{len(subscribed)} sensors / {len({m.host for m in log})} hosts"),
        ("complete frame lifelines", "(lifeline primitive)",
         f"{len(complete)}"),
        ("frame-delivery gaps >= 1 s", "visible gap", f"{len(gaps)}"),
        ("retransmits inside gaps", "correlated", f"{correlation:.0%}"),
        ("gaps with a retransmit at onset", "gap follows retransmits",
         f"{explained_frac:.0%}"),
        ("peak receiver sys CPU", "high (VMSTAT_SYS_TIME)",
         f"{max(sys_cpu):.0f}%"),
        ("peak server sys CPU", "low", f"{max(server_sys, default=0):.0f}%"),
    ])

    # shapes
    assert len(subscribed) >= 15            # vmstat+netstat+tcpdump on 5 hosts
    assert len(complete) >= 10
    assert all(l.is_monotonic() for l in complete)
    assert retrans, "4-socket WAN configuration must show retransmissions"
    assert gaps, "expected at least one stall gap (Fig. 7's gap)"
    # the retransmissions explain the stalls (Fig. 7's correlation)
    assert explained_frac > 0.5
    assert max(sys_cpu) > 3 * max(server_sys, default=1.0)

    # the Fig. 7 screen renders
    data = NLVDataSet(NLVConfig(
        lifeline_events=MPLAY_EVENTS, lifeline_ids=["FRAME.ID"],
        loadlines={"VMSTAT_SYS_TIME": "VALUE",
                   "VMSTAT_FREE_MEMORY": "VALUE",
                   "VMSTAT_USER_TIME": "VALUE"},
        points={"TCPD_RETRANSMITS": None}))
    data.add_many(log)
    screen = render_ascii(data, width=100)
    assert "MPLAY_END_PUT_IMAGE" in screen
    assert "TCPD_RETRANSMITS" in screen
