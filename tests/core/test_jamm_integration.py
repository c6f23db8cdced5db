"""Integration tests: a full JAMM deployment over the Matisse topology.

These exercise the complete paper workflow — managers publish sensors,
consumers discover them through the (replicated) directory, subscribe
through a remote gateway, and analyze the stream — plus failure
injection (directory master crash, sensor-host process crash, gateway
restart of forwarding).
"""

import pytest

from repro.core import JAMMDeployment, OnChange
from repro.netlogger import NLVConfig, NLVDataSet, find_gaps
from tests.conftest import build_matisse_topology


def full_deployment(seed=42):
    world, hosts = build_matisse_topology(seed)
    jamm = JAMMDeployment(world, n_directory_replicas=1)
    gw = jamm.add_gateway("gw-lbl", host=hosts["gateway_host"])
    for server in hosts["servers"]:
        config = jamm.standard_config(vmstat=True, netstat=True,
                                      tcpdump=True)
        jamm.add_manager(server, config=config, gateway=gw)
    world.run(until=0.5)
    return world, hosts, jamm, gw


class TestDiscoveryToAnalysis:
    def test_end_to_end_pipeline(self):
        world, hosts, jamm, gw = full_deployment()
        # discovery: all four hosts' vmstat sensors visible
        entries = jamm.sensor_entries("(sensortype=vmstat)")
        assert len(entries) == 4
        hostnames = {e.first("hostname") for e in entries}
        assert hostnames == {h.name for h in hosts["servers"]}
        # subscribe from across the WAN
        collector = jamm.collector(host=hosts["client"])
        opened = collector.subscribe_all("(sensortype=vmstat)")
        assert len(opened) == 4
        world.run(until=10.0)
        # events from all four hosts arrived, time-ordered
        seen_hosts = {m.host for m in collector.messages}
        assert seen_hosts == hostnames
        merged = collector.merged_log()
        assert [m.date for m in merged] == sorted(m.date for m in merged)
        # feed nlv
        data = NLVDataSet(NLVConfig(loadlines={"VMSTAT_SYS_TIME": "VALUE"}))
        collector.feed_nlv(data)
        assert len(data.loadlines["VMSTAT_SYS_TIME"].samples) > 30

    def test_wan_consumer_costs_producer_one_message_per_event(self):
        world, hosts, jamm, gw = full_deployment()
        producer = hosts["servers"][0]
        collector = jamm.collector(host=hosts["client"])
        collector.subscribe_all(
            f"(&(sensortype=vmstat)(hostname={producer.name}))")
        base = world.transport.per_host_sent.get(producer.name, 0)
        world.run(until=5.0)
        sent_one = world.transport.per_host_sent[producer.name] - base
        # add four more consumers of the same sensor
        others = [jamm.collector(host=hosts["viz"]) for _ in range(4)]
        for other in others:
            other.subscribe_all(
                f"(&(sensortype=vmstat)(hostname={producer.name}))")
        base = world.transport.per_host_sent[producer.name]
        world.run(until=10.0)
        sent_five = world.transport.per_host_sent[producer.name] - base
        # producer cost flat in consumer count (§2.3): same event count
        # leaves the monitored host regardless of subscribers
        assert sent_five == pytest.approx(sent_one, rel=0.2)

    def test_query_mode_over_the_wire(self):
        world, hosts, jamm, gw = full_deployment()
        producer = hosts["servers"][0]
        collector = jamm.collector(host=hosts["client"])
        infos = collector.client.sensors(
            filter_text=f"(&(sensortype=vmstat)(hostname={producer.name}))")
        collector.subscribe(infos[0], mode="query")
        world.run(until=5.0)
        event = gw.query(infos[0].key)
        assert event is not None
        assert event.host == producer.name


class TestFailureInjection:
    def test_directory_master_failure_is_transparent_to_readers(self):
        world, hosts, jamm, gw = full_deployment()
        jamm.directory.fail_master()
        collector = jamm.collector(host=hosts["client"])
        opened = collector.subscribe_all("(sensortype=vmstat)")
        assert len(opened) == 4  # replica answered
        world.run(until=5.0)
        assert collector.received > 0

    def test_sensor_host_process_crash_detected_and_restarted(self):
        from repro.core.consumers import RestartAction
        world, hosts, jamm, gw = full_deployment()
        victim = hosts["servers"][1]
        config = jamm.managers[victim.name].config
        # hot-add a process sensor via a config change + apply
        config.add_sensor("procs", "process", pattern="dpss*")
        jamm.managers[victim.name]._apply_config()
        world.run(until=1.0)
        procmon = jamm.process_monitor(host=hosts["gateway_host"])
        procmon.add_rule("PROC_CRASH",
                         RestartAction({victim.name: victim}))
        procmon.subscribe_all("(sensortype=process)")
        daemon = victim.processes.spawn("dpss-block-server")
        world.run(until=2.0)
        daemon.crash()
        world.run(until=3.0)
        assert len(victim.processes.by_name("dpss-block-server")) == 2
        assert victim.processes.by_name("dpss-block-server")[-1].alive

    def test_unsubscribe_all_stops_the_flow(self):
        world, hosts, jamm, gw = full_deployment()
        collector = jamm.collector(host=hosts["client"])
        collector.subscribe_all("(sensortype=vmstat)")
        world.run(until=3.0)
        count = collector.received
        assert count > 0
        collector.close()
        world.run(until=8.0)
        assert collector.received == count
        # sensors themselves got their sinks cleared
        for manager in jamm.managers.values():
            assert manager.sensors["vmstat"].sink is None


class TestMonitoredWorkload:
    def test_tcpdump_stream_correlates_with_transfer(self):
        """Mini-Fig.7: retransmission events collected via JAMM while a
        lossy bulk transfer runs."""
        world, hosts, jamm, gw = full_deployment()
        collector = jamm.collector(host=hosts["client"])
        collector.subscribe_all("(sensortype=tcpdump)")
        # a transfer crossing a lossy WAN path
        for link in world.network.links():
            if "ntn1" in link.name:
                link.loss_rate = 0.005
        flow = world.tcp_flow(hosts["servers"][0], hosts["client"],
                              dst_port=7000)
        flow.run_for(20.0)
        world.run(until=25.0)
        retr_events = collector.events_named("TCPD_RETRANSMITS")
        assert retr_events
        total = sum(m.get_int("COUNT") for m in retr_events)
        assert total == flow.stats.retransmits
        window_events = collector.events_named("TCPD_WINDOW_SIZE")
        assert window_events
