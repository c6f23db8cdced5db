"""Unit tests for the consumer types and the event archive."""

import pytest

from repro.core import (ArchiveQuery, EventArchive, JAMMDeployment,
                        SamplingPolicy, all_hosts_down)
from repro.core.consumers import (EmailAction, PagerAction, RestartAction)
from repro.simgrid import GridWorld
from repro.ulm import ULMMessage


def msg(event, host="h", t=0.0, lvl="Usage", **fields):
    m = ULMMessage(date=t, host=host, prog="p", lvl=lvl, event=event)
    for k, v in fields.items():
        m.set(k.replace("_", "."), v)
    return m


class TestSamplingPolicy:
    def test_abnormal_levels_always_kept(self):
        policy = SamplingPolicy(normal_fraction=0.0)
        assert policy.admits(msg("ANY", lvl="Error"))
        assert policy.admits(msg("ANY", lvl="Warning"))
        assert not policy.admits(msg("ANY", lvl="Usage"))

    def test_always_keep_patterns(self):
        policy = SamplingPolicy(normal_fraction=0.0)
        assert policy.admits(msg("PROC_CRASH_DETECTED"))
        assert policy.admits(msg("TCPD_RETRANSMITS"))
        assert not policy.admits(msg("CPU_USAGE"))

    def test_fractional_sampling_is_deterministic(self):
        policy = SamplingPolicy(normal_fraction=0.25,
                                always_keep=())
        admitted = sum(policy.admits(msg("CPU_USAGE")) for _ in range(100))
        assert admitted == 25

    def test_full_capture(self):
        policy = SamplingPolicy(normal_fraction=1.0)
        assert all(policy.admits(msg("CPU_USAGE")) for _ in range(10))

    #: (event, LVL) pairs: plain, glob-matching and abnormal-LVL events
    SCRIPT = [("CPU_USAGE", "Usage"), ("PROC_EXIT", "Usage"),
              ("NET_IO", "Usage"), ("CPU_USAGE", "Error"),
              ("DISK_ERROR_RATE", "Usage"), ("CPU_USAGE", "Usage"),
              ("TCPD_RETRANSMITS", "Usage"), ("MEM_FREE", "Warning"),
              ("CPU_USAGE", "Usage"), ("NET_IO", "Usage"),
              (None, "Usage"), ("HOST_CRASH", "Usage"),
              ("CPU_USAGE", "Usage"), ("NET_IO", "Security"),
              ("CPU_USAGE", "Usage"), ("MEM_FREE", "Usage"),
              ("PROC_EXIT", "Alert"), ("CPU_USAGE", "Usage"),
              ("NET_IO", "Usage"), ("CPU_USAGE", "Usage")]

    def admit_sequence(self, policy) -> str:
        return "".join("1" if policy.admits(msg(event, lvl=lvl)) else "0"
                       for event, lvl in self.SCRIPT)

    def test_keep_everything_admits_every_kind_without_sampling(self):
        policy = SamplingPolicy(normal_fraction=1.0)
        assert self.admit_sequence(policy) == "1" * len(self.SCRIPT)
        assert policy._counter == 0

    @pytest.mark.parametrize("fraction, expected", [
        (0.25, "01011011100101101001"),
        (0.0, "01011011000101001000"),
    ])
    def test_sampled_admit_sequence_is_pinned(self, fraction, expected):
        assert self.admit_sequence(
            SamplingPolicy(normal_fraction=fraction)) == expected

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            SamplingPolicy(normal_fraction=1.5)


class TestEventArchive:
    def fill(self):
        archive = EventArchive()
        for t in range(10):
            archive.append(msg("CPU_USAGE", host="a", t=float(t)))
            archive.append(msg("MEM_USAGE", host="b", t=float(t) + 0.5))
        return archive

    def test_query_by_time_range(self):
        archive = self.fill()
        out = archive.query(t0=2.0, t1=4.0)
        assert len(out) == 5  # 2.0, 2.5, 3.0, 3.5, 4.0

    def test_query_by_host_and_event(self):
        archive = self.fill()
        assert len(archive.query(host="a")) == 10
        assert len(archive.query(event="MEM_USAGE")) == 10
        assert len(archive.query(host="a", event="MEM_USAGE")) == 0

    def test_query_object_form(self):
        archive = self.fill()
        q = ArchiveQuery(t0=0.0, t1=1.0, host="b")
        assert len(archive.query(q)) == 1

    def test_catalog_accessors(self):
        archive = self.fill()
        assert archive.hosts() == ["a", "b"]
        assert archive.event_names() == ["CPU_USAGE", "MEM_USAGE"]
        assert archive.time_span() == (0.0, 9.5)
        assert len(archive) == 20

    def test_rejected_counted(self):
        archive = EventArchive(policy=SamplingPolicy(normal_fraction=0.0,
                                                     always_keep=()))
        archive.append(msg("CPU_USAGE"))
        assert len(archive) == 0
        assert archive.rejected == 1


class TestTimeIndexedArchive:
    """The time-ordered store: bisect windows, merge-in of late
    arrivals, incremental span, and index/window composition."""

    def test_out_of_order_appends_merge_into_time_order(self):
        archive = EventArchive()
        for t in (1.0, 3.0, 2.0, 5.0, 4.0, 4.5):
            archive.append(msg("CPU_USAGE", t=t))
        assert [m.date for m in archive.messages] == \
            [1.0, 2.0, 3.0, 4.0, 4.5, 5.0]
        assert archive.reordered == 3
        assert archive.time_span() == (1.0, 5.0)

    def test_equal_dates_keep_arrival_order(self):
        archive = EventArchive()
        first = msg("A_EVENT", t=1.0)
        second = msg("B_EVENT", t=1.0)
        archive.append(first)
        archive.append(msg("C_EVENT", t=2.0))
        archive.append(second)  # late arrival, equal date: sorts after first
        assert archive.messages[0] is first
        assert archive.messages[1] is second

    def test_sustained_clock_skew_ingest_is_amortized(self):
        """Two hosts with a constant clock offset interleave late
        arrivals forever; each lands by one insert into a head the seal
        threshold bounds, and order, count and indexes hold."""
        archive = EventArchive()
        n = 20000
        skew = 500  # host b's clock runs 0.5 time units behind
        for i in range(n // 2):
            archive.append(msg("CPU_USAGE", host="a", t=1000.0 + i))
            archive.append(msg("CPU_USAGE", host="b", t=1000.0 + i - skew))
        assert archive.reordered == n // 2
        dates = [m.date for m in archive.messages]
        assert dates == sorted(dates)
        assert len(archive) == n
        # indexes still compose correctly over the merged store
        out = archive.query(host="b", t0=1100.0, t1=1110.0)
        assert [m.date for m in out] == [float(t) for t in range(1100, 1111)]

    def test_window_query_after_reorder(self):
        archive = EventArchive()
        for t in (1.0, 4.0, 2.0, 3.0, 5.0):
            archive.append(msg("CPU_USAGE", host="a" if t < 3 else "b", t=t))
        out = archive.query(t0=2.0, t1=4.0)
        assert [m.date for m in out] == [2.0, 3.0, 4.0]
        assert [m.date for m in archive.query(t0=2.0, t1=4.0, host="b")] == \
            [3.0, 4.0]

    def test_composed_query_results_in_time_order(self):
        archive = EventArchive()
        for i in range(50):
            archive.append(msg("CPU_USAGE" if i % 2 else "MEM_USAGE",
                               host=f"h{i % 3}", t=float(i)))
        out = archive.query(event="CPU_USAGE", host="h1", t0=5.0, t1=45.0)
        assert out
        assert [m.date for m in out] == sorted(m.date for m in out)
        for m in out:
            assert m.event == "CPU_USAGE" and m.host == "h1"
            assert 5.0 <= m.date <= 45.0

    def test_iter_query_streams_and_honors_end_exclusive(self):
        archive = EventArchive()
        for t in range(5):
            archive.append(msg("CPU_USAGE", t=float(t)))
        inclusive = list(archive.iter_query(ArchiveQuery(t0=1.0, t1=3.0)))
        half_open = list(archive.iter_query(ArchiveQuery(t0=1.0, t1=3.0),
                                            end_exclusive=True))
        assert [m.date for m in inclusive] == [1.0, 2.0, 3.0]
        assert [m.date for m in half_open] == [1.0, 2.0]

    def test_time_span_is_incremental_and_matches_dates(self):
        archive = EventArchive()
        assert archive.time_span() == (0.0, 0.0)
        for t in (3.0, 1.0, 2.0):
            archive.append(msg("CPU_USAGE", t=t))
        assert archive.time_span() == (1.0, 3.0)

    def test_stats_catalog(self):
        archive = EventArchive(policy=SamplingPolicy(normal_fraction=0.0,
                                                     always_keep=("CPU_*",)))
        archive.append(msg("CPU_USAGE", host="a", t=1.0))
        archive.append(msg("MEM_USAGE", host="b", t=2.0))  # rejected
        stats = archive.stats()
        assert stats["count"] == 1
        assert stats["rejected"] == 1
        assert stats["hosts"] == 1
        assert stats["events"] == 1
        assert (stats["tstart"], stats["tend"]) == (1.0, 1.0)


def deployed_world():
    world = GridWorld(seed=13)
    sensor_host = world.add_host("dpss1.lbl.gov")
    consumer_host = world.add_host("monitor.lbl.gov")
    world.lan([sensor_host, consumer_host], switch="sw")
    jamm = JAMMDeployment(world)
    gw = jamm.add_gateway("gw0")
    config = jamm.standard_config(vmstat=True, netstat=False, tcpdump=False,
                                  process_pattern="dpss*")
    jamm.add_manager(sensor_host, config=config, gateway=gw)
    world.run(until=0.2)  # let directory replication catch up
    return world, sensor_host, consumer_host, jamm


class TestCollector:
    def test_subscribe_all_and_merge(self):
        world, _sh, ch, jamm = deployed_world()
        collector = jamm.collector(host=ch)
        opened = collector.subscribe_all("(sensortype=vmstat)")
        assert len(opened) == 1
        world.run(until=5.5)
        assert collector.received > 0
        merged = collector.merged_log()
        dates = [m.date for m in merged]
        assert dates == sorted(dates)
        assert collector.events_named("VMSTAT_SYS_TIME")

    def test_collector_feeds_nlv(self):
        from repro.netlogger import NLVConfig, NLVDataSet
        world, _sh, ch, jamm = deployed_world()
        collector = jamm.collector(host=ch)
        collector.subscribe_all("(sensortype=vmstat)")
        world.run(until=3.5)
        data = NLVDataSet(NLVConfig(loadlines={"VMSTAT_SYS_TIME": "VALUE"}))
        collector.feed_nlv(data)
        assert data.loadlines["VMSTAT_SYS_TIME"].samples


class TestArchiver:
    def test_archives_and_publishes_catalog(self):
        world, _sh, ch, jamm = deployed_world()
        archiver = jamm.archiver(host=ch, publish_interval=5.0)
        archiver.subscribe_all("(sensortype=vmstat)")
        world.run(until=12.0)
        assert archiver.archived > 0
        archiver.close()  # final catalog publish
        client = jamm.directory_client()
        found = client.search("ou=archives,o=grid", "(objectclass=archive)")
        assert len(found) == 1
        entry = found.entries[0]
        assert "VMSTAT_SYS_TIME" in entry.get("events")
        assert int(entry.first("count")) == archiver.archived

    def test_sampling_policy_respected(self):
        world, _sh, ch, jamm = deployed_world()
        archiver = jamm.archiver(
            host=ch, policy=SamplingPolicy(normal_fraction=0.0,
                                           always_keep=()))
        archiver.subscribe_all("(sensortype=vmstat)")
        world.run(until=5.0)
        assert archiver.received > 0
        assert archiver.archived == 0


class TestProcessMonitorConsumer:
    def test_crash_triggers_restart_and_email(self):
        world, sensor_host, ch, jamm = deployed_world()
        restart = RestartAction({"dpss1.lbl.gov": sensor_host})
        email = EmailAction()
        procmon = jamm.process_monitor(host=ch)
        procmon.add_rule("PROC_CRASH", restart)
        procmon.add_rule("PROC_EXIT", email)
        procmon.subscribe_all("(sensortype=process)")
        server_proc = sensor_host.processes.spawn("dpss-master")
        world.run(until=1.0)
        server_proc.crash()
        world.run(until=2.0)
        assert restart.restarted == 1
        assert len(sensor_host.processes.by_name("dpss-master")) == 2
        assert sensor_host.processes.by_name("dpss-master")[-1].alive
        assert procmon.actions_of_kind("restart")

    def test_unmatched_events_ignored(self):
        world, sensor_host, ch, jamm = deployed_world()
        procmon = jamm.process_monitor(host=ch)
        procmon.add_rule("PROC_CRASH", EmailAction())
        procmon.subscribe_all("(sensortype=process)")
        sensor_host.processes.spawn("dpss-x")  # PROC_START: no rule
        world.run(until=1.0)
        assert procmon.actions_taken == []


class TestOverviewMonitor:
    def test_page_only_when_all_servers_down(self):
        """The paper's 2 A.M. example: page only if BOTH primary and
        backup are down."""
        world = GridWorld(seed=14)
        primary = world.add_host("primary.lbl.gov")
        backup = world.add_host("backup.lbl.gov")
        monitor_host = world.add_host("noc.lbl.gov")
        world.lan([primary, backup, monitor_host], switch="sw")
        jamm = JAMMDeployment(world)
        gw = jamm.add_gateway("gw0")
        config = jamm.standard_config(vmstat=False, netstat=False,
                                      tcpdump=False, process_pattern="httpd*")
        jamm.add_manager(primary, config=config, gateway=gw)
        config2 = jamm.standard_config(vmstat=False, netstat=False,
                                       tcpdump=False, process_pattern="httpd*")
        jamm.add_manager(backup, config=config2, gateway=gw)
        world.run(until=0.2)  # replication catch-up
        pager = PagerAction()
        overview = jamm.overview_monitor(host=monitor_host)
        overview.add_rule(
            "both-down",
            all_hosts_down(["primary.lbl.gov", "backup.lbl.gov"]),
            lambda state: pager.run(overview, state["primary.lbl.gov"]))
        overview.subscribe_all("(sensortype=process)")
        p1 = primary.processes.spawn("httpd")
        p2 = backup.processes.spawn("httpd")
        world.run(until=1.0)
        p1.crash()
        world.run(until=2.0)
        assert pager.pages == []  # backup still up: no page
        p2.crash()
        world.run(until=3.0)
        assert len(pager.pages) == 1
        # rule is edge-triggered: no repeat pages while still down
        world.run(until=10.0)
        assert len(pager.pages) == 1
