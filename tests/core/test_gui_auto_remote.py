"""Tests for the GUI surfaces (§5.0), the LDAPv3-driven AutoCollector,
and SNMP-layered remote host sensors."""

import pytest

from repro.core import (JAMMConfig, JAMMDeployment, PortMonitorGUI,
                        SensorControlGUI, SensorDataGUI, ascii_bar_chart,
                        render_table)
from repro.core.sensors import RemoteHostSensor, install_host_snmp
from repro.simgrid import GridWorld


def deployment(seed=60):
    world = GridWorld(seed=seed)
    a = world.add_host("dpss1.lbl.gov")
    b = world.add_host("dpss2.lbl.gov")
    noc = world.add_host("noc.lbl.gov")
    world.lan([a, b, noc], switch="sw")
    jamm = JAMMDeployment(world)
    gw = jamm.add_gateway("gw0", host=noc)
    for host in (a, b):
        config = JAMMConfig()
        config.add_sensor("cpu", "cpu", period=1.0)
        config.add_sensor("io", "iostat", mode="manual", period=1.0)
        jamm.add_manager(host, config=config, gateway=gw)
    world.run(until=0.2)
    return world, (a, b, noc), jamm, gw


class TestSensorDataGUI:
    def test_rows_reflect_directory(self):
        world, hosts, jamm, gw = deployment()
        gui = SensorDataGUI(jamm.directory_client())
        rows = gui.rows()
        assert len(rows) == 4
        assert {r["host"] for r in rows} == {"dpss1.lbl.gov", "dpss2.lbl.gov"}
        cpu_rows = [r for r in rows if r["sensor"] == "cpu"]
        assert all(r["status"] == "running" for r in cpu_rows)
        io_rows = [r for r in rows if r["sensor"] == "io"]
        assert all(r["status"] == "stopped" for r in io_rows)

    def test_detail_matches_live_sensor(self):
        world, (a, _b, _n), jamm, gw = deployment()
        world.run(until=5.0)
        gui = SensorDataGUI(jamm.directory_client())
        detail = gui.detail(jamm.managers[a.name], "cpu")
        assert detail["status"] == "running"
        assert detail["frequency_hz"] == 1.0
        assert detail["duration_s"] > 4.0

    def test_render_table_layout(self):
        world, hosts, jamm, gw = deployment()
        text = SensorDataGUI(jamm.directory_client()).render()
        assert "sensor" in text.splitlines()[0]
        assert "dpss1.lbl.gov" in text
        assert len(text.splitlines()) == 2 + 4  # header + rule + 4 sensors


class TestSensorControlGUI:
    def test_start_stop_reinit(self):
        world, (a, _b, _n), jamm, gw = deployment()
        gui = SensorControlGUI(jamm.managers)
        assert gui.hosts() == ["dpss1.lbl.gov", "dpss2.lbl.gov"]
        assert gui.start("dpss1.lbl.gov", "io")
        assert jamm.managers[a.name].sensors["io"].running
        assert gui.stop("dpss1.lbl.gov", "io")
        assert not jamm.managers[a.name].sensors["io"].running
        world.run(until=2.0)
        assert gui.reinit("dpss1.lbl.gov", "cpu")
        assert jamm.managers[a.name].sensors["cpu"].started_at == 2.0
        assert [a[0] for a in gui.actions] == ["start", "stop", "reinit"]

    def test_render_lists_everything(self):
        world, hosts, jamm, gw = deployment()
        text = SensorControlGUI(jamm.managers).render()
        assert text.count("cpu@") == 2
        assert "running" in text and "stopped" in text


class TestPortMonitorGUI:
    def test_reconfigure_rules(self):
        world = GridWorld(seed=61)
        host = world.add_host("h1")
        jamm = JAMMDeployment(world)
        gw = jamm.add_gateway("gw0")
        config = JAMMConfig()
        config.add_sensor("netmon", "netstat", mode="on-demand",
                          ports=(21,), period=1.0)
        config.add_sensor("vm", "vmstat", mode="manual", period=1.0)
        config.enable_portmon(poll=0.5, idle_timeout=5.0)
        manager = jamm.add_manager(host, config=config, gateway=gw)
        gui = PortMonitorGUI(manager.port_monitor)
        assert gui.watched() == {21: ["netmon"]}
        gui.add_port(2049, ["netmon"])                # add a new port
        gui.set_monitoring(21, ["netmon", "vm"])      # reconfigure type
        assert gui.watched() == {21: ["netmon", "vm"], 2049: ["netmon"]}
        act = host.ports.activity(21)               # traffic on port 21
        act.bytes_in += 100
        act.last_activity = world.now
        world.run(until=1.5)
        assert manager.sensors["vm"].running          # new rule applied
        assert "21" in gui.render()


class TestAppletHelpers:
    def test_render_table_alignment(self):
        text = render_table(("a", "bb"), [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len({line.index("|") for line in lines if "|" in line}) == 1

    def test_ascii_bar_chart_scales(self):
        chart = ascii_bar_chart([("x", 10.0), ("y", 5.0)], width=10)
        lines = chart.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5
        assert ascii_bar_chart([]) == "(no data)"


class TestAutoCollector:
    def test_subscribes_to_future_sensors(self):
        world, (a, b, noc), jamm, gw = deployment()
        auto = jamm.auto_collector(host=noc)
        opened = auto.watch("(sensortype=cpu)")
        assert len(opened) == 2
        world.run(until=3.0)
        received_before = auto.received
        assert received_before > 0
        # a new host joins the grid: its sensor is picked up with no
        # polling, via the LDAPv3-style persistent search
        c = world.add_host("dpss3.lbl.gov")
        world.network.link(c.node, world.network.get("sw"),
                           bandwidth_bps=1e9, latency_s=1e-4)
        config = JAMMConfig()
        config.add_sensor("cpu", "cpu", period=1.0)
        jamm.add_manager(c, config=config, gateway=gw)
        world.run(until=8.0)
        assert auto.notifications > 0
        assert any(m.host == "dpss3.lbl.gov" for m in auto.messages)

    def test_stopped_sensors_not_subscribed(self):
        world, (a, b, noc), jamm, gw = deployment()
        auto = jamm.auto_collector(host=noc)
        opened = auto.watch("(objectclass=sensor)")
        assert len(opened) == 2  # the two manual iostat sensors are stopped

    def test_close_cancels_psearch(self):
        world, (a, b, noc), jamm, gw = deployment()
        auto = jamm.auto_collector(host=noc)
        auto.watch("(sensortype=cpu)")
        auto.close()
        n = auto.notifications
        config = JAMMConfig()
        config.add_sensor("cpu", "cpu", period=1.0)
        d = world.add_host("late.lbl.gov")
        world.network.link(d.node, world.network.get("sw"),
                           bandwidth_bps=1e9, latency_s=1e-4)
        jamm.add_manager(d, config=config, gateway=gw)
        world.run(until=12.0)
        assert auto.notifications == n


class TestRemoteHostSensor:
    def test_polls_target_host_resources(self):
        world = GridWorld(seed=62)
        target = world.add_host("compute1.lbl.gov")
        observer = world.add_host("gw.lbl.gov")
        world.lan([target, observer], switch="sw")
        install_host_snmp(world, target)
        target.cpu.add_load(user=1.0)       # 50% of 2 CPUs
        target.memory.allocate(4096)
        sensor = RemoteHostSensor(observer, device=target.name,
                                  snmp=world.snmp, period=1.0)
        events = []
        sensor.sink = events.append
        sensor.start()
        world.run(until=1.5)
        cpu = [e for e in events if e.event == "CPU_USAGE"][0]
        mem = [e for e in events if e.event == "MEM_USAGE"][0]
        # the event's HOST is the observer, but the data is the target's
        assert cpu.host == "gw.lbl.gov"
        assert cpu.fields["TARGET"] == "compute1.lbl.gov"
        assert cpu.get_float("CPU.USER") == pytest.approx(50.0)
        assert mem.get_int("MEM.USED") == 4096

    def test_unreachable_target_reported(self):
        world = GridWorld(seed=63)
        observer = world.add_host("gw.lbl.gov")
        world.lan([observer], switch="sw")
        sensor = RemoteHostSensor(observer, device="ghost.lbl.gov",
                                  snmp=world.snmp, period=1.0)
        events = []
        sensor.sink = events.append
        sensor.start()
        world.run(until=0.5)
        assert events[0].event == "SNMP_UNREACHABLE"

    def test_registered_in_sensor_registry(self):
        from repro.core.sensors import sensor_types
        assert "remote-host" in sensor_types()

    def test_install_is_idempotent(self):
        world = GridWorld(seed=64)
        target = world.add_host("h")
        agent1 = install_host_snmp(world, target)
        agent2 = install_host_snmp(world, target)
        assert agent1 is agent2
