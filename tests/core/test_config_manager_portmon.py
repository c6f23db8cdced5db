"""Unit tests for sensor configuration, the sensor manager, and the
port monitor agent."""

import pytest

from repro.core import (ConfigError, EventGateway, JAMMConfig, ManagerError,
                        SensorManager)
from repro.core.directory import DirectoryClient, DirectoryServer
from repro.core.subscriptions import Delivery, SubscriptionSpec
from repro.simgrid import GridWorld, HTTPServer

SAMPLE = """
# JAMM host monitoring
[sensor cpu]
type = cpu
mode = always
period = 1.0

[sensor netmon]
type = netstat
mode = on-demand
ports = 21, 7000
period = 0.5

[sensor manual-io]
type = iostat
mode = manual

[portmon]
poll = 0.5
idle-timeout = 5.0
"""


def port_traffic(host, port, nbytes):
    """Count ``nbytes`` received on ``port`` now, as a delivery does."""
    act = host.ports.activity(port)
    act.bytes_in += nbytes
    act.last_activity = host.sim.now


class TestConfigFormat:
    def test_parse_sample(self):
        config = JAMMConfig.from_text(SAMPLE)
        assert set(config.sensors) == {"cpu", "netmon", "manual-io"}
        assert config.sensors["cpu"].mode == "always"
        assert config.sensors["netmon"].ports == (21, 7000)
        assert config.sensors["netmon"].period == 0.5
        assert config.portmon.poll == 0.5
        assert config.portmon.idle_timeout == 5.0

    def test_roundtrip_through_text(self):
        config = JAMMConfig.from_text(SAMPLE)
        again = JAMMConfig.from_text(config.to_text())
        assert set(again.sensors) == set(config.sensors)
        assert again.sensors["netmon"].ports == (21, 7000)
        assert again.portmon.poll == 0.5

    def test_on_demand_ports_map(self):
        config = JAMMConfig.from_text(SAMPLE)
        assert config.on_demand_ports() == {21: ["netmon"], 7000: ["netmon"]}

    def test_errors(self):
        with pytest.raises(ConfigError):
            JAMMConfig.from_text("[sensor x]\nmode = always\n")  # no type
        with pytest.raises(ConfigError):
            JAMMConfig.from_text("[sensor x]\ntype = cpu\nmode = sometimes\n")
        with pytest.raises(ConfigError):
            JAMMConfig.from_text("[sensor x]\ntype = cpu\nmode = on-demand\n")
        with pytest.raises(ConfigError):
            JAMMConfig.from_text("key = outside\n")
        with pytest.raises(ConfigError):
            JAMMConfig.from_text("[sensor x]\ntype=cpu\n[sensor x]\ntype=cpu\n")
        with pytest.raises(ConfigError):
            JAMMConfig.from_text("[sensor x]\ntype = cpu\nperiod = fast\n")

    def test_comments_and_blanks_ignored(self):
        config = JAMMConfig.from_text(
            "# comment\n\n[sensor a]\ntype = cpu  # trailing\n")
        assert config.sensors["a"].sensor_type == "cpu"

    def test_programmatic_construction(self):
        config = JAMMConfig()
        config.add_sensor("x", "cpu", period=2.0)
        config.enable_portmon(poll=1.0)
        with pytest.raises(ConfigError):
            config.add_sensor("x", "cpu")


def manager_setup(config=None, config_http=None, refresh=10.0):
    world = GridWorld(seed=9)
    host = world.add_host("h1")
    gw = EventGateway(world.sim, name="gw0")
    directory = DirectoryClient([DirectoryServer(world.sim)])
    manager = SensorManager(world.sim, host, gateway=gw, directory=directory,
                            transport=world.transport, config=config,
                            config_http=config_http,
                            refresh_interval=refresh)
    return world, host, gw, directory, manager


class TestSensorManager:
    def basic_config(self):
        config = JAMMConfig()
        config.add_sensor("cpu", "cpu", period=1.0)
        config.add_sensor("mem", "memory", mode="manual", period=1.0)
        return config

    def test_always_sensors_started_and_published(self):
        world, host, gw, directory, manager = manager_setup(self.basic_config())
        manager.start()
        assert manager.sensors["cpu"].running
        assert not manager.sensors["mem"].running
        entry = directory.get("sensor=cpu,host=h1,ou=sensors,o=grid")
        assert entry is not None
        assert entry.first("status") == "running"
        assert entry.first("gateway") == "gw0"
        mem_entry = directory.get("sensor=mem,host=h1,ou=sensors,o=grid")
        assert mem_entry.first("status") == "stopped"

    def test_manual_start_stop_updates_directory(self):
        world, _h, _gw, directory, manager = manager_setup(self.basic_config())
        manager.start()
        assert manager.start_sensor("mem")
        assert directory.get("sensor=mem,host=h1,ou=sensors,o=grid") \
            .first("status") == "running"
        assert manager.stop_sensor("mem")
        assert directory.get("sensor=mem,host=h1,ou=sensors,o=grid") \
            .first("status") == "stopped"

    def test_start_unknown_sensor_raises(self):
        _w, _h, _gw, _d, manager = manager_setup(self.basic_config())
        manager.start()
        with pytest.raises(ManagerError):
            manager.start_sensor("ghost")

    def test_list_sensors_gui_surface(self):
        _w, _h, _gw, _d, manager = manager_setup(self.basic_config())
        manager.start()
        listing = manager.list_sensors()
        assert [s["name"] for s in listing] == ["cpu@h1", "mem@h1"]
        assert listing[0]["status"] == "running"

    def test_reinit_restarts(self):
        world, _h, _gw, _d, manager = manager_setup(self.basic_config())
        manager.start()
        started_at = manager.sensors["cpu"].started_at
        world.run(until=5.0)
        assert manager.reinit_sensor("cpu")
        assert manager.sensors["cpu"].started_at == 5.0 != started_at

    def test_forwarding_switches(self):
        world, _h, gw, _d, manager = manager_setup(self.basic_config())
        manager.start()
        sensor = manager.sensors["cpu"]
        assert sensor.sink is None  # nobody subscribed yet
        got = []
        sub = gw.open(SubscriptionSpec(
            sensor.name, delivery=Delivery.callback(got.append)))
        assert sensor.sink is not None
        world.run(until=2.5)
        assert got
        sub.close()
        assert sensor.sink is None

    def test_http_config_refresh_activates_new_sensors(self):
        world = GridWorld(seed=10)
        host = world.add_host("h1")
        web_host = world.add_host("web")
        world.lan([host, web_host], switch="sw")
        http = HTTPServer(world.sim, web_host, world.transport)
        config_v1 = "[sensor cpu]\ntype = cpu\nmode = always\nperiod = 1.0\n"
        http.put("/jamm.conf", config_v1)
        gw = EventGateway(world.sim, name="gw0")
        directory = DirectoryClient([DirectoryServer(world.sim)])
        manager = SensorManager(world.sim, host, gateway=gw,
                                directory=directory,
                                transport=world.transport,
                                config_http=(http, "/jamm.conf"),
                                refresh_interval=60.0)
        manager.start()
        assert set(manager.sensors) == {"cpu"}
        # §5.0: edit the central config; managers pick it up on refresh
        http.put("/jamm.conf", config_v1 +
                 "\n[sensor vm]\ntype = vmstat\nmode = always\nperiod = 1.0\n")
        world.run(until=61.0)
        assert set(manager.sensors) == {"cpu", "vm"}
        assert manager.sensors["vm"].running
        assert manager.config_reloads == 2

    def test_http_config_removal_retires_sensor(self):
        world = GridWorld(seed=11)
        host = world.add_host("h1")
        web_host = world.add_host("web")
        world.lan([host, web_host], switch="sw")
        http = HTTPServer(world.sim, web_host, world.transport)
        http.put("/jamm.conf",
                 "[sensor cpu]\ntype = cpu\nmode = always\nperiod = 1.0\n"
                 "[sensor vm]\ntype = vmstat\nmode = always\nperiod = 1.0\n")
        gw = EventGateway(world.sim, name="gw0")
        directory = DirectoryClient([DirectoryServer(world.sim)])
        manager = SensorManager(world.sim, host, gateway=gw,
                                directory=directory,
                                transport=world.transport,
                                config_http=(http, "/jamm.conf"),
                                refresh_interval=30.0)
        manager.start()
        assert set(manager.sensors) == {"cpu", "vm"}
        http.put("/jamm.conf",
                 "[sensor cpu]\ntype = cpu\nmode = always\nperiod = 1.0\n")
        world.run(until=31.0)
        assert set(manager.sensors) == {"cpu"}
        assert directory.get("sensor=vm,host=h1,ou=sensors,o=grid") is None

    def test_stop_manager_stops_everything(self):
        world, _h, _gw, _d, manager = manager_setup(self.basic_config())
        manager.start()
        world.run(until=2.0)
        manager.stop()
        assert all(not s.running for s in manager.sensors.values())

    def test_bad_config_push_is_ignored(self):
        world = GridWorld(seed=12)
        host = world.add_host("h1")
        web_host = world.add_host("web")
        world.lan([host, web_host], switch="sw")
        http = HTTPServer(world.sim, web_host, world.transport)
        http.put("/jamm.conf",
                 "[sensor cpu]\ntype = cpu\nmode = always\nperiod = 1.0\n")
        gw = EventGateway(world.sim, name="gw0")
        manager = SensorManager(world.sim, host, gateway=gw,
                                transport=world.transport,
                                config_http=(http, "/jamm.conf"),
                                refresh_interval=10.0)
        manager.start()
        http.put("/jamm.conf", "[sensor broken\nnot really a config")
        world.run(until=11.0)
        assert set(manager.sensors) == {"cpu"}  # old config still active
        assert manager.sensors["cpu"].running


class TestPortMonitor:
    def on_demand_config(self):
        config = JAMMConfig()
        config.add_sensor("netmon", "netstat", mode="on-demand",
                          ports=(7000,), period=0.5)
        config.add_sensor("cpu", "cpu", mode="always", period=1.0)
        config.enable_portmon(poll=0.5, idle_timeout=3.0)
        return config

    def test_sensor_triggered_by_port_traffic(self):
        world, host, _gw, _d, manager = manager_setup(self.on_demand_config())
        manager.start()
        world.run(until=1.0)
        assert not manager.sensors["netmon"].running
        port_traffic(host, 7000, 5000)
        world.run(until=2.0)
        assert manager.sensors["netmon"].running
        assert manager.port_monitor.triggers == 1

    def test_sensor_stopped_after_idle_timeout(self):
        world, host, _gw, _d, manager = manager_setup(self.on_demand_config())
        manager.start()
        port_traffic(host, 7000, 5000)
        world.run(until=1.0)
        assert manager.sensors["netmon"].running
        world.run(until=10.0)  # idle > 3 s
        assert not manager.sensors["netmon"].running
        assert manager.port_monitor.releases == 1

    def test_active_connection_keeps_sensor_alive(self):
        world, host, _gw, _d, manager = manager_setup(self.on_demand_config())
        manager.start()
        port_traffic(host, 7000, 100)
        host.ports.connection_opened(7000)
        world.run(until=10.0)
        assert manager.sensors["netmon"].running  # connection still open
        host.ports.connection_closed(7000)
        world.run(until=20.0)
        assert not manager.sensors["netmon"].running

    def test_portmon_does_not_stop_always_sensors(self):
        world, host, _gw, _d, manager = manager_setup(self.on_demand_config())
        manager.start()
        world.run(until=10.0)
        assert manager.sensors["cpu"].running

    def test_retrigger_after_idle_stop(self):
        world, host, _gw, _d, manager = manager_setup(self.on_demand_config())
        manager.start()
        port_traffic(host, 7000, 100)
        world.run(until=1.0)
        world.run(until=10.0)
        assert not manager.sensors["netmon"].running
        port_traffic(host, 7000, 100)
        world.run(until=11.0)
        assert manager.sensors["netmon"].running
        assert manager.port_monitor.triggers == 2

    def test_gui_rule_management(self):
        world, host, _gw, _d, manager = manager_setup(self.on_demand_config())
        manager.start()
        pm = manager.port_monitor
        pm.add_rule(21, ["netmon"])
        assert pm.watched_ports() == [21, 7000]
        port_traffic(host, 21, 10)
        world.run(until=1.0)
        assert manager.sensors["netmon"].running
        pm.remove_rule(21)
        assert pm.watched_ports() == [7000]
        info = pm.info()
        assert info["triggers"] == 1
