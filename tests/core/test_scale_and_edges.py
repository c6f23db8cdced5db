"""Scale-out deployments (§2.3 "one can add additional event gateways")
and edge-case behaviour across the event path."""

import pytest

from repro.core import JAMMConfig, JAMMDeployment
from repro.core.gateway import INTAKE_PORT
from repro.simgrid import GridWorld
from repro.ulm import Frame


def multi_gateway_world(n_hosts=8, seed=90):
    """Two site gateways, each fronting half the monitored hosts."""
    world = GridWorld(seed=seed)
    hosts = [world.add_host(f"n{i}.lbl.gov") for i in range(n_hosts)]
    gw_a = world.add_host("gw-a.lbl.gov")
    gw_b = world.add_host("gw-b.lbl.gov")
    noc = world.add_host("noc.lbl.gov")
    world.lan(hosts + [gw_a, gw_b, noc], switch="sw")
    jamm = JAMMDeployment(world)
    gateway_a = jamm.add_gateway("gw-a", host=gw_a)
    gateway_b = jamm.add_gateway("gw-b", host=gw_b)
    for i, host in enumerate(hosts):
        config = JAMMConfig()
        config.add_sensor("cpu", "cpu", period=1.0)
        jamm.add_manager(host, config=config,
                         gateway=gateway_a if i % 2 == 0 else gateway_b)
    world.run(until=0.3)
    return world, hosts, noc, jamm, gateway_a, gateway_b


class TestMultiGateway:
    def test_consumers_resolve_the_right_gateway_per_sensor(self):
        world, hosts, noc, jamm, gw_a, gw_b = multi_gateway_world()
        collector = jamm.collector(host=noc)
        opened = collector.subscribe_all("(sensortype=cpu)")
        assert opened == 8
        world.run(until=5.0)
        # every host's events arrived, through two distinct gateways
        assert {m.host for m in collector.messages} == \
            {h.name for h in hosts}
        assert gw_a.events_delivered > 0
        assert gw_b.events_delivered > 0
        # load actually split: neither gateway carried everything
        total = gw_a.events_delivered + gw_b.events_delivered
        assert 0.3 < gw_a.events_delivered / total < 0.7

    def test_directory_records_each_sensors_gateway(self):
        world, hosts, noc, jamm, gw_a, gw_b = multi_gateway_world()
        entries = jamm.sensor_entries("(sensortype=cpu)")
        gateways = {e.first("hostname"): e.first("gateway") for e in entries}
        assert gateways["n0.lbl.gov"] == "gw-a"
        assert gateways["n1.lbl.gov"] == "gw-b"

    def test_twenty_host_deployment_is_stable(self):
        world = GridWorld(seed=91)
        hosts = [world.add_host(f"h{i}") for i in range(20)]
        gwh = world.add_host("gw")
        world.lan(hosts + [gwh], switch="sw")
        jamm = JAMMDeployment(world)
        gw = jamm.add_gateway("gw0", host=gwh)
        for host in hosts:
            config = JAMMConfig()
            config.add_sensor("vm", "vmstat", period=1.0)
            jamm.add_manager(host, config=config, gateway=gw)
        world.run(until=0.3)
        collector = jamm.collector(host=gwh)
        assert collector.subscribe_all("(sensortype=vmstat)") == 20
        world.run(until=20.0)
        # 20 hosts x 3 events/s x ~20 s
        assert collector.received > 1000
        assert collector.decode_errors == 0
        assert not world.sim.crashes


class TestEventPathEdgeCases:
    def setup_pair(self, seed=92):
        world = GridWorld(seed=seed)
        sensor_host = world.add_host("s")
        gw_host = world.add_host("g")
        world.lan([sensor_host, gw_host], switch="sw")
        jamm = JAMMDeployment(world)
        gw = jamm.add_gateway("gw0", host=gw_host)
        config = JAMMConfig()
        config.add_sensor("cpu", "cpu", period=1.0)
        jamm.add_manager(sensor_host, config=config, gateway=gw)
        world.run(until=0.2)
        return world, sensor_host, gw_host, jamm, gw

    def test_malformed_intake_wire_is_dropped_not_fatal(self):
        world, sensor_host, gw_host, jamm, gw = self.setup_pair()
        world.transport.send(sensor_host, gw_host, INTAKE_PORT,
                             ("cpu@s", Frame("ulm", "NOT ULM AT ALL")))
        world.run(until=1.0)
        assert gw.events_in == 0
        # dropped, but never silently
        assert gw.intake_decode_errors == 1
        assert gw.stats()["intake_decode_errors"] == 1

    def test_intake_for_unknown_sensor_ignored(self):
        world, sensor_host, gw_host, jamm, gw = self.setup_pair()
        from repro.ulm import serialize, ULMMessage
        wire = serialize(ULMMessage(date=0.0, host="s", prog="x",
                                    event="E"))
        world.transport.send(sensor_host, gw_host, INTAKE_PORT,
                             ("ghost", Frame("ulm", wire)))
        world.run(until=1.0)
        assert gw.events_in == 0
        assert gw.intake_decode_errors == 0  # well-formed, just unknown

    def test_consumer_counts_decode_errors(self):
        world, sensor_host, gw_host, jamm, gw = self.setup_pair()
        collector = jamm.collector(host=sensor_host)
        collector.subscribe_all("(sensortype=cpu)")
        port = collector._ensure_recv_port()
        world.transport.send(gw_host, sensor_host, port,
                             (None, Frame("ulm", "garbage line")))
        world.run(until=3.0)
        assert collector.decode_errors == 1
        assert collector.received > 0  # real events still flow

    def test_sensor_crash_does_not_kill_the_gateway(self):
        """Failure injection: a sensor whose sample() raises is recorded
        (non-strict sim) and other sensors keep flowing."""
        world = GridWorld(seed=93, strict=False)
        host = world.add_host("s")
        gwh = world.add_host("g")
        world.lan([host, gwh], switch="sw")
        jamm = JAMMDeployment(world)
        gw = jamm.add_gateway("gw0", host=gwh)
        config = JAMMConfig()
        config.add_sensor("cpu", "cpu", period=1.0)
        jamm.add_manager(host, config=config, gateway=gw)
        world.run(until=0.2)
        # sabotage the cpu sensor mid-run
        sensor = jamm.managers["s"].sensors["cpu"]
        collector = jamm.collector(host=gwh)
        collector.subscribe_all("(sensortype=cpu)")
        world.run(until=2.5)
        received_before = collector.received
        world.sim.call_in(0.1, setattr, sensor, "sample",
                          lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        world.run(until=5.0)
        assert world.sim.crashes  # the sensor process died...
        assert collector.received >= received_before  # ...quietly

    def test_manager_survives_directory_total_outage(self):
        world, sensor_host, gw_host, jamm, gw = self.setup_pair()
        jamm.directory.master.fail()
        for replica in jamm.directory.replicas:
            replica.fail()
        manager = jamm.managers["s"]
        # start/stop still works; publishes are swallowed (§2.2: a
        # directory outage must not take monitoring down)
        assert manager.stop_sensor("cpu")
        assert manager.start_sensor("cpu")
        assert manager.sensors["cpu"].running
