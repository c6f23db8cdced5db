"""Tests for the over-the-wire request paths: gateway subscription
protocol, directory remote operations, and RMI-exported managers."""

import pytest

from repro.core import EventGateway, GATEWAY_PORT, JAMMConfig, JAMMDeployment
from repro.core.consumers.base import Consumer
from repro.core.directory import DirectoryClient, DirectoryServer, LDAPBackend
from repro.core.gateway import INTAKE_PORT
from repro.core.manager import SensorManager
from repro.core.sensors import CPUSensor
from repro.core.subscriptions import SubscriptionSpec
from repro.netlogger import NetLogDaemon, NetLogger
from repro.simgrid import GridWorld, RMIDaemon
from repro.ulm import parse as parse_ulm


def gateway_world():
    world = GridWorld(seed=70)
    sensor_host = world.add_host("s")
    gw_host = world.add_host("g")
    consumer_host = world.add_host("c")
    world.lan([sensor_host, gw_host, consumer_host], switch="sw")
    gw = EventGateway(world.sim, name="gw0", host=gw_host,
                      transport=world.transport)
    sensor = CPUSensor(sensor_host, period=1.0)
    gw.register_sensor(sensor)
    sensor.start()
    return world, sensor_host, gw_host, consumer_host, gw, sensor


class TestGatewayWireProtocol:
    def test_subscribe_over_the_wire(self):
        world, _s, gw_host, consumer, gw, sensor = gateway_world()
        deliveries = []
        consumer.ports.bind(22000, lambda m, t: deliveries.append(m.payload))
        reply = world.transport.request(
            consumer, gw_host, GATEWAY_PORT,
            {"op": "subscribe", "sensor": sensor.name, "port": 22000})
        world.run(until=3.5)
        assert reply.value["ok"]
        assert reply.value["sub_id"] > 0
        assert len(deliveries) >= 3
        wire_key, frame = deliveries[0]
        assert wire_key == ("gw0", reply.value["sub_id"])
        event = parse_ulm(frame.wire)
        assert event.event == "CPU_USAGE"

    def test_subscribe_with_wire_filter_spec(self):
        world, sensor_host, gw_host, consumer, gw, sensor = gateway_world()
        deliveries = []
        consumer.ports.bind(22001, lambda m, t: deliveries.append(m.payload))
        spec = {"kind": "threshold", "field": "CPU.USER", "op": ">",
                "limit": 50.0}
        world.transport.request(
            consumer, gw_host, GATEWAY_PORT,
            {"op": "subscribe", "sensor": sensor.name, "port": 22001,
             "filter": spec})
        world.sim.call_in(3.2, sensor_host.cpu.add_load, 1.9)
        world.run(until=8.5)
        assert len(deliveries) == 1  # one crossing

    def test_query_over_the_wire(self):
        world, _s, gw_host, consumer, gw, sensor = gateway_world()
        # register interest so forwarding is on, then query
        gw.open(SubscriptionSpec(sensor.name, mode="query"))
        world.run(until=3.0)
        reply = world.transport.request(
            consumer, gw_host, GATEWAY_PORT,
            {"op": "query", "sensor": sensor.name})
        world.run(until=3.5)
        assert reply.value["ok"]
        assert "CPU_USAGE" in reply.value["event"]

    def test_unsubscribe_over_the_wire(self):
        world, _s, gw_host, consumer, gw, sensor = gateway_world()
        deliveries = []
        consumer.ports.bind(22002, lambda m, t: deliveries.append(1))
        reply = world.transport.request(
            consumer, gw_host, GATEWAY_PORT,
            {"op": "subscribe", "sensor": sensor.name, "port": 22002})
        world.run(until=2.5)
        sub_id = reply.value["sub_id"]
        world.transport.request(consumer, gw_host, GATEWAY_PORT,
                                {"op": "unsubscribe", "sub_id": sub_id})
        world.run(until=3.0)
        count = len(deliveries)
        world.run(until=8.0)
        assert len(deliveries) == count

    def test_backpressure_spec_survives_the_wire(self):
        world, _s, gw_host, consumer, gw, sensor = gateway_world()
        spec = SubscriptionSpec(sensor.name, overflow="block", outbox_limit=8)
        back = SubscriptionSpec.from_request(spec.to_request())
        assert (back.overflow, back.outbox_limit) == ("block", 8)
        # absent keys are the defaults: pre-existing requests are unchanged
        plain = SubscriptionSpec.from_request({"sensor": sensor.name})
        assert (plain.overflow, plain.outbox_limit) == ("drop_oldest", 256)
        reply = world.transport.request(
            consumer, gw_host, GATEWAY_PORT,
            {**spec.to_request(), "port": 22004})
        world.run(until=1.0)
        assert reply.value["ok"]
        opened = gw._subs[reply.value["sub_id"]].spec
        assert (opened.overflow, opened.outbox_limit) == ("block", 8)

    @pytest.mark.parametrize("junk", [{"overflow": "levitate"},
                                      {"outbox_limit": 0},
                                      {"outbox_limit": "lots"}])
    def test_bad_backpressure_spec_is_refused(self, junk):
        world, _s, gw_host, consumer, gw, sensor = gateway_world()
        reply = world.transport.request(
            consumer, gw_host, GATEWAY_PORT,
            {"op": "subscribe", "sensor": sensor.name, "port": 22005, **junk})
        world.run(until=1.0)
        assert reply.value["ok"] is False
        assert reply.value["error"].startswith("SpecError")
        assert not gw._subs

    def test_only_the_delivery_host_controls_a_subscription(self):
        """§2.2/§7.1: the gateway is the access-control point — another
        host cannot tear down, pause or resume a stream by guessing its
        integer id."""
        world, _s, gw_host, consumer, gw, sensor = gateway_world()
        intruder = world.add_host("x")
        world.lan([intruder], switch="sw")
        deliveries = []
        consumer.ports.bind(22006, lambda m, t: deliveries.append(1))
        reply = world.transport.request(
            consumer, gw_host, GATEWAY_PORT,
            {"op": "subscribe", "sensor": sensor.name, "port": 22006})
        world.run(until=2.5)
        sub_id = reply.value["sub_id"]
        refused = [world.transport.request(intruder, gw_host, GATEWAY_PORT,
                                           {"op": op, "sub_id": sub_id})
                   for op in ("unsubscribe", "pause", "resume")]
        world.run(until=3.0)
        for r in refused:
            assert r.value["ok"] is False
            assert "not delivered to x" in r.value["error"]
        handle = gw._subs[sub_id]
        assert not handle.closed and not handle.paused
        count = len(deliveries)
        world.run(until=8.0)
        assert len(deliveries) >= count + 4  # the stream keeps arriving
        # ...and the owner still can: pause, resume, and an unknown id
        # stays a plain False rather than an error
        for i, (op, sid, ok) in enumerate((("pause", sub_id, True),
                                           ("resume", sub_id, True),
                                           ("unsubscribe", sub_id + 99, False))):
            r = world.transport.request(consumer, gw_host, GATEWAY_PORT,
                                        {"op": op, "sub_id": sid})
            world.run(until=8.5 + i / 2)
            assert r.value == {"ok": ok}

    def test_bad_op_reports_error(self):
        world, _s, gw_host, consumer, gw, sensor = gateway_world()
        reply = world.transport.request(consumer, gw_host, GATEWAY_PORT,
                                        {"op": "levitate"})
        world.run(until=1.0)
        assert reply.value["ok"] is False

    def test_error_marshalled_for_unknown_sensor(self):
        world, _s, gw_host, consumer, gw, sensor = gateway_world()
        reply = world.transport.request(
            consumer, gw_host, GATEWAY_PORT,
            {"op": "subscribe", "sensor": "ghost", "port": 22003})
        world.run(until=1.0)
        assert reply.value["ok"] is False
        assert "ghost" in reply.value["error"]

    def test_summary_over_the_wire(self):
        world, sensor_host, gw_host, consumer, gw, sensor = gateway_world()
        sensor_host.cpu.add_load(user=0.8)
        gw.summarize(sensor.name, ("CPU.USER",))
        world.run(until=10.0)
        reply = world.transport.request(
            consumer, gw_host, GATEWAY_PORT,
            {"op": "summary", "sensor": sensor.name, "field": "CPU.USER"})
        world.run(until=11.0)
        assert reply.value["ok"]
        assert reply.value["summary"]["last"] == pytest.approx(40.0)


class TestDirectoryWireProtocol:
    def setup_net(self):
        world = GridWorld(seed=71)
        server_host = world.add_host("ldap")
        client_host = world.add_host("cli")
        world.lan([server_host, client_host], switch="sw")
        server = DirectoryServer(world.sim, backend=LDAPBackend(),
                                 host=server_host,
                                 transport=world.transport)
        client = DirectoryClient([server], host=client_host,
                                 transport=world.transport)
        return world, server, client

    def test_remote_add_then_search(self):
        world, server, client = self.setup_net()
        add = client.write_remote("add", "host=h1,o=grid",
                                  {"objectclass": "host"})
        world.run(until=1.0)
        assert add.value["ok"]
        search = client.search_remote("o=grid", "(objectclass=host)")
        world.run(until=2.0)
        assert search.value["ok"]
        assert len(search.value["entries"]) == 1
        assert search.value["entries"][0]["dn"] == "host=h1,o=grid"

    def test_remote_error_marshalled(self):
        world, server, client = self.setup_net()
        bad = client.write_remote("add", "host=h1,o=elsewhere", {})
        world.run(until=1.0)
        assert bad.value["ok"] is False
        assert "suffix" in bad.value["error"]

    def test_requests_to_down_server_time_out(self):
        world, server, client = self.setup_net()
        server.fail()
        # in-process path fails immediately...
        with pytest.raises(Exception):
            client.search("o=grid")
        # ...networked path must rely on its timeout

    def test_op_latency_includes_backend_cost(self):
        world, server, client = self.setup_net()
        flag = client.write_remote("add", "x=1,o=grid", {})
        world.run(until=1.0)
        assert flag.value["ok"]
        assert server.op_latencies["add"][0] >= LDAPBackend.write_cost


class TestRMIBoundManager:
    def test_manager_controlled_through_rmi(self):
        """The real JAMM control path: gateways/GUIs invoke manager
        methods through RMI."""
        world = GridWorld(seed=72)
        managed = world.add_host("dpss1.lbl.gov")
        ops = world.add_host("ops.lbl.gov")
        world.lan([managed, ops], switch="sw")
        jamm = JAMMDeployment(world)
        gw = jamm.add_gateway("gw0")
        config = JAMMConfig()
        config.add_sensor("cpu", "cpu", mode="manual", period=1.0)
        manager = jamm.add_manager(managed, config=config, gateway=gw)
        daemon = RMIDaemon(world.sim, managed, world.transport)
        bound_name = manager.bind_rmi(daemon)
        ref = daemon.lookup_ref(ops, bound_name)

        results = []

        def control():
            listing = yield ref.invoke("list_sensors")
            results.append(("list", listing))
            started = yield ref.invoke("start_sensor", "cpu")
            results.append(("start", started))
            stopped = yield ref.invoke("stop_sensor", "cpu")
            results.append(("stop", stopped))

        world.sim.spawn(control(), name="remote-control")
        world.run(until=5.0)
        assert results[0][1][0]["name"] == "cpu@dpss1.lbl.gov"
        assert results[1][1] is True
        assert results[2][1] is True
        assert not manager.sensors["cpu"].running


class TestStreamsOwnOneSourcePort:
    def test_port_tables_are_bounded_by_flows_not_messages(self):
        """Every long-lived sender mints its source port once: a sensor
        host's relay, a gateway subscription, the directory's
        persistent-search notifier, a NetLogger sender and a background
        traffic generator.  After the first round of traffic no host's
        port table grows, however many messages follow, and the gateway
        host shows one port per subscription beside its intake."""
        world = GridWorld(seed=72)
        hosts = s_host, g_host, c_host, d_host = [
            world.add_host(name) for name in ("s", "g", "c", "d")]
        world.lan(hosts, switch="sw")
        gw = EventGateway(world.sim, name="gw0", host=g_host,
                          transport=world.transport)
        config = JAMMConfig()
        config.add_sensor("probe", "cpu", mode="manual", period=1.0)
        manager = SensorManager(world.sim, s_host, gateway=gw,
                                transport=world.transport, config=config,
                                supervision_interval=None)
        manager.start()
        consumer = Consumer(world.sim, host=c_host)
        received = []
        for fmt in ("ulm", "xml", "binary"):
            consumer.subscribe(gw, spec=SubscriptionSpec(
                sensor="probe@s", fmt=fmt)).attach(received.append)
        server = DirectoryServer(world.sim, backend=LDAPBackend(),
                                 host=d_host, transport=world.transport)
        notified = []
        c_host.ports.bind(23000, lambda m, t: notified.append(m.payload["op"]))
        server.persistent_search("o=grid", "(objectclass=*)",
                                 remote=(c_host, 23000))
        server.add_now("x=1,o=grid", {"n": "0"})
        daemon = NetLogDaemon(c_host)
        log = NetLogger("app", host=s_host, transport=world.transport)
        log.open((c_host, daemon.port))
        world.start_traffic({"src": "s", "dst": "c", "rate_bps": 1e6,
                             "packet_bytes": 1500})

        def one_round(i: int) -> None:
            manager.sensors["probe"].emit("CPU_USAGE", {"N": i})
            server.modify_now("x=1,o=grid", {"n": str(i)})
            log.write("Tick", N=i)
            world.run(until=world.now + 0.05)

        one_round(0)
        tables = {h.name: len(h.ports._activity) for h in hosts}
        for i in range(1, 300):
            one_round(i)
        world.stop_traffic()
        assert len(received) == 3 * 300 and len(daemon) == 300
        assert notified.count("modify") == 300
        assert {h.name: len(h.ports._activity) for h in hosts} == tables
        on_gateway = g_host.ports.ports_with_traffic()
        assert INTAKE_PORT in on_gateway and len(on_gateway) == 1 + 3
        # relay, NetLogger sender and traffic generator on the sensor host
        assert len(s_host.ports.ports_with_traffic()) == 3
        assert len(d_host.ports.ports_with_traffic()) == 1
