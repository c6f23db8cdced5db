"""Tests for the unified subscription/session API (repro.client).

Covers the tentpole surfaces: typed specs (validation), first-class
handles (events/latest/stats/pause/resume/close), session lifecycle,
fluent discovery, idempotent teardown, and
the per-gateway/per-sim id-counter fixes.
"""

import pytest

from repro.client import (ClientError, Delivery, MonitoringClient,
                          SensorSelection, SpecError, SubscriptionMode,
                          SubscriptionSpec, WireFormat,
                          compile_sensor_filter)
from repro.core import (EventGateway, EventNames, GatewayError,
                        JAMMDeployment, TeardownError, Threshold)
from repro.core.sensors import CPUSensor
from repro.simgrid import GridWorld


def bare_gateway(seed=6, period=1.0):
    world = GridWorld(seed=seed)
    host = world.add_host("sensor-host")
    gw = EventGateway(world.sim, name="gw0")
    sensor = CPUSensor(host, period=period)
    gw.register_sensor(sensor)
    sensor.start()
    return world, host, gw, sensor


def deployed(seed=13, *, networked_gateway=False, cpu=False, vmstat=True):
    world = GridWorld(seed=seed)
    sensor_host = world.add_host("dpss1.lbl.gov")
    monitor = world.add_host("monitor.lbl.gov")
    gw_host = world.add_host("gw.lbl.gov")
    world.lan([sensor_host, monitor, gw_host], switch="sw")
    jamm = JAMMDeployment(world)
    gw = jamm.add_gateway("gw0", host=gw_host if networked_gateway else None)
    config = jamm.standard_config(cpu=cpu, vmstat=vmstat, netstat=False,
                                  tcpdump=False)
    jamm.add_manager(sensor_host, config=config, gateway=gw)
    world.run(until=0.2)
    return world, sensor_host, monitor, jamm, gw


# ---------------------------------------------------------------- specs


class TestSpecValidation:
    def test_bad_mode_rejected(self):
        with pytest.raises(SpecError):
            SubscriptionSpec(sensor="s", mode="telepathic")

    def test_bad_format_rejected(self):
        with pytest.raises(SpecError):
            SubscriptionSpec(sensor="s", fmt="morse")

    def test_empty_sensor_rejected(self):
        with pytest.raises(SpecError):
            SubscriptionSpec(sensor="")

    def test_non_filter_rejected(self):
        with pytest.raises(SpecError):
            SubscriptionSpec(sensor="s", event_filter=lambda m: True)

    def test_string_values_coerce_to_enums(self):
        spec = SubscriptionSpec(sensor="s", mode="query", fmt="xml")
        assert spec.mode is SubscriptionMode.QUERY
        assert spec.fmt is WireFormat.XML

    def test_stream_spec_needs_delivery_at_gateway(self):
        _w, _h, gw, sensor = bare_gateway()
        with pytest.raises(SpecError):
            gw.open(SubscriptionSpec(sensor=sensor.name))

    def test_query_spec_needs_no_delivery(self):
        _w, _h, gw, sensor = bare_gateway()
        handle = gw.open(SubscriptionSpec(sensor=sensor.name, mode="query"))
        assert handle.mode is SubscriptionMode.QUERY

    def test_clone_reinstantiates_stateful_filter(self):
        spec = SubscriptionSpec(sensor="s",
                                event_filter=Threshold("V", ">", 1.0))
        clone = spec.clone()
        assert clone.event_filter is not spec.event_filter
        assert clone.event_filter.to_dict() == spec.event_filter.to_dict()

    def test_remote_delivery_needs_host_port_pair(self):
        with pytest.raises(SpecError):
            Delivery(kind="remote", address=None).validate()


# ---------------------------------------------------------------- handles


class TestSubscriptionHandle:
    def test_events_buffer_and_drain(self):
        world, _h, gw, sensor = bare_gateway()
        handle = gw.open(SubscriptionSpec(sensor=sensor.name,
                                          delivery=Delivery.callback()))
        world.run(until=3.5)
        events = list(handle.events())
        assert len(events) == 4
        assert list(handle.events(drain=True)) == events
        assert list(handle.events()) == []

    def test_attached_callbacks_see_the_stream(self):
        world, _h, gw, sensor = bare_gateway()
        got = []
        handle = gw.open(SubscriptionSpec(
            sensor=sensor.name, delivery=Delivery.callback(got.append)))
        handle.attach(lambda m: got.append(m))
        world.run(until=2.5)
        assert len(got) == 2 * 3  # both callbacks, three events

    def test_latest_and_stats(self):
        world, _h, gw, sensor = bare_gateway()
        handle = gw.open(SubscriptionSpec(sensor=sensor.name,
                                          delivery=Delivery.callback()))
        world.run(until=5.5)
        assert handle.latest() is not None
        assert handle.latest().date == pytest.approx(5.0)
        stats = handle.stats()
        assert stats["delivered"] == 6
        assert stats["filtered"] == 0
        assert stats["sensor"] == sensor.name
        assert stats["buffered"] == 6
        assert not stats["paused"] and not stats["closed"]

    def test_close_is_idempotent(self):
        world, _h, gw, sensor = bare_gateway()
        handle = gw.open(SubscriptionSpec(sensor=sensor.name,
                                          delivery=Delivery.callback()))
        assert handle.close() is True
        assert handle.close() is False
        assert sensor.sink is None  # forwarding off again

    def test_stats_survive_close(self):
        """After close, stats() is the snapshot taken at close time —
        not zeros — so `with client.session()` blocks can report."""
        world, _h, gw, sensor = bare_gateway()
        handle = gw.open(SubscriptionSpec(sensor=sensor.name,
                                          delivery=Delivery.callback()))
        world.run(until=3.5)
        handle.close()
        stats = handle.stats()
        assert stats["closed"] is True
        assert stats["delivered"] == 4
        assert stats["buffered"] == 4  # the buffer outlives the channel

    def test_handle_as_context_manager(self):
        world, _h, gw, sensor = bare_gateway()
        with gw.open(SubscriptionSpec(sensor=sensor.name,
                                      delivery=Delivery.callback())) as handle:
            world.run(until=1.5)
        assert handle.closed
        assert gw.stats()["subscriptions"] == 0

    def test_buffer_limit_bounds_memory(self):
        world, _h, gw, sensor = bare_gateway()
        handle = gw.open(SubscriptionSpec(sensor=sensor.name,
                                          delivery=Delivery.callback(),
                                          buffer_limit=3))
        world.run(until=9.5)
        events = list(handle.events())
        assert len(events) == 3  # only the newest three retained
        assert handle.stats()["delivered"] == 10


class TestPauseResume:
    def test_pause_stops_and_resume_restarts_delivery(self):
        world, _h, gw, sensor = bare_gateway()
        handle = gw.open(SubscriptionSpec(sensor=sensor.name,
                                          delivery=Delivery.callback()))
        world.run(until=3.5)       # events at t=0..3 -> 4 delivered
        assert handle.pause() is True
        assert handle.paused
        assert handle.pause() is False  # already paused
        world.run(until=6.5)       # t=4,5,6 missed
        assert handle.stats()["delivered"] == 4
        assert handle.resume() is True
        assert handle.resume() is False
        world.run(until=8.5)       # t=7,8 delivered again
        stats = handle.stats()
        assert stats["delivered"] == 6
        assert stats["filtered"] == 3  # the paused window counts as filtered
        # aggregate accounting ties out: delivered + filtered == ingested
        gw_stats = gw.stats()
        assert gw_stats["events_delivered"] + gw_stats["events_filtered"] \
            == gw_stats["events_in"]
        assert gw_stats["events_filtered"] == 3

    def test_pause_resume_indexed_subscription(self):
        world, _h, gw, sensor = bare_gateway()
        handle = gw.open(SubscriptionSpec(
            sensor=sensor.name, delivery=Delivery.callback(),
            event_filter=EventNames(["CPU_USAGE"])))
        world.run(until=2.5)
        handle.pause()
        world.run(until=5.5)
        handle.resume()
        world.run(until=7.5)
        stats = handle.stats()
        assert stats["delivered"] == 3 + 2
        assert stats["filtered"] == 3
        gw_stats = gw.stats()
        assert gw_stats["events_delivered"] + gw_stats["events_filtered"] \
            == gw_stats["events_in"]

    def test_paused_gap_counted_once_across_observations(self):
        """stats()/sub_stats() reconcile while paused; the gap must not
        be double-counted when resume folds it in later."""
        world, _h, gw, sensor = bare_gateway()
        handle = gw.open(SubscriptionSpec(sensor=sensor.name,
                                          delivery=Delivery.callback()))
        world.run(until=1.5)
        handle.pause()
        world.run(until=3.5)
        gw.stats()            # observes part of the gap (t=2,3)
        handle.stats()        # and again via sub_stats
        world.run(until=5.5)
        handle.resume()       # folds the remainder (t=4,5)
        world.run(until=6.5)
        stats = handle.stats()
        assert stats["delivered"] == 3  # t=0,1,6
        assert stats["filtered"] == 4   # t=2..5, once each
        gw_stats = gw.stats()
        assert gw_stats["events_delivered"] + gw_stats["events_filtered"] \
            == gw_stats["events_in"]

    def test_forwarding_stays_on_while_paused(self):
        """Pause is flow control, not teardown: the subscription stays
        registered and the sensor keeps forwarding."""
        world, _h, gw, sensor = bare_gateway()
        handle = gw.open(SubscriptionSpec(sensor=sensor.name,
                                          delivery=Delivery.callback()))
        handle.pause()
        assert sensor.sink is not None
        assert gw.stats()["subscriptions"] == 1


# ---------------------------------------------------------------- id counters


class TestIdCountersAreLocal:
    def test_sub_ids_are_per_gateway(self):
        _w1, _h1, gw1, sensor1 = bare_gateway(seed=1)
        _w2, _h2, gw2, sensor2 = bare_gateway(seed=2)
        h1 = gw1.open(SubscriptionSpec(sensor=sensor1.name,
                                       delivery=Delivery.callback()))
        h2 = gw2.open(SubscriptionSpec(sensor=sensor2.name,
                                       delivery=Delivery.callback()))
        # both gateways start their own sequence: no cross-world leakage
        assert h1.sub_id == 1
        assert h2.sub_id == 1

    def test_consumer_names_are_per_sim(self):
        _w, _sh, monitor, jamm, _gw = deployed(seed=21)
        _w2, _sh2, monitor2, jamm2, _gw2 = deployed(seed=22)
        c1 = jamm.collector(host=monitor)
        c2 = jamm2.collector(host=monitor2)
        # identical worlds produce identical names regardless of how
        # many simulations ran earlier in this process
        assert c1.name == c2.name

    def test_recv_ports_are_per_sim(self):
        _w, _sh, monitor, jamm, _gw = deployed(seed=23,
                                               networked_gateway=True)
        _w2, _sh2, monitor2, jamm2, _gw2 = deployed(seed=24,
                                                    networked_gateway=True)
        c1 = jamm.collector(host=monitor)
        c2 = jamm2.collector(host=monitor2)
        c1.subscribe_all("(sensortype=vmstat)")
        c2.subscribe_all("(sensortype=vmstat)")
        assert c1._recv_port == c2._recv_port


# ---------------------------------------------------------------- teardown


class TestIdempotentTeardown:
    def test_unsubscribe_all_is_idempotent(self):
        _w, _sh, monitor, jamm, gw = deployed()
        collector = jamm.collector(host=monitor)
        collector.subscribe_all("(sensortype=vmstat)")
        assert gw.stats()["subscriptions"] == 1
        collector.unsubscribe_all()
        collector.unsubscribe_all()  # second call: no-op, no error
        assert gw.stats()["subscriptions"] == 0
        assert collector.handles == []

    def test_double_closed_handles_do_not_fail_teardown(self):
        _w, _sh, monitor, jamm, gw = deployed()
        collector = jamm.collector(host=monitor)
        handles = [collector.subscribe(gw, "vmstat@dpss1.lbl.gov")
                   for _ in range(3)]
        handles[1].close()  # consumer-held handle closed out-of-band
        collector.unsubscribe_all()  # must not raise
        assert all(h.closed for h in handles)
        assert gw.stats()["subscriptions"] == 0

    def test_teardown_error_surfaces_all_failures(self):
        _w, _sh, monitor, jamm, gw = deployed()
        collector = jamm.collector(host=monitor)
        h1 = collector.subscribe(gw, "vmstat@dpss1.lbl.gov")
        h2 = collector.subscribe(gw, "vmstat@dpss1.lbl.gov")
        h3 = collector.subscribe(gw, "vmstat@dpss1.lbl.gov")

        # SubscriptionHandle is slotted, so patch at class level and
        # make only h2 explode
        orig_close = type(h2).close

        def exploding_close(self):
            if self is h2:
                raise RuntimeError("gateway vanished")
            return orig_close(self)

        type(h2).close = exploding_close
        try:
            with pytest.raises(TeardownError) as excinfo:
                collector.unsubscribe_all()
        finally:
            type(h2).close = orig_close
        # the broken handle did not strand the others
        assert h1.closed and h3.closed
        assert len(excinfo.value.failures) == 1
        assert "gateway vanished" in str(excinfo.value)
        # and the list was consumed: a retry is a clean no-op
        collector.unsubscribe_all()


# ---------------------------------------------------------------- discovery


class TestFluentDiscovery:
    def test_filter_compilation(self):
        assert compile_sensor_filter() == "(objectclass=sensor)"
        assert compile_sensor_filter(type="cpu") == \
            "(&(objectclass=sensor)(sensortype=cpu))"
        assert compile_sensor_filter(type="cpu", host="dpss1.*") == \
            "(&(objectclass=sensor)(sensortype=cpu)(hostname=dpss1.*))"
        assert compile_sensor_filter(status="running", frequency="1.*") == \
            "(&(objectclass=sensor)(status=running)(frequency=1.*))"

    def test_sensors_returns_typed_selection(self):
        _w, _sh, monitor, jamm, _gw = deployed(cpu=True)
        client = jamm.client(host=monitor)
        selection = client.sensors(type="vmstat")
        assert isinstance(selection, SensorSelection)
        assert len(selection) == 1
        info = selection[0]
        assert info.type == "vmstat"
        assert info.host == "dpss1.lbl.gov"
        assert info.gateway_name == "gw0"
        assert selection.filter_text == \
            "(&(objectclass=sensor)(sensortype=vmstat))"
        # wildcard criteria
        assert len(client.sensors(host="dpss1.*")) == 2
        assert len(client.sensors(host="nosuch.*")) == 0

    def test_filter_compilation_is_cached(self):
        from repro.client import facade
        facade._compile_cached.cache_clear()
        first = compile_sensor_filter(type="cpu", host="dpss1.*")
        again = compile_sensor_filter(type="cpu", host="dpss1.*")
        assert first == again
        info = facade._compile_cached.cache_info()
        assert info.hits == 1 and info.misses == 1
        # unhashable values stringify and compile (and cache) fine
        assert compile_sensor_filter(tags=["a"]) == \
            "(&(objectclass=sensor)(tags=['a']))"
        # equal-but-differently-rendered values must not share a slot
        assert compile_sensor_filter(port=1) == \
            "(&(objectclass=sensor)(port=1))"
        assert compile_sensor_filter(port=True) == \
            "(&(objectclass=sensor)(port=True))"
        assert compile_sensor_filter(port=1.0) == \
            "(&(objectclass=sensor)(port=1.0))"

    def test_filter_text_and_criteria_are_exclusive(self):
        _w, _sh, monitor, jamm, _gw = deployed()
        client = jamm.client(host=monitor)
        with pytest.raises(ClientError):
            client.sensors(filter_text="(objectclass=sensor)", type="cpu")

    def test_find_and_latest(self):
        world, _sh, monitor, jamm, _gw = deployed()
        client = jamm.client(host=monitor)
        info = client.find("vmstat@dpss1.lbl.gov")
        assert info is not None and info.type == "vmstat"
        assert client.find("ghost") is None
        with client.session() as session:
            session.subscribe(info)
            world.run(until=3.5)
            assert client.latest(info) is not None
            assert client.latest("vmstat@dpss1.lbl.gov").event


# ---------------------------------------------------------------- sessions


class TestClientSession:
    def test_session_lifecycle_closes_all_handles(self):
        world, _sh, monitor, jamm, gw = deployed(cpu=True)
        client = jamm.client(host=monitor)
        with client.session() as session:
            handles = session.subscribe_all(client.sensors())
            assert len(handles) == 2
            assert gw.stats()["subscriptions"] == 2
            world.run(until=3.5)
            assert session.received > 0
            assert sum(len(list(h.events())) for h in handles) == \
                session.received
        assert gw.stats()["subscriptions"] == 0
        assert all(h.closed for h in handles)
        # closed sessions refuse new work but tolerate another close()
        session.close()
        with pytest.raises(ClientError):
            session.subscribe("vmstat@dpss1.lbl.gov")

    def test_subscribe_by_criteria_and_on_event(self):
        world, _sh, monitor, jamm, _gw = deployed(cpu=True)
        client = jamm.client(host=monitor)
        got = []
        with client.session() as session:
            handles = session.subscribe_all(type="cpu", on_event=got.append)
            assert len(handles) == 1
            world.run(until=2.5)
        assert len(got) == 2  # t=1, t=2 (subscribed at t=0.2)
        assert [m.event for m in got] == ["CPU_USAGE"] * 2

    def test_session_subscribe_by_key_string(self):
        world, _sh, monitor, jamm, _gw = deployed()
        client = jamm.client(host=monitor)
        with client.session() as session:
            handle = session.subscribe("vmstat@dpss1.lbl.gov")
            world.run(until=2.5)
            # vmstat emits three series per tick; two ticks observed
            assert len(list(handle.events())) == 6
        with pytest.raises(ClientError):
            with client.session() as session:
                session.subscribe("no-such-sensor")

    def test_entry_less_sensor_info_rejected_clearly(self):
        from repro.client import SensorInfo
        _w, _sh, monitor, jamm, _gw = deployed()
        client = jamm.client(host=monitor)
        bare = SensorInfo(key="vmstat@dpss1.lbl.gov", name="vmstat",
                          host="dpss1.lbl.gov", type="vmstat",
                          status="running", gateway_name="gw0",
                          gateway_host=None)
        with client.session() as session:
            with pytest.raises(ClientError, match="no directory entry"):
                session.subscribe(bare)

    def test_session_over_the_network_demuxes_to_handles(self):
        """With a networked gateway the session binds a receive port;
        deliveries are decoded and routed to the owning handle."""
        world, _sh, monitor, jamm, gw = deployed(networked_gateway=True,
                                                 cpu=True)
        client = jamm.client(host=monitor)
        with client.session() as session:
            h_cpu = session.subscribe("cpu@dpss1.lbl.gov", fmt="binary")
            h_vm = session.subscribe("vmstat@dpss1.lbl.gov", fmt="xml")
            world.run(until=3.4)
            cpu_events = list(h_cpu.events())
            vm_events = list(h_vm.events())
            assert len(cpu_events) == 3
            assert all(m.event == "CPU_USAGE" for m in cpu_events)
            assert vm_events and all(m.event.startswith("VMSTAT")
                                     for m in vm_events)
        assert session._consumer._recv_port is None  # port unbound

    def test_spec_prototype_cloned_per_sensor(self):
        world, _sh, monitor, jamm, _gw = deployed(cpu=True)
        client = jamm.client(host=monitor)
        proto = SubscriptionSpec(sensor="placeholder",
                                 event_filter=Threshold("CPU.USER", ">", 0.0))
        with client.session() as session:
            handles = session.subscribe_all(client.sensors(), spec=proto)
            filters = [h.spec.event_filter for h in handles]
            assert len(set(map(id, filters))) == len(filters)

    def test_exception_in_body_still_tears_down(self):
        world, _sh, monitor, jamm, gw = deployed()
        client = jamm.client(host=monitor)
        with pytest.raises(RuntimeError, match="boom"):
            with client.session() as session:
                session.subscribe("vmstat@dpss1.lbl.gov")
                raise RuntimeError("boom")
        assert gw.stats()["subscriptions"] == 0


# ---------------------------------------------------------------- consumers


class TestConsumersOnSpecs:
    def test_collector_subscribe_all_accepts_selection(self):
        world, _sh, monitor, jamm, _gw = deployed(cpu=True)
        client = jamm.client(host=monitor)
        collector = jamm.collector(host=monitor)
        opened = collector.subscribe_all(client.sensors(type="vmstat"))
        assert opened == 1
        world.run(until=3.5)
        assert collector.received == 9  # three vmstat series, t=1..3
        assert len(collector.handles) == 1
        assert collector.handles[0].sensor == "vmstat@dpss1.lbl.gov"
        # self-storing consumers keep events in their own structures;
        # their handles don't duplicate the stream
        assert list(collector.handles[0].events()) == []
        assert len(collector.messages) == 9

    def test_consumer_spec_prototype(self):
        world, _sh, monitor, jamm, _gw = deployed(cpu=True)
        client = jamm.client(host=monitor)
        collector = jamm.collector(host=monitor)
        spec = SubscriptionSpec(sensor="x", fmt="binary",
                                event_filter=EventNames(["CPU_USAGE"]))
        collector.subscribe_all(client.sensors(), spec=spec)
        world.run(until=2.5)
        assert collector.received == 2  # vmstat events filtered out
        assert {h.fmt for h in collector.handles} == {WireFormat.BINARY}

    def test_autocollector_watch_takes_selection(self):
        world, _sh, monitor, jamm, _gw = deployed(cpu=True)
        client = jamm.client(host=monitor)
        auto = jamm.auto_collector(host=monitor)
        opened = auto.watch(client.sensors(type="cpu"))
        assert opened == 1
        assert auto._watch_filter == "(&(objectclass=sensor)(sensortype=cpu))"
        world.run(until=2.5)
        assert auto.received == 2
        auto.close()
        auto.close()  # idempotent

    def test_autocollector_watch_rejects_bare_entry_lists(self):
        """A persistent search needs filter text to match future
        sensors — a plain entry list must not silently broaden the
        watch to every sensor."""
        from repro.core.consumers import ConsumerError
        _w, _sh, monitor, jamm, _gw = deployed(cpu=True)
        client = jamm.client(host=monitor)
        auto = jamm.auto_collector(host=monitor)
        with pytest.raises(ConsumerError):
            auto.watch(list(client.sensors(type="cpu")))


class TestMonitoringClientFacadeConsumersShare:
    def test_gui_accepts_client_facade(self):
        from repro.core import SensorDataGUI
        _w, _sh, monitor, jamm, _gw = deployed()
        gui = SensorDataGUI(jamm.client(host=monitor))
        assert gui.suffix == "o=grid"  # inherited from the facade
        rows = gui.rows()
        assert rows and rows[0]["sensor"] == "vmstat"
        # an explicit suffix beats the facade's
        other = SensorDataGUI(jamm.client(host=monitor),
                              suffix="o=elsewhere")
        assert other.suffix == "o=elsewhere"

    def test_summary_point_read(self):
        world, _sh, monitor, jamm, gw = deployed(cpu=True)
        client = jamm.client(host=monitor)
        gw.summarize("cpu@dpss1.lbl.gov", ("CPU.USER",))
        world.run(until=10.5)
        snap = client.summary("cpu@dpss1.lbl.gov", "CPU.USER")
        assert snap is not None and "avg1m" in snap
