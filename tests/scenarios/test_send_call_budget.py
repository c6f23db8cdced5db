"""Tier-1 guard: the work one idle send does, counted, not timed.

A wall-clock floor low enough that a slow box never trips it lets a 5x
regression through as well.  This gate (like the codec budget in
``test_throughput_floor.py``) cannot flake: it counts the Python
function calls inside ``MessageTransport.send`` (``'call'`` events under
``sys.setprofile``) for sends spaced so that every hop's queue is idle.
A route's hops are charged in one pass over its stored plan
(``Path.charge``, one call whatever their number), so the count must be
small and must not grow with the number of hops; before routes carried
a plan this test counted 33 calls on the 2-hop route and 53 on the
4-hop one.

The second gate counts one ``MessageTransport.send_burst`` — a
gateway's fan-out of one event — with every hop's queue backlogged, the
state a fan-out puts them in: three calls per message (``Message()``,
the same ``Path.charge``, and ``Simulator.call_at`` because each lands
at its own instant) plus the burst's own, at any hop count: the routes
are already held, so nothing is resolved per burst.  As single sends
the same messages cost the five of an idle send each.

The third gate counts storm packets — background traffic toward a
host's discard service.  Every packet due before the kernel's next
dispatch goes out in one train: one kernel event and a constant few
calls a train, one call (``Path.charge``) a packet, with no message
built and no arrival left behind to deliver.  Toward a crashed host a
packet costs no call, and the failure it shrugs off
(``ignore_failure``) builds no ``DeliveryError``; nor does a flaky
endpoint's, which schedules nothing either.

The fourth gate counts the receive side: k messages due at one instant
are one kernel event, ``_deliver_batch``, which calls each handler (and
``on_delivered``) directly — one call per arrival, at k = 1 as at 8.
"""

from __future__ import annotations

import gc
import sys

from repro.simgrid import GridWorld, sockets

#: send itself, send_burst, Message(), Path.charge, Simulator.call_at:
#: five (the route is held, both port records are inline)
MAX_CALLS_PER_IDLE_SEND = 5
#: send_burst itself; one of slack
MAX_CALLS_PER_BURST = 2
#: Message(), Path.charge, Simulator.call_at
MAX_CALLS_PER_BURST_MESSAGE = 3
#: TrafficGenerator._tick, Simulator.run_ahead_limit, ._send_one,
#: send_train, its kept routes (_routes_from), and call_at for the next
#: train; no Message(), nothing for an arrival — there is none
MAX_CALLS_PER_STORM_TRAIN = 6
#: Path.charge, and nothing else
MAX_CALLS_PER_STORM_PACKET = 1
#: none: the destination is down, and the ``ignore_failure`` it would
#: go to is not called
MAX_CALLS_PER_STORM_PACKET_TO_A_DOWN_HOST = 0
#: Simulator.run and what it calls once a run, whatever the window
MAX_CALLS_PER_RUN = 4
#: MessageTransport._deliver_batch, once per instant; beside it each
#: arrival costs its handler (and its on_delivered) and nothing else
CALLS_PER_ARRIVAL_BATCH = 1


def count_calls(fn, *args, **kwargs) -> int:
    """Python-level calls made by ``fn(*args, **kwargs)``.  The
    collector is off meanwhile: a finalizer of some earlier test's
    garbage, run by an allocation in here, is a call too."""
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def calls_per_idle_send(world, src, dst, *, sends: int = 8) -> list[int]:
    counts = []
    for _ in range(sends):
        world.run(until=world.now + 1.0)      # every queue drains
        counts.append(count_calls(world.transport.send, src, dst, 5000, None,
                                  size_bytes=200, src_port=4000))
    return counts[1:]       # the first send resolves the route (BFS)


def test_idle_send_costs_the_same_on_any_route():
    world = GridWorld(seed=5)
    a, b, c = (world.add_host(name) for name in "abc")
    world.lan([a, b], switch="swA")
    world.lan([c], switch="swB")
    world.wan_path("swA", "swB", routers=["r1"])
    for host in (b, c):
        host.ports.bind(5000, lambda msg, transport: None)
    assert world.network.route(a.node, b.node).hops == 2
    assert world.network.route(a.node, c.node).hops == 4

    lan = calls_per_idle_send(world, a, b)
    wan = calls_per_idle_send(world, a, c)
    assert len(set(lan)) == 1 and len(set(wan)) == 1, (lan, wan)
    assert lan[0] <= MAX_CALLS_PER_IDLE_SEND, lan
    assert wan[0] == lan[0], (lan, wan)
    assert world.transport.queue_delay_s == 0.0   # every hop was idle
    assert world.transport.messages_sent == 16


def calls_per_backlogged_burst(world, src, dsts, *, k: int = 12) -> int:
    deliveries = [(dsts[i % len(dsts)], 5000, None, 200, 4000 + i, None, None)
                  for i in range(k)]
    world.run(until=world.now + 1.0)
    # the same burst once uncounted, at the same instant: it creates the
    # port records and leaves every hop's transmitter busy
    world.transport.send_burst(src, deliveries)
    return count_calls(world.transport.send_burst, src, deliveries)


def test_backlogged_burst_costs_three_calls_per_message_on_any_route():
    world = GridWorld(seed=5)
    a = world.add_host("a")
    near = [world.add_host(f"n{i}") for i in range(3)]
    far = [world.add_host(f"f{i}") for i in range(3)]
    world.lan([a] + near, switch="swA")
    world.lan(far, switch="swB")
    world.wan_path("swA", "swB", routers=["r1"])
    for host in near + far:
        host.ports.bind(5000, lambda msg, transport: None)
    assert world.network.route(a.node, near[0].node).hops == 2
    assert world.network.route(a.node, far[0].node).hops == 4

    k = 12
    lan = calls_per_backlogged_burst(world, a, near, k=k)
    queued = world.transport.queue_delay_s
    wan = calls_per_backlogged_burst(world, a, far, k=k)
    assert lan <= MAX_CALLS_PER_BURST + MAX_CALLS_PER_BURST_MESSAGE * k, lan
    assert wan == lan, (lan, wan)
    # every counted message queued behind the one before it, on every hop
    assert 0.0 < queued < world.transport.queue_delay_s
    assert world.transport.messages_sent == 4 * k
    assert world.transport.messages_lost_congestion == 0
    assert len(a.ports._activity) == k


def storm_world():
    """A storm from ``a`` to ``c`` across a 4-hop path, run for a
    second: its route resolved, its port records made."""
    world = GridWorld(seed=5)
    a, c = world.add_host("a"), world.add_host("c")
    world.lan([a], switch="swA")
    world.lan([c], switch="swB")
    world.wan_path("swA", "swB", routers=["r1"])
    assert world.network.route(a.node, c.node).hops == 4
    # 1 Mbit/s in 1000-byte packets: 8 ms apart, every queue idle between
    gen = world.start_traffic({"src": "a", "dst": "c", "rate_bps": 1e6,
                               "packet_bytes": 1000, "jitter": 0.2})
    world.run(until=1.0)
    return world, a, c, gen


#: unrelated timers in the counted second, each ending a train: ``int``
#: is a builtin, so firing one is no Python call
SPLITS = 9


def count_storm_second(world) -> tuple[int, int]:
    """Calls and trains of the second after ``storm_world``'s."""
    sim = world.sim
    for k in range(1, SPLITS + 1):
        sim.call_at(1.0 + k / (SPLITS + 1), int)
    events = sim.events_executed
    calls = count_calls(world.run, until=2.0)
    return calls, sim.events_executed - events - SPLITS


def test_storm_train_is_one_kernel_event_and_one_call_a_packet():
    world, _a, _c, gen = storm_world()
    tr = world.transport
    packets = gen.packets_sent
    calls, trains = count_storm_second(world)
    n = gen.packets_sent - packets
    assert n > 100
    # the packets before each split, the rest up to the horizon
    assert trains == SPLITS + 1
    assert calls <= MAX_CALLS_PER_STORM_PACKET * n \
        + MAX_CALLS_PER_STORM_TRAIN * trains + MAX_CALLS_PER_RUN, (calls, n)
    assert tr.messages_sent == gen.packets_sent and tr.queue_delay_s == 0.0
    assert not tr._arrivals and not tr._flow_clock
    assert tr.delivery_wakeups == 0


def counting_delivery_errors(monkeypatch) -> tuple[type, list]:
    made = []

    class CountedDeliveryError(sockets.DeliveryError):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(sockets, "DeliveryError", CountedDeliveryError)
    return CountedDeliveryError, made


def test_storm_train_to_a_crashed_host_costs_no_call_a_packet_and_no_error(
        monkeypatch):
    world, a, c, gen = storm_world()
    c.crash()
    counted, made = counting_delivery_errors(monkeypatch)
    tr = world.transport
    failures = gen.send_failures
    sent, dropped = tr.messages_sent, tr.messages_dropped
    calls, trains = count_storm_second(world)
    n = gen.send_failures - failures
    assert n > 100 and trains == SPLITS + 1
    assert calls <= MAX_CALLS_PER_STORM_PACKET_TO_A_DOWN_HOST * n \
        + MAX_CALLS_PER_STORM_TRAIN * trains + MAX_CALLS_PER_RUN, (calls, n)
    assert not made
    assert tr.messages_sent == sent and tr.messages_dropped == dropped + n
    # the counting subclass is live: a failure with an on_fail that is
    # not ignore_failure still builds its error
    heard = []
    tr.send(a, c, 5000, None, on_fail=heard.append)
    assert made and isinstance(heard[0], counted)


def test_a_storm_into_a_flaky_host_schedules_nothing_and_builds_no_error(
        monkeypatch):
    """Every packet fails at the endpoint, half a second after it is
    sent; its ``on_fail`` is ``ignore_failure``, so the failure is
    counted and nothing is queued to report it."""
    world, _a, _c, gen = storm_world()
    tr, sim = world.transport, world.sim
    tr.set_flaky_host("c", rate=1.0, latency_s=0.5)
    _counted, made = counting_delivery_errors(monkeypatch)
    packets = gen.packets_sent
    assert sim.pending_events == 1          # the storm's next train
    world.run(until=2.0)
    n = gen.packets_sent - packets
    assert n > 100 and tr.messages_flaky_failed == n
    assert tr.flaky_delay_s == 0.5 * n
    assert sim.pending_events == 1 and not made
    world.stop_traffic()
    assert sim.pending_events == 0


def calls_per_arrival_batch(world, src, dst, *, k: int,
                            on_delivered=None) -> int:
    """Calls made delivering k same-size messages that land at one
    instant: the first crosses a slowed link, and the flow's ordering
    watermark holds the k - 1 sent after it to its arrival."""
    tr = world.transport
    world.run(until=world.now + 1.0)
    link = world.network.route(src.node, dst.node).links[0]
    latency = link.latency_s
    for i in range(k):
        link.latency_s = latency + (0.01 if i == 0 else 0.0)
        tr.send(src, dst, 5000, None, size_bytes=200, src_port=4000,
                on_delivered=on_delivered)
    (when, batch), = tr._arrivals.items()
    assert len(batch) == k
    idle = count_calls(world.run, until=world.now)     # the run itself
    return count_calls(world.run, until=when) - idle


def test_an_arrival_costs_its_handler_call_and_nothing_else():
    world = GridWorld(seed=5)
    a, b = world.add_host("a"), world.add_host("b")
    world.lan([a, b], switch="swA")
    arrived = []
    b.ports.bind(5000, lambda msg, transport: arrived.append(msg))
    for k in (1, 8):
        assert calls_per_arrival_batch(world, a, b, k=k) \
            == CALLS_PER_ARRIVAL_BATCH + k, k
    assert calls_per_arrival_batch(
        world, a, b, k=8, on_delivered=lambda msg: None) \
        == CALLS_PER_ARRIVAL_BATCH + 2 * 8
    assert len(arrived) == 1 + 8 + 8
    assert len({msg.delivered_at for msg in arrived[1:9]}) == 1
    assert world.transport.delivery_wakeups == 3
