"""Tier-1 guard: the work one idle send does, counted, not timed.

A wall-clock floor low enough that a slow box never trips it lets a 5x
regression through as well.  This gate (like the codec budget in
``test_throughput_floor.py``) cannot flake: it counts the Python
function calls inside ``MessageTransport.send`` (``'call'`` events under
``sys.setprofile``) for sends spaced so that every hop's queue is idle.
A route's hops are charged inline from its stored plan, so the count
must be small and must not grow with the number of hops; before routes
carried a plan this test counted 33 calls on the 2-hop route and 53 on
the 4-hop one.
"""

from __future__ import annotations

import sys

from repro.simgrid import GridWorld

#: send itself, Message(), Network.route, two PortTable.record ->
#: .activity pairs, Simulator.call_at; a little slack, far below 33
MAX_CALLS_PER_IDLE_SEND = 10


def calls_per_idle_send(world, src, dst, *, sends: int = 8) -> list[int]:
    counts = []
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    for _ in range(sends):
        world.run(until=world.now + 1.0)      # every queue drains
        calls = 0
        sys.setprofile(profile)
        try:
            world.transport.send(src, dst, 5000, None, size_bytes=200,
                                 src_port=4000)
        finally:
            sys.setprofile(None)
        counts.append(calls)
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
