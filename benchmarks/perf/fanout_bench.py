"""Gateway fan-out scaling: events/s as subscribers grow, current vs seed.

Two subscriber populations:

* ``all_events`` — every subscriber takes the full stream, split across
  the three wire formats.  The render-once path caps rendering work at
  one render per distinct format per event; the seed loop rendered one
  copy per subscription.
* ``names_filtered`` — every subscriber wants one distinct NL.EVNT.
  The event-name index touches only the matching subscription; the
  seed loop invoked every subscription's filter on every event.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.core import EventGateway
from repro.core.filters import AllEvents, EventNames
from repro.core.subscriptions import Delivery, SubscriptionSpec
from repro.simgrid import Simulator

from . import baseline
from .codec_bench import make_events
from .timing import best_rate

__all__ = ["run", "build_gateway"]

_FMTS = ("ulm", "xml", "binary")


class _StubPorts:
    def bind(self, port, handler):
        pass

    def unbind(self, port):
        pass


class _StubHost:
    name = "bench-gw-host"

    def __init__(self):
        self.ports = _StubPorts()

    def register_service(self, name, service):
        pass


class _StubTransport:
    """Counts sends; delivery cost is out of scope for this bench."""

    def __init__(self):
        self.sent = 0

    def ephemeral_port(self):
        return 32768

    def send(self, src, dst, dst_port, payload, *, size_bytes=0,
             src_port=None, on_fail=None, on_delivered=None):
        self.sent += 1

    def send_burst(self, src, deliveries, *, traffic_class="monitoring"):
        self.sent += len(deliveries)


def build_gateway(n_subs: int, *, names_filtered: bool):
    sim = Simulator()
    transport = _StubTransport()
    gw = EventGateway(sim, name="bench-gw", host=_StubHost(),
                      transport=transport)
    sensor = SimpleNamespace(name="vmstat", sink=None, consumer_count=0)
    gw.register_sensor(sensor)
    for i in range(n_subs):
        flt = EventNames([f"EVNT_{i}"]) if names_filtered else None
        gw.open(SubscriptionSpec(
            "vmstat", event_filter=flt, fmt=_FMTS[i % len(_FMTS)],
            delivery=Delivery.remote("consumer-host", 15000 + i)))
    return gw, transport


def run(quick: bool = False) -> dict:
    sub_counts = (1, 10, 100) if quick else (1, 10, 100, 1000)
    n_events = 50 if quick else 400
    # fan-out timings are the noisiest section (short inner loops, lots
    # of allocation); best-of-7 keeps run-to-run numbers comparable
    repeats = 1 if quick else 7
    out: dict = {"n_events": n_events, "all_events": {}, "names_filtered": {}}
    for names_filtered, key in ((False, "all_events"), (True, "names_filtered")):
        events = make_events(n_events)
        if names_filtered:
            # one subscriber matches each event
            for i, msg in enumerate(events):
                msg.set("NL.EVNT", f"EVNT_{i % max(sub_counts)}")
        for n_subs in sub_counts:
            gw, transport = build_gateway(n_subs, names_filtered=names_filtered)
            # the seed loop reads a record per subscription
            subs = [SimpleNamespace(
                        mode=h.spec.mode.value, fmt=h.spec.fmt.value,
                        event_filter=h.spec.event_filter or AllEvents())
                    for h in gw._handles["vmstat"].subscriptions]
            # the seed loop is O(subs) renders per event — cap its work
            # so the 1000-subscriber point stays affordable
            batch = events if n_subs <= 100 else events[:max(20, n_events // 10)]

            def current():
                for msg in batch:
                    gw.ingest("vmstat", msg)

            def seed():
                for msg in batch:
                    baseline.seed_fanout(subs, msg,
                                         lambda sub, wire: None)

            cur = best_rate(current, len(batch), repeats)
            ref = best_rate(seed, len(batch), repeats)
            out[key][str(n_subs)] = {
                "events_per_s": cur,
                "seed_events_per_s": ref,
                "speedup": cur / ref,
                "deliveries": transport.sent,
            }
    return out
