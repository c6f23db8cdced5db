"""[E14] §3.0: event wire formats — ASCII ULM vs XML vs binary.

Paper: "JAMM event data is delivered in ULM format, a simple
ASCII-based format ... XML support is also planned ... We are also
looking into adding a binary format option for high throughput event
data that can not tolerate the parsing overhead of ASCII formats."

This is the one genuinely micro-benchmark-shaped experiment: encode and
decode throughput of the three formats over identical event streams.
"""

import gc
import time

from repro.ulm import (ULMMessage, decode_many, encode_many, parse_stream,
                       serialize_stream, stream_from_xml, stream_to_xml)

from .conftest import report

N_EVENTS = 4000


def make_events():
    events = []
    for i in range(N_EVENTS):
        events.append(ULMMessage(
            date=i * 1e-3, host="dpss1.lbl.gov", prog="vmstat",
            event="VMSTAT_SYS_TIME",
            fields={"VALUE": f"{(i * 7) % 100}.0",
                    "SEQ": str(i), "FLOW": "tcp1:dpss1->mems:7000"}))
    return events


def _time(fn, *args):
    """Best-of-3 timing, with collection debt paid up front.

    Run mid-suite, a single-shot timing can eat a whole-heap GC pass
    triggered by garbage *earlier tests* left behind; best-of isolates
    the codec's own cost."""
    gc.collect()
    best = float("inf")
    result = None
    for _ in range(3):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return result, best


def test_format_throughput_and_size():
    events = make_events()

    def roundtrips():
        out = {}
        wire_ascii, t_enc_a = _time(serialize_stream, events)
        parsed_a, t_dec_a = _time(parse_stream, wire_ascii)
        out["ascii"] = (len(wire_ascii), t_enc_a, t_dec_a, parsed_a)
        wire_bin, t_enc_b = _time(encode_many, events)
        parsed_b, t_dec_b = _time(lambda w: list(decode_many(w)), wire_bin)
        out["binary"] = (len(wire_bin), t_enc_b, t_dec_b, parsed_b)
        wire_xml, t_enc_x = _time(stream_to_xml, events)
        parsed_x, t_dec_x = _time(stream_from_xml, wire_xml)
        out["xml"] = (len(wire_xml), t_enc_x, t_dec_x, parsed_x)
        return out

    for _ in range(3):      # the last round is the warmest: keep it
        out = roundtrips()
    rows = []
    rates = {}
    for fmt in ("ascii", "binary", "xml"):
        size, t_enc, t_dec, parsed = out[fmt]
        assert parsed == events  # lossless
        rates[fmt] = N_EVENTS / t_dec
        rows.append((f"{fmt}: bytes/event", "-", f"{size / N_EVENTS:.0f}"))
        rows.append((f"{fmt}: decode events/s", "-", f"{rates[fmt]:,.0f}"))
    report("E14", "§3.0 — ULM ASCII vs binary vs XML", rows)
    # the binary option exists because ASCII parsing costs; verify the
    # motivation holds in this implementation
    assert rates["binary"] > rates["ascii"]
    assert rates["binary"] > rates["xml"]
    # and binary is the most compact on the wire
    assert out["binary"][0] < out["ascii"][0] < out["xml"][0]
