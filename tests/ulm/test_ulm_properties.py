"""Property-based tests: the three ULM encodings are lossless."""

import string

from hypothesis import given, settings, strategies as st

from repro.ulm import (Frame, ULMMessage, decode, encode, format_date,
                       from_xml, parse, parse_date, quantize_date, serialize,
                       to_xml)

token = st.text(alphabet=string.ascii_letters + string.digits + ".-_",
                min_size=1, max_size=30)
field_name = st.from_regex(r"[A-Za-z][A-Za-z0-9_.\-]{0,20}", fullmatch=True)
# exclude control chars XML cannot carry; the formats themselves are
# documented as text formats
field_value = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x2FF),
    max_size=60)


@st.composite
def ulm_messages(draw):
    msg = ULMMessage(
        date=draw(st.floats(min_value=0, max_value=3e8, allow_nan=False,
                            allow_infinity=False)),
        host=draw(token), prog=draw(token),
        lvl=draw(st.sampled_from(["Usage", "Error", "Warning", "Debug"])))
    names = draw(st.lists(field_name, max_size=6, unique_by=str.upper))
    for name in names:
        if name.upper() in ("DATE", "HOST", "PROG", "LVL"):
            continue
        msg.set(name, draw(field_value))
    return msg


@given(ulm_messages())
@settings(max_examples=200, deadline=None)
def test_ascii_roundtrip(msg):
    assert parse(serialize(msg)) == msg


@given(ulm_messages())
@settings(max_examples=200, deadline=None)
def test_binary_roundtrip(msg):
    assert decode(encode(msg)) == msg


@given(ulm_messages())
@settings(max_examples=200, deadline=None)
def test_xml_roundtrip(msg):
    assert from_xml(to_xml(msg)) == msg


@given(ulm_messages())
@settings(max_examples=100, deadline=None)
def test_cross_format_equivalence(msg):
    """Any chain of encodings preserves the message."""
    via_all = from_xml(to_xml(decode(encode(parse(serialize(msg))))))
    assert via_all == msg


@given(st.floats(min_value=0, max_value=3e8, allow_nan=False,
                 allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_date_roundtrip_within_microsecond(t):
    from repro.ulm import format_date, parse_date
    assert abs(parse_date(format_date(t)) - t) <= 1e-6


# values built from the characters that exercise the quoting machinery:
# whitespace (forces quoting), quotes and backslashes (force escaping,
# including trailing-backslash and escaped-quote corners)
quoting_heavy_value = st.text(alphabet=['"', "\\", " ", "\t", "a", "=", "x"],
                              max_size=24)


@given(st.lists(quoting_heavy_value, min_size=1, max_size=5))
@settings(max_examples=300, deadline=None)
def test_ascii_roundtrip_quoting_heavy(values):
    """parse(serialize(m)) == m when every value fights the quoter."""
    msg = ULMMessage(date=12345.678901, host="h", prog="p", lvl="Usage")
    for i, value in enumerate(values):
        msg.set(f"V{i}", value)
    parsed = parse(serialize(msg))
    assert parsed == msg
    assert parsed.fields == msg.fields


# -- the wire frame vs. re-decoding its wire ------------------------------------
#
# A frame carries the message its wire stands for, and receivers read
# that instead of decoding.  These properties are what makes that safe:
# the carried message is what a decode of the wire returns — DATE
# compared as a float, not at ``__eq__``'s microsecond tolerance.

# dates that sit on, just under and just over a microsecond or a whole
# second: where rounding to the wire's quantum can carry
awkward_dates = st.one_of(
    st.sampled_from([0.0, 1.0, 0.9999995, 12.9999995, 59.9999994999,
                     86399.9999996, 1e-7, 4.9e-7, 5e-7, 123456.000001,
                     2.5e8 + 0.1234565]),
    st.integers(0, 3 * 10**8).map(float),
    st.integers(0, 3 * 10**14).map(lambda us: us / 1e6),
    st.floats(min_value=0, max_value=3e8, allow_nan=False,
              allow_infinity=False))

frame_values = st.one_of(
    st.just(""), field_value, quoting_heavy_value,
    st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0xFFFF,
                                   blacklist_categories=("Cs",),
                                   blacklist_characters="\ufffe\uffff"),
            max_size=20))


@st.composite
def frame_messages(draw):
    msg = ULMMessage(date=draw(awkward_dates), host=draw(token),
                     prog=draw(token), lvl="Usage",
                     event=draw(st.one_of(st.none(), token)))
    # the binary format's ceiling, now and then; a handful otherwise
    n_fields = draw(st.one_of(st.integers(0, 6),
                              st.just(255 - len(msg.fields))))
    for i in range(n_fields):
        msg.set(f"F{i}", draw(frame_values) if i < 8 else str(i))
    return msg


_CODECS = {"ulm": (serialize, parse), "xml": (to_xml, from_xml),
           "binary": (encode, decode)}


@given(frame_messages())
@settings(max_examples=300, deadline=None)
def test_frame_message_is_what_its_wire_decodes_to(msg):
    for fmt, (render, read) in _CODECS.items():
        frame = Frame.of(msg, fmt)
        carried, decoded = frame.message(), read(frame.wire)
        assert decoded == carried
        assert decoded.date == carried.date      # the float, not ~1 us
        assert list(decoded.fields.items()) == list(carried.fields.items())
        # the wire is the carried message's own rendering, and its size
        # is what the link is charged
        assert render(carried) == frame.wire
        assert frame.size == len(frame.wire)
        # a frame that arrives bare decodes to the same thing
        bare = Frame(fmt, frame.wire).message()
        assert bare == carried and bare.date == carried.date
    assert Frame.of(msg, "binary").message() is msg


@given(awkward_dates)
@settings(max_examples=500, deadline=None)
def test_quantize_date_is_format_then_parse(d):
    q = quantize_date(d)
    assert q == parse_date(format_date(d))
    assert quantize_date(q) == q            # canonical dates stay put
    assert format_date(q) == format_date(d)
