"""ULM wire-format serialization and parsing.

The wire form is a single line of whitespace-separated ``field=value``
pairs (paper §4.2).  Values containing whitespace or ``"`` are
double-quoted with backslash escapes — the draft permits quoted
strings, and sensors do log free-text (e.g. last error messages).

This is the innermost codec of the event path (every event crosses it
at least twice), so the tokenizer is a single precompiled regex driven
by anchored matches; the per-character scanner survives only in
:func:`_fail`, which re-walks a rejected line to produce the precise
diagnostic.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Optional

from .fields import (DATE, FieldError, HOST, LVL, PROG, REQUIRED_FIELDS,
                     REQUIRED_SET, check_token, is_valid_field_name,
                     parse_date)
from .message import ULMMessage

__all__ = ["serialize", "parse", "parse_stream", "serialize_stream",
           "iter_parse", "ParseError"]


class ParseError(ValueError):
    """Malformed ULM line."""


_NEEDS_QUOTE = re.compile(r'[\s"]')
#: one ``name=value`` token: optional whitespace, a valid field name,
#: then either a quoted value (backslash escapes) or a bare token.
_TOKEN = re.compile(
    r'\s*([A-Za-z][A-Za-z0-9_.\-]*)='
    r'(?:"((?:[^"\\]|\\.)*)"|(\S*))')
_UNESCAPE = re.compile(r"\\(.)")


def _unescape_repl(m: "re.Match[str]") -> str:
    return m.group(1)


#: field names that already passed :func:`is_valid_field_name` — sensor
#: streams reuse a handful of names, so the bare-line fast path skips
#: the name regex entirely for names it has seen
# membership-only cache: growth changes neither parse results nor any
# iteration order (never iterated), so cross-world sharing is safe
_known_names: set = set()  # repro: noqa[DET005] — membership-only cache


def _quote(value: str) -> str:
    if value and _NEEDS_QUOTE.search(value) is None:
        return value
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def serialize(msg: ULMMessage) -> str:
    """Render one message as a ULM line (no trailing newline)."""
    # DATE is digits-and-dot and never needs quoting
    parts = [f"DATE={msg.date_str} HOST={_quote(msg.host)} "
             f"PROG={_quote(msg.prog)} LVL={_quote(msg.lvl)}"]
    for name, value in msg.fields.items():
        parts.append(f"{name}={_quote(value)}")
    return " ".join(parts)


def _fail(line: str, i: int) -> None:
    """Re-scan the token the fast path rejected and raise the precise
    error (bad name, missing ``=``, or unterminated quote)."""
    n = len(line)
    while i < n and line[i].isspace():
        i += 1
    eq = line.find("=", i)
    if eq < 0:
        raise ParseError(f"expected field=value at column {i}: {line[i:i+40]!r}")
    name = line[i:eq]
    if not is_valid_field_name(name):
        raise ParseError(f"invalid field name {name!r}")
    i = eq + 1
    if i < n and line[i] == '"':
        i += 1
        while i < n:
            c = line[i]
            if c == "\\" and i + 1 < n:
                i += 2
                continue
            if c == '"':
                break
            i += 1
        else:
            raise ParseError(f"unterminated quoted value for {name!r}")
    raise ParseError(f"malformed field {name!r} at column {i}")


def _parse_bare(line: str) -> Optional[ULMMessage]:
    """Fast path for lines with no quoted values: whitespace-split the
    line and cut each token at its first ``=``.

    Returns None on any anomaly (token without ``=``, unknown-invalid
    name) so the caller can re-walk the line through the regex path,
    which produces the precise column diagnostics.
    """
    date_str = host = prog = lvl = None
    fields: dict[str, str] = {}
    known = _known_names
    for token in line.split():
        name, eq, value = token.partition("=")
        if name in REQUIRED_SET:
            if name == DATE:
                if date_str is not None:
                    raise ParseError(f"duplicate required field {name}")
                date_str = value
            elif name == HOST:
                if host is not None:
                    raise ParseError(f"duplicate required field {name}")
                host = value
            elif name == PROG:
                if prog is not None:
                    raise ParseError(f"duplicate required field {name}")
                prog = value
            else:
                if lvl is not None:
                    raise ParseError(f"duplicate required field {name}")
                lvl = value
            continue
        if name not in known:
            if not eq or not is_valid_field_name(name):
                return None  # slow path owns the error message
            if len(known) > 4096:
                known.clear()
            known.add(name)
        elif not eq:
            return None
        if name in fields:
            raise ParseError(f"duplicate field {name}")
        fields[name] = value
    return _finish(date_str, host, prog, lvl, fields)


def parse(line: str) -> ULMMessage:
    """Parse one ULM line into a :class:`ULMMessage`."""
    line = line.strip()
    if not line:
        raise ParseError("empty line")
    if '"' not in line:
        msg = _parse_bare(line)
        if msg is not None:
            return msg
    date_str = host = prog = lvl = None
    fields: dict[str, str] = {}
    n = len(line)
    pos = 0
    while pos < n:
        m = _TOKEN.match(line, pos)
        if m is None:
            _fail(line, pos)
        name, quoted, bare = m.group(1, 2, 3)
        if quoted is not None:
            value = (_UNESCAPE.sub(_unescape_repl, quoted)
                     if "\\" in quoted else quoted)
        else:
            if bare[:1] == '"':
                _fail(line, pos)  # unterminated / malformed quote
            value = bare
        pos = m.end()
        if name in REQUIRED_SET:
            if name == DATE:
                if date_str is not None:
                    raise ParseError(f"duplicate required field {name}")
                date_str = value
            elif name == HOST:
                if host is not None:
                    raise ParseError(f"duplicate required field {name}")
                host = value
            elif name == PROG:
                if prog is not None:
                    raise ParseError(f"duplicate required field {name}")
                prog = value
            else:
                if lvl is not None:
                    raise ParseError(f"duplicate required field {name}")
                lvl = value
        else:
            if name in fields:
                raise ParseError(f"duplicate field {name}")
            fields[name] = value
    return _finish(date_str, host, prog, lvl, fields)


def _finish(date_str, host, prog, lvl, fields: dict) -> ULMMessage:
    """Validate the collected required fields and build the message."""
    if date_str is None or host is None or prog is None or lvl is None:
        missing = [f for f, v in zip(REQUIRED_FIELDS, (date_str, host, prog, lvl))
                   if v is None]
        raise ParseError(f"missing required field(s): {', '.join(missing)}")
    try:
        for name, value in ((HOST, host), (PROG, prog), (LVL, lvl)):
            check_token(name, value)
        date = parse_date(date_str)
    except FieldError as exc:
        raise ParseError(str(exc)) from exc
    return ULMMessage._from_wire(date, host, prog, lvl, fields, date_str)


def serialize_stream(messages: Iterable[ULMMessage]) -> str:
    """Render many messages as newline-terminated ULM text."""
    text = "\n".join(map(serialize, messages))
    return text + "\n" if text else ""


def iter_parse(text: str, *, skip_malformed: bool = False) -> Iterator[ULMMessage]:
    """Lazily parse newline-separated ULM text.

    The streaming fast path behind :func:`parse_stream`: consumers that
    feed a k-way merge or a filter chain never materialize the whole
    message list.
    """
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line or line.isspace():
            continue
        try:
            yield parse(line)
        except ParseError as exc:
            if skip_malformed:
                continue
            raise ParseError(
                f"line {lineno}: {line[:80]!r} is malformed: {exc}") from exc


def parse_stream(text: str, *, skip_malformed: bool = False) -> list[ULMMessage]:
    """Parse newline-separated ULM text.

    With ``skip_malformed`` bad lines are dropped instead of raising —
    real log files collected from many sensors do contain torn lines.
    Errors carry the line number and chain the causing
    :class:`ParseError` (which holds the column diagnostics).
    """
    return list(iter_parse(text, skip_malformed=skip_malformed))
