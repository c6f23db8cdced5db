"""ULM field names, levels, and DATE handling.

The Universal Logger Message format (IETF draft
``draft-abela-ulm-05``, paper §4.2) is a whitespace-separated list of
``field=value`` pairs with four required fields — DATE, HOST, PROG,
LVL — optionally followed by user-defined fields.  NetLogger adds
NL.EVNT, a unique identifier for the event being logged.

DATE uses ``YYYYMMDDHHMMSS.ffffff`` with six fractional digits,
"allowing for microsecond precision in the timestamp".  Simulated
wall-clock second 0 corresponds to 2000-03-30 00:00:00 UTC (the era of
the paper's sample event).
"""

from __future__ import annotations

import datetime as _dt
import functools as _functools
import re

__all__ = [
    "DATE", "HOST", "PROG", "LVL", "NL_EVNT", "REQUIRED_FIELDS",
    "REQUIRED_SET", "LEVELS", "EPOCH", "check_token", "format_date",
    "parse_date", "quantize_date", "is_valid_field_name", "FieldError",
]

DATE = "DATE"
HOST = "HOST"
PROG = "PROG"
LVL = "LVL"
NL_EVNT = "NL.EVNT"

REQUIRED_FIELDS = (DATE, HOST, PROG, LVL)
REQUIRED_SET = frozenset(REQUIRED_FIELDS)

#: severity levels from the ULM draft; the paper's example uses "Usage"
LEVELS = ("Emergency", "Alert", "Error", "Warning", "Auth", "Security",
          "Usage", "System", "Important", "Debug")

#: simulated wall-clock origin
EPOCH = _dt.datetime(2000, 3, 30, 0, 0, 0, tzinfo=_dt.timezone.utc)

_FIELD_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_.\-]*$")
_DATE_RE = re.compile(r"^(\d{14})\.(\d{1,6})$")
_WS_RE = re.compile(r"\s")


class FieldError(ValueError):
    """Invalid ULM field name or value."""


def is_valid_field_name(name: str) -> bool:
    return bool(_FIELD_NAME_RE.match(name))


def check_token(name: str, value: str) -> None:
    """Require a non-empty whitespace-free value for required field
    ``name`` — the one rule every codec shares."""
    if not value or _WS_RE.search(value):
        raise FieldError(f"{name} must be a non-empty token: {value!r}")


@_functools.lru_cache(maxsize=8192)
def _stamp_of_second(sec: int) -> str:
    """The 14-digit stamp for one whole second past EPOCH.

    Events cluster heavily within the same second, so the strftime —
    by far the costliest step of rendering a DATE — runs once per
    distinct second instead of once per event.
    """
    when = EPOCH + _dt.timedelta(seconds=sec)
    return when.strftime("%Y%m%d%H%M%S")


@_functools.lru_cache(maxsize=8192)
def _second_of_stamp(stamp: str) -> float:
    """Seconds past EPOCH for one 14-digit stamp (may be negative)."""
    when = _dt.datetime.strptime(stamp, "%Y%m%d%H%M%S").replace(
        tzinfo=_dt.timezone.utc)
    return (when - EPOCH).total_seconds()


def format_date(wallclock_s: float) -> str:
    """Render seconds-since-EPOCH as a ULM DATE string (µs precision)."""
    if wallclock_s < 0:
        raise FieldError(f"negative wall-clock time: {wallclock_s}")
    sec, usec = divmod(int(round(wallclock_s * 1e6)), 1_000_000)
    return f"{_stamp_of_second(sec)}.{usec:06d}"


def quantize_date(wallclock_s: float) -> float:
    """``parse_date(format_date(d))`` without the text: the value a DATE
    has after crossing a ULM or XML wire.  The same float expression as
    :func:`parse_date` (whole seconds plus ``usec / 1e6``), so the two
    agree bit for bit."""
    sec, usec = divmod(int(round(wallclock_s * 1e6)), 1_000_000)
    return sec + usec / 1e6


def parse_date(text: str) -> float:
    """Parse a ULM DATE string back to seconds-since-EPOCH."""
    m = _DATE_RE.match(text)
    if not m:
        raise FieldError(f"malformed ULM DATE: {text!r}")
    stamp, frac = m.groups()
    try:
        base = _second_of_stamp(stamp)
    except ValueError as exc:
        raise FieldError(f"malformed ULM DATE: {text!r}") from exc
    delta = base + int(frac.ljust(6, "0")) / 1e6
    if delta < 0:
        raise FieldError(f"ULM DATE before epoch: {text!r}")
    return delta
