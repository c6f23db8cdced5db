"""The ULM message object.

A :class:`ULMMessage` is an ordered mapping of fields with the four
required ULM fields promoted to attributes.  Messages sort by DATE
(then by insertion sequence for stability), which is what the
NetLogger collection tools rely on when merging event streams from
many sensors (§4.1 "a set of tools for collecting and sorting log
files").
"""

from __future__ import annotations

import itertools
from typing import Any, Mapping, Optional

from .fields import (DATE, FieldError, HOST, LVL, NL_EVNT, PROG,
                     check_token, format_date, is_valid_field_name)

__all__ = ["ULMMessage"]

# offset-invariant: only *relative* order of seq values within one run
# matters (same-date tie-break), so the process-global counter is safe
_seq = itertools.count()  # repro: noqa[DET005] — offset-invariant tie-break


class ULMMessage:
    """One timestamped monitoring event in ULM form.

    ``date`` is wall-clock seconds since the simulated epoch (see
    :data:`repro.ulm.fields.EPOCH`).  ``fields`` holds the user-defined
    fields in insertion order; values are stored as strings, the way
    they appear on the wire (helpers :meth:`get_float` / :meth:`get_int`
    parse on access).
    """

    __slots__ = ("date", "host", "prog", "lvl", "fields", "_seq",
                 "_date_str", "_hash")

    def __init__(self, *, date: float, host: str, prog: str, lvl: str = "Usage",
                 fields: Optional[Mapping[str, Any]] = None,
                 event: Optional[str] = None):
        if date < 0:
            raise FieldError("DATE must be >= 0 (seconds since epoch)")
        for name, value in ((HOST, host), (PROG, prog), (LVL, lvl)):
            check_token(name, str(value))
        self.date = float(date)
        self.host = str(host)
        self.prog = str(prog)
        self.lvl = str(lvl)
        self.fields: dict[str, str] = {}
        if event is not None:
            self.fields[NL_EVNT] = str(event)
        if fields:
            for key, value in fields.items():
                self.set(key, value)
        self._seq = next(_seq)
        self._date_str: Optional[str] = None
        self._hash: Optional[int] = None

    @classmethod
    def _from_wire(cls, date: float, host: str, prog: str, lvl: str,
                   fields: dict, date_str: Optional[str] = None) -> "ULMMessage":
        """Build from already-validated wire fields, skipping the
        constructor's re-validation — the parser/decoder fast path.
        ``fields`` is adopted, not copied."""
        self = object.__new__(cls)
        self.date = date
        self.host = host
        self.prog = prog
        self.lvl = lvl
        self.fields = fields
        self._seq = next(_seq)
        self._date_str = date_str
        self._hash = None
        return self

    # -- field access ---------------------------------------------------------

    def set(self, name: str, value: Any) -> None:
        if name in (DATE, HOST, PROG, LVL):
            raise FieldError(f"{name} is a required field; set the attribute")
        if not is_valid_field_name(name):
            raise FieldError(f"invalid ULM field name: {name!r}")
        self.fields[name] = str(value)
        self._hash = None

    def get(self, name: str, default: Any = None) -> Any:
        if name == DATE:
            return self.date_str
        if name == HOST:
            return self.host
        if name == PROG:
            return self.prog
        if name == LVL:
            return self.lvl
        return self.fields.get(name, default)

    def get_float(self, name: str, default: float = 0.0) -> float:
        raw = self.fields.get(name)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            return default

    def get_int(self, name: str, default: int = 0) -> int:
        raw = self.fields.get(name)
        if raw is None:
            return default
        try:
            return int(float(raw))
        except ValueError:
            return default

    @property
    def event(self) -> Optional[str]:
        """The NetLogger NL.EVNT identifier, if present."""
        return self.fields.get(NL_EVNT)

    @property
    def date_str(self) -> str:
        cached = self._date_str
        if cached is None:
            cached = self._date_str = format_date(self.date)
        return cached


    # -- identity / ordering ------------------------------------------------------

    def copy(self) -> "ULMMessage":
        return ULMMessage(date=self.date, host=self.host, prog=self.prog,
                          lvl=self.lvl, fields=dict(self.fields))

    def sort_key(self) -> tuple[float, int]:
        return (self.date, self._seq)

    def __lt__(self, other: "ULMMessage") -> bool:
        if self.date != other.date:
            return self.date < other.date
        return self._seq < other._seq

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ULMMessage):
            return NotImplemented
        # wire dates carry microsecond precision; compare at that
        # quantum (numerically — formatting dates here was the single
        # hottest line of the old event path)
        return (round(self.date * 1e6) == round(other.date * 1e6)
                and self.host == other.host
                and self.prog == other.prog and self.lvl == other.lvl
                and self.fields == other.fields)

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = self._hash = hash(
                (round(self.date * 1e6), self.host, self.prog, self.lvl,
                 tuple(sorted(self.fields.items()))))
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        evnt = self.fields.get(NL_EVNT, "?")
        return f"<ULM {self.date_str} {self.host} {self.prog} {evnt}>"

