"""The wire frame: one event as it crosses a simulated link.

A :class:`Frame` is the event payload on both hops of the monitoring
plane (sensor host → gateway intake, gateway → consumer) and in the
gateway's outboxes: the rendered wire — what the link is charged for,
``size == len(wire)`` — *and* the :class:`ULMMessage` that wire decodes
to, so a receiver reads the message instead of parsing text that was
just rendered from it.  One frame is built per (event, format) and
shared by every recipient, message included: **a delivered event must
not be mutated**.

A frame built without a message is *foreign input* (hand-built, or
corrupted on the way); :meth:`Frame.message` decodes it on first use and
raises the codec's ``ValueError`` if the wire is malformed.
"""

from __future__ import annotations

from typing import Optional, Union

from .binfmt import decode, encode
from .fields import quantize_date
from .message import ULMMessage
from .parse import parse, serialize
from .xmlfmt import from_xml, to_xml

__all__ = ["Frame"]


def _as_parsed(msg: ULMMessage) -> ULMMessage:
    """``msg`` as a ULM/XML wire of it parses back.  Those formats carry
    DATE at microsecond precision (binary: the raw float64), so a
    message stamped finer than that gets a twin at the wire's quantum."""
    date = quantize_date(msg.date)
    if date == msg.date:
        return msg
    return ULMMessage._from_wire(date, msg.host, msg.prog, msg.lvl,
                                 dict(msg.fields), msg.date_str)


class Frame:
    """One rendered event: format, wire, its size, and its message."""

    __slots__ = ("fmt", "wire", "size", "_message")

    def __init__(self, fmt: str, wire: Union[str, bytes],
                 message: Optional[ULMMessage] = None):
        self.fmt = fmt
        self.wire = wire
        self.size = len(wire)
        self._message = message

    @classmethod
    def of(cls, msg: ULMMessage, fmt: str) -> "Frame":
        """Render ``msg`` in ``fmt`` — the one place events are encoded."""
        if fmt == "ulm":
            return cls(fmt, serialize(msg), _as_parsed(msg))
        if fmt == "xml":
            return cls(fmt, to_xml(msg), _as_parsed(msg))
        if fmt == "binary":
            return cls(fmt, encode(msg), msg)
        raise ValueError(f"unknown event format {fmt!r}")

    def message(self) -> ULMMessage:
        """The event this frame stands for (shared — do not mutate);
        decoded here only if the frame arrived without one."""
        if self._message is None:
            if self.fmt == "ulm":
                self._message = parse(self.wire)
            elif self.fmt == "xml":
                self._message = from_xml(self.wire)
            elif self.fmt == "binary":
                self._message = decode(self.wire)
            else:
                raise ValueError(f"unknown event format {self.fmt!r}")
        return self._message
