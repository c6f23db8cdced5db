"""NetLogger client API (paper §4.4).

Mirrors the paper's Java API::

    NetLogger eventLog = new NetLogger("testprog");
    eventLog.open("dolly.lbl.gov", 14830);
    eventLog.write("WriteIt", "SEND.SZ=" + sz);
    eventLog.close();

Python form::

    log = NetLogger("testprog", host=myhost, transport=world.transport)
    log.open(("dolly.lbl.gov", 14830))       # or "memory:", "file:",
                                             # "syslog:" destinations
    log.write("WriteIt", SEND_SZ=sz)         # or log.write("WriteIt", "SEND.SZ=49332")
    log.close()

The API supports "logging to either memory, a local file, syslog, a
remote host.  Logging to memory is available in the form of a buffer
which can be explicitly flushed to one of the other locations (file,
host, or syslog), or automatically flushed when the buffer is full."
All timestamps are taken from the owning host's (possibly skewed)
clock; instrumented applications need NTP for cross-host analysis
(§4.3).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Union

from ..simgrid.sockets import ignore_failure
from ..ulm import ULMMessage, serialize

__all__ = ["NetLogger", "Destination", "MemoryDestination", "FileDestination",
           "SyslogDestination", "HostDestination", "NetLoggerError"]

NETLOGD_PORT = 14830


class NetLoggerError(RuntimeError):
    pass


class Destination:
    """Where written events go.  Subclasses implement :meth:`emit`."""

    def emit(self, msg: ULMMessage) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default no-op
        pass


class FileDestination(Destination):
    """Append events to an in-memory "file" (list + ULM text rendering)."""

    def __init__(self, path: str = "netlogger.log"):
        self.path = path
        self.messages: list[ULMMessage] = []

    def emit(self, msg: ULMMessage) -> None:
        self.messages.append(msg)

    def __len__(self) -> int:
        return len(self.messages)


class SyslogDestination(Destination):
    """Syslog-style sink: formatted lines via a writer callable."""

    def __init__(self, writer: Optional[Callable[[str], None]] = None,
                 facility: str = "local0"):
        self.facility = facility
        self.lines: list[str] = []
        self._writer = writer

    def emit(self, msg: ULMMessage) -> None:
        line = f"<{self.facility}> {serialize(msg)}"
        self.lines.append(line)
        if self._writer is not None:
            self._writer(line)


class HostDestination(Destination):
    """Send each event to a remote collector over the control plane."""

    def __init__(self, transport, src_host, dst_host, port: int = NETLOGD_PORT):
        self.transport = transport
        self.src_host = src_host
        self.dst_host = dst_host
        self.port = port
        self.src_port = transport.ephemeral_port()
        self.sent = 0

    def emit(self, msg: ULMMessage) -> None:
        wire = serialize(msg)
        self.transport.send(self.src_host, self.dst_host, self.port, wire,
                            size_bytes=len(wire), src_port=self.src_port,
                            on_fail=ignore_failure)
        self.sent += 1


class MemoryDestination(Destination):
    """Buffer in memory; flush explicitly or automatically when full."""

    def __init__(self, *, capacity: int = 1024,
                 flush_to: Optional[Destination] = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.flush_to = flush_to
        self.buffer: list[ULMMessage] = []
        self.auto_flushes = 0

    def emit(self, msg: ULMMessage) -> None:
        self.buffer.append(msg)
        if len(self.buffer) >= self.capacity:
            self.auto_flushes += 1
            self.flush()

    def flush(self, to: Optional[Destination] = None) -> int:
        """Drain the buffer into ``to`` (or the configured flush_to)."""
        target = to if to is not None else self.flush_to
        drained = len(self.buffer)
        if target is not None:
            for msg in self.buffer:
                target.emit(msg)
        self.buffer.clear()
        return drained

    def close(self) -> None:
        self.flush()


class NetLogger:
    """The instrumentation handle one program holds."""

    def __init__(self, prog: str, *, host: Any = None,
                 transport: Any = None, lvl: str = "Usage",
                 time_source: Optional[Callable[[], float]] = None,
                 hostname: Optional[str] = None):
        self.prog = prog
        self.host = host
        self.transport = transport
        self.lvl = lvl
        self._time = time_source
        self._hostname = hostname
        self.dest: Optional[Destination] = None
        self.written = 0

    # -- destination management ------------------------------------------------

    def open(self, destination: Union[Destination, tuple, str]) -> Destination:
        """Open a destination.

        * a :class:`Destination` instance — used as-is;
        * ``(host, port)`` — remote collector (``host`` may be a Host
          object or a name resolvable through the transport's world);
        * ``"memory:"``, ``"file:PATH"``, ``"syslog:"`` — local sinks.
        """
        if isinstance(destination, Destination):
            self.dest = destination
        elif isinstance(destination, tuple):
            dst, port = destination
            if self.transport is None or self.host is None:
                raise NetLoggerError("remote logging needs host+transport")
            self.dest = HostDestination(self.transport, self.host, dst, port)
        elif isinstance(destination, str):
            if destination.startswith("memory"):
                self.dest = MemoryDestination()
            elif destination.startswith("file:"):
                self.dest = FileDestination(destination[5:] or "netlogger.log")
            elif destination.startswith("file"):
                self.dest = FileDestination()
            elif destination.startswith("syslog"):
                self.dest = SyslogDestination()
            else:
                raise NetLoggerError(f"unknown destination {destination!r}")
        else:
            raise NetLoggerError(f"unsupported destination {destination!r}")
        return self.dest

    def close(self) -> None:
        if self.dest is not None:
            self.dest.close()
            self.dest = None

    # -- event emission -----------------------------------------------------------

    def _now(self) -> float:
        if self._time is not None:
            return self._time()
        if self.host is not None:
            return self.host.timestamp()
        raise NetLoggerError("no time source: pass host= or time_source=")

    def _host_name(self) -> str:
        if self._hostname is not None:
            return self._hostname
        if self.host is not None:
            return self.host.name
        return "localhost"

    def make_event(self, event: str, *pairs: str, **fields: Any) -> ULMMessage:
        """Build (but do not emit) an event message.

        Positional ``pairs`` are raw ``"NAME=value"`` strings matching
        the paper's string-concatenation style; keyword field names get
        ``_`` translated to ``.`` (``SEND_SZ=1`` → ``SEND.SZ=1``).
        """
        msg = ULMMessage(date=self._now(), host=self._host_name(),
                         prog=self.prog, lvl=self.lvl, event=event)
        for pair in pairs:
            name, sep, value = pair.partition("=")
            if not sep:
                raise NetLoggerError(f"bad field pair {pair!r}")
            msg.set(name, value)
        for name, value in fields.items():
            msg.set(name.replace("_", "."), value)
        return msg

    def write(self, event: str, *pairs: str, **fields: Any) -> ULMMessage:
        """Timestamp and emit one event to the open destination."""
        if self.dest is None:
            raise NetLoggerError("write() before open()")
        msg = self.make_event(event, *pairs, **fields)
        self.dest.emit(msg)
        self.written += 1
        return msg

