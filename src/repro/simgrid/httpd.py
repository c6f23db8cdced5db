"""Tiny HTTP-server model.

Two JAMM mechanisms depend on an HTTP server (§3.0, §5.0):

* sensor **configuration files** "may be local or on a remote HTTP
  server"; sensor managers re-fetch them "every few minutes" and
  activate new sensors;
* the RMI **codebase**: agent class files are "dynamically downloaded
  from an HTTP server every time the RMI daemon is restarted, making
  software updates trivial".

The model is a versioned key/value document store served over the
control-plane transport; in-process readers (the sensor manager's
config refresh, the RMI daemon's codebase) use :meth:`HTTPServer.get_local`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .host import Host
from .kernel import EventFlag, Simulator
from .sockets import Message, MessageTransport

__all__ = ["HTTPServer", "HTTPClient", "Document", "HTTPError"]


class HTTPError(RuntimeError):
    def __init__(self, status: int, reason: str):
        super().__init__(f"{status} {reason}")
        self.status = status
        self.reason = reason


@dataclass
class Document:
    path: str
    body: Any
    version: int
    modified_at: float

    @property
    def etag(self) -> str:
        return f"v{self.version}"


class HTTPServer:
    """Serves versioned documents on a host's port 80."""

    HTTP_PORT = 80

    def __init__(self, sim: Simulator, host: Host, transport: Optional[MessageTransport] = None):
        self.sim = sim
        self.host = host
        self.transport = transport
        self._docs: dict[str, Document] = {}
        self.requests_served = 0
        if transport is not None:
            host.ports.bind(self.HTTP_PORT, self._handle)
        host.register_service("httpd", self)

    # -- publishing -----------------------------------------------------------

    def put(self, path: str, body: Any) -> Document:
        old = self._docs.get(path)
        version = old.version + 1 if old is not None else 1
        doc = Document(path=path, body=body, version=version,
                       modified_at=self.sim.now)
        self._docs[path] = doc
        return doc

    def get_local(self, path: str) -> Document:
        doc = self._docs.get(path)
        if doc is None:
            raise HTTPError(404, f"not found: {path}")
        return doc

    # -- network handler --------------------------------------------------------

    def _handle(self, msg: Message, transport: MessageTransport) -> None:
        self.requests_served += 1
        req = msg.payload
        path = req.get("path")
        if_none_match = req.get("if_none_match")
        doc = self._docs.get(path)
        if doc is None:
            transport.reply(msg, {"status": 404, "reason": f"not found: {path}"})
        elif if_none_match is not None and if_none_match == doc.etag:
            transport.reply(msg, {"status": 304, "etag": doc.etag})
        else:
            transport.reply(msg, {"status": 200, "etag": doc.etag,
                                  "body": doc.body, "version": doc.version},
                            size_bytes=1024)


class HTTPClient:
    """GET documents from an :class:`HTTPServer` over the network."""

    def __init__(self, sim: Simulator, host: Host,
                 transport: MessageTransport):
        self.sim = sim
        self.host = host
        self.transport = transport

    def get(self, server: HTTPServer, path: str, *,
            etag: Optional[str] = None) -> EventFlag:
        """Fetch ``path``; the returned flag triggers with a response dict
        (``status`` 200/304/404, plus ``body``/``etag`` on 200)."""
        flag = EventFlag(self.sim, name=f"http:{path}")
        rpc = self.transport.request(self.host, server.host,
                                     HTTPServer.HTTP_PORT,
                                     {"path": path, "if_none_match": etag},
                                     size_bytes=200)

        def relay(value: Any) -> None:
            if isinstance(value, Exception):
                flag.trigger({"status": 503, "reason": str(value)})
            else:
                flag.trigger(value)

        rpc.on_trigger(relay)
        return flag
