"""RMI-like activatable remote objects.

JAMM's sensor managers, gateways, and some consumers "are implemented
as Java Activatable Remote Method Invocation (RMI) objects" (§3.0).
The properties the paper relies on, all modelled here:

* remote method invocation with network-transparent stubs
  (:class:`RemoteRef`);
* **activation**: "Activatable RMI objects can be loaded and run simply
  by invoking one of their methods, and will unload themselves
  automatically after a period of inactivity";
* **codebase download**: "RMI objects can be dynamically downloaded
  from an HTTP server every time the RMI daemon is restarted, making
  software updates trivial" — the :class:`RMIDaemon` fetches class
  factories (with versions) from an :class:`~repro.simgrid.httpd.HTTPServer`
  at (re)start.

Server-side objects are plain Python objects whose public methods are
callable remotely; a method whose name starts with ``_`` is never
exported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from .host import Host
from .httpd import HTTPServer
from .kernel import EventFlag, Simulator, Timeout
from .sockets import DeliveryError, Message, MessageTransport

__all__ = ["RMIDaemon", "RemoteRef", "RMIError", "ActivationSpec"]

RMI_PORT = 1099


class RMIError(RuntimeError):
    """Remote invocation failure (unknown object/method, remote exception)."""


@dataclass
class ActivationSpec:
    """How to (re)create an activatable object."""

    name: str
    class_name: str
    init_args: tuple = ()
    #: unload after this many seconds without an invocation
    idle_timeout: float = 300.0


class _Export:
    """Book-keeping for one exported object on a daemon."""

    def __init__(self, name: str, obj: Any = None,
                 spec: Optional[ActivationSpec] = None):
        self.name = name
        self.obj = obj
        self.spec = spec
        self.last_used = 0.0
        self.activations = 0
        self.loaded_version: Optional[int] = None

    @property
    def active(self) -> bool:
        return self.obj is not None


class RMIDaemon:
    """Per-host RMI registry + activation daemon (rmiregistry + rmid).

    ``codebase_server``/``codebase_client`` give the HTTP location class
    factories are loaded from.  A codebase document's body must be a
    ``dict`` with keys ``factory`` (callable ``(daemon, *init_args) ->
    object``) and ``version``.
    """

    def __init__(self, sim: Simulator, host: Host, transport: MessageTransport, *,
                 codebase_server: Optional[HTTPServer] = None,
                 sweep_interval: float = 30.0):
        self.sim = sim
        self.host = host
        self.transport = transport
        self.codebase_server = codebase_server
        self.sweep_interval = sweep_interval
        self._exports: dict[str, _Export] = {}
        self._class_cache: dict[str, dict] = {}
        self.invocations = 0
        self.running = False
        self._sweeper = None
        host.register_service("rmid", self)
        self.start()

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._class_cache.clear()  # restart re-fetches the codebase (§3.0)
        if self.host.ports.listener(RMI_PORT) is None:
            self.host.ports.bind(RMI_PORT, self._handle)
        self._sweeper = self.sim.spawn(self._sweep(), name=f"rmid-sweep[{self.host.name}]")

    def shutdown(self) -> None:
        """Stop the daemon; activatable objects are dropped (they will be
        re-activated — with freshly downloaded code — after restart)."""
        self.running = False
        self.host.ports.unbind(RMI_PORT)
        if self._sweeper is not None and self._sweeper.alive:
            self._sweeper.kill()
        for export in self._exports.values():
            if export.spec is not None:
                self._deactivate(export)

    def restart(self) -> None:
        self.shutdown()
        self.start()

    # -- binding ------------------------------------------------------------------

    def bind(self, name: str, obj: Any) -> None:
        """Export an always-on (non-activatable) object."""
        if name in self._exports:
            raise RMIError(f"name already bound: {name}")
        export = _Export(name, obj=obj)
        export.last_used = self.sim.now
        self._exports[name] = export

    def bind_activatable(self, spec: ActivationSpec) -> None:
        """Register an activation spec; the object is built on first call."""
        if spec.name in self._exports:
            raise RMIError(f"name already bound: {spec.name}")
        self._exports[spec.name] = _Export(spec.name, spec=spec)

    def export(self, name: str) -> Optional[_Export]:
        return self._exports.get(name)

    def is_active(self, name: str) -> bool:
        export = self._exports.get(name)
        return bool(export and export.active)

    def loaded_version(self, name: str) -> Optional[int]:
        export = self._exports.get(name)
        return export.loaded_version if export else None

    # -- activation ------------------------------------------------------------------

    def _load_class(self, class_name: str) -> dict:
        cached = self._class_cache.get(class_name)
        if cached is not None:
            return cached
        if self.codebase_server is None:
            raise RMIError(f"no codebase server to load {class_name!r} from")
        try:
            doc = self.codebase_server.get_local(f"/classes/{class_name}")
        except Exception as exc:
            raise RMIError(f"codebase load failed for {class_name!r}: {exc}") from exc
        entry = dict(doc.body)
        entry.setdefault("version", doc.version)
        self._class_cache[class_name] = entry
        return entry

    def _activate(self, export: _Export) -> Any:
        assert export.spec is not None
        entry = self._load_class(export.spec.class_name)
        factory: Callable = entry["factory"]
        export.obj = factory(self, *export.spec.init_args)
        export.activations += 1
        export.loaded_version = entry.get("version")
        started = getattr(export.obj, "activated", None)
        if callable(started):
            started()
        return export.obj

    def _deactivate(self, export: _Export) -> None:
        if export.obj is None:
            return
        stopper = getattr(export.obj, "deactivated", None)
        if callable(stopper):
            stopper()
        export.obj = None

    def _sweep(self):
        while True:
            yield Timeout(self.sweep_interval)
            for export in self._exports.values():
                if export.spec is None or export.obj is None:
                    continue
                if self.sim.now - export.last_used >= export.spec.idle_timeout:
                    self._deactivate(export)

    # -- invocation ---------------------------------------------------------------------

    def _resolve(self, name: str) -> Any:
        export = self._exports.get(name)
        if export is None:
            raise RMIError(f"no object bound as {name!r} on {self.host.name}")
        if export.obj is None:
            if export.spec is None:
                raise RMIError(f"object {name!r} has no instance and no spec")
            self._activate(export)
        export.last_used = self.sim.now
        return export.obj

    def invoke_local(self, name: str, method: str, *args: Any, **kwargs: Any) -> Any:
        """In-process invocation (used by co-located callers and tests)."""
        self.invocations += 1
        obj = self._resolve(name)
        if method.startswith("_"):
            raise RMIError(f"method {method!r} is not exported")
        fn = getattr(obj, method, None)
        if fn is None or not callable(fn):
            raise RMIError(f"{name} has no method {method!r}")
        return fn(*args, **kwargs)

    def _handle(self, msg: Message, transport: MessageTransport) -> None:
        req = msg.payload
        try:
            result = self.invoke_local(req["name"], req["method"],
                                       *req.get("args", ()),
                                       **req.get("kwargs", {}))
            transport.reply(msg, {"ok": True, "result": result})
        except Exception as exc:  # noqa: BLE001 - marshalled to the caller
            transport.reply(msg, {"ok": False, "error": f"{type(exc).__name__}: {exc}"})

    def lookup_ref(self, caller: Host, name: str) -> "RemoteRef":
        """Client-side stub for the object bound as ``name`` here."""
        return RemoteRef(self.sim, self.transport, caller, self.host, name)


class RemoteRef:
    """Client-side stub: invoke methods over the control-plane transport.

    ``invoke`` returns an :class:`EventFlag` that triggers with the
    result, or with an :class:`RMIError` on failure — processes do
    ``result = yield ref.invoke(...)`` and check the type.
    """

    def __init__(self, sim: Simulator, transport: MessageTransport,
                 caller: Host, target: Host, name: str):
        self.sim = sim
        self.transport = transport
        self.caller = caller
        self.target = target
        self.name = name

    def invoke(self, method: str, *args: Any, timeout: float = 10.0,
               **kwargs: Any) -> EventFlag:
        flag = EventFlag(self.sim, name=f"rmi:{self.name}.{method}")
        rpc = self.transport.request(
            self.caller, self.target, RMI_PORT,
            {"name": self.name, "method": method, "args": args, "kwargs": kwargs},
            size_bytes=512, timeout=timeout)

        def relay(value: Any) -> None:
            if isinstance(value, (DeliveryError, Exception)) and not isinstance(value, dict):
                flag.trigger(RMIError(str(value)))
            elif isinstance(value, dict) and value.get("ok"):
                flag.trigger(value.get("result"))
            elif isinstance(value, dict):
                flag.trigger(RMIError(value.get("error", "remote failure")))
            else:  # pragma: no cover - defensive
                flag.trigger(RMIError(f"malformed reply: {value!r}"))

        rpc.on_trigger(relay)
        return flag

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RemoteRef {self.name}@{self.target.name}>"
