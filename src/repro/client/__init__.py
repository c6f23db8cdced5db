"""repro.client — the consumer-facing monitoring API.

The paper's consumer flow (§2.2: directory lookup → gateway subscribe →
event stream / query) as one typed surface::

    client = jamm.client(host=monitor)

    cpus = client.sensors(type="cpu", host="dpss1.*")   # fluent discovery
    with client.session() as s:
        handles = s.subscribe_all(cpus)                  # typed handles
        world.run(until=10.0)
        for event in handles[0].events():
            ...
        print(handles[0].latest(), handles[0].stats())
    # all subscriptions are closed here

Specs (:class:`SubscriptionSpec`) declare *what* to subscribe —
mode, wire format, event filter, delivery, principal — and handles
(:class:`SubscriptionHandle`) are *live* subscriptions: iterate
``.events()``, ``.attach()`` callbacks, ``.latest()``, ``.stats()``,
``.close()``.  A stream is opened and closed, never paused; a remote
consumer that falls behind has the oldest events of its full gateway
outbox shed, and a self-healing session replays the committed ones
from the archive.  A session is a :class:`~repro.core.consumers.Consumer`,
like the built-in consumer types (collector, archiver, overview,
procmon, autocollector): each is built from a client, which discovers
sensors and resolves gateways for it, and subscribes the same way.
"""

from ..core.subscriptions import (DEFAULT_BUFFER_LIMIT, Delivery, SpecError,
                                  SubscriptionHandle, SubscriptionMode,
                                  SubscriptionSpec, WireFormat)
from .facade import (ClientError, ClientSession, MonitoringClient,
                     SensorInfo, SensorSelection, compile_sensor_filter)

__all__ = [
    "ClientError", "ClientSession", "DEFAULT_BUFFER_LIMIT", "Delivery",
    "MonitoringClient", "SensorInfo", "SensorSelection", "SpecError",
    "SubscriptionHandle", "SubscriptionMode", "SubscriptionSpec",
    "WireFormat", "compile_sensor_filter",
]
