"""Auto-subscribing collector driven by LDAPv3 persistent search.

Paper §2.2: "We are also interested in exploring the 'event
notification' service of LDAPv3 as soon as it is available.  This
service lets a client register interest in an entry (i.e., sensor
running) with the LDAP server, and LDAP will notify the client when
that entry becomes available or is updated."

The :class:`AutoCollector` registers a persistent search on the sensor
subtree; when a matching sensor entry appears (or flips to
``status=running``) it subscribes immediately — no polling loop, no
missed sensors.  This is the paper's "future work" feature, built.
"""

from __future__ import annotations

from typing import Any, Optional

from .base import ConsumerError
from .collector import EventCollector

__all__ = ["AutoCollector"]


class AutoCollector(EventCollector):
    """An event collector that follows directory notifications."""

    consumer_type = "autocollector"

    def __init__(self, client, **kwargs):
        super().__init__(client, **kwargs)
        self._watch_filter: Optional[str] = None
        self._event_filter_proto: Any = None
        self._spec_proto: Any = None
        self._psearch_id: Optional[int] = None
        self._subscribed_keys: set[str] = set()
        self.notifications = 0

    def watch(self, selection: Any = "(objectclass=sensor)", *,
              spec: Any = None, event_filter: Any = None) -> list:
        """Subscribe to current matches and to every future one.

        ``selection`` is LDAP filter text or a ``client.sensors(...)``
        selection (whose compiled ``filter_text`` is reused for the
        persistent search).  ``spec`` is a
        :class:`~repro.core.subscriptions.SubscriptionSpec` prototype
        cloned per sensor.  Returns the handles opened *now*; later
        arrivals are handled by the persistent-search notification.
        """
        if isinstance(selection, str):
            selection = self.client.sensors(filter_text=selection)
        # a persistent search needs filter text to match *future*
        # sensors, so a bare entry list is not enough here
        filter_text = getattr(selection, "filter_text", None)
        if filter_text is None:
            raise ConsumerError(
                f"{self.name}: watch() needs LDAP filter text or a "
                "selection carrying one (client.sensors(...)), not "
                f"{type(selection).__name__}")
        self._watch_filter = filter_text
        self._event_filter_proto = event_filter
        self._spec_proto = spec
        handles = []
        for info in selection:
            handles += self._maybe_subscribe(info)
        self._psearch_id = self.client.directory.persistent_search(
            f"ou=sensors,{self.client.suffix}", filter_text,
            self._on_notification)
        return handles

    def _maybe_subscribe(self, target) -> list:
        info = self.client._resolve(target)
        if info.key in self._subscribed_keys or info.status == "stopped":
            return []
        try:
            handles = self.subscribe_all(
                [info], spec=self._spec_proto,
                event_filter=self._event_filter_proto)
        except Exception:
            return []  # gateway unknown / not yet reachable: next update
        self._subscribed_keys.add(info.key)
        return handles

    def _on_notification(self, op: str, entry) -> None:
        """LDAP tells us a sensor entry appeared or changed."""
        self.notifications += 1
        if op in ("add", "modify"):
            self._maybe_subscribe(entry)

    def close(self) -> None:
        if self._psearch_id is not None:
            try:
                # cancel on whichever server holds the registration
                for server in getattr(self.client.directory, "servers", []):
                    server.cancel_psearch(self._psearch_id)
            except Exception:
                pass
            self._psearch_id = None
        super().close()
