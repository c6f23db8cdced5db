"""The archiver agent (paper §2.2).

"This consumer is used to collect data for an archive service.  It
subscribes to the logging agents, collects the event data, and places
it in the archive.  It also creates an archive directory service entry
indicating the contents of the archive."

"The JAMM architecture provides a flexible method for selecting what
gets archived, because the archive is just another consumer."
"""

from __future__ import annotations

from typing import Any, Optional

from ...ulm import ULMMessage
from ..archive import EventArchive, SamplingPolicy
from .base import Consumer

__all__ = ["ArchiverAgent"]


class ArchiverAgent(Consumer):
    """Subscribes like any consumer; stores admitted events in an archive."""

    consumer_type = "archiver"
    handle_buffer_limit = 0  # events live in the archive

    #: resilience-policy edge name for catalog publishes
    PUBLISH_EDGE = "archiver.publish"

    def __init__(self, sim, *, archive: Optional[EventArchive] = None,
                 policy: Optional[SamplingPolicy] = None,
                 publish_interval: float = 60.0,
                 compaction_interval: Optional[float] = None,
                 resilience: Any = None, **kwargs):
        super().__init__(sim, **kwargs)
        #: optional :class:`repro.core.resilience.ResiliencePolicy`:
        #: catalog publishes are counted per edge and feed the shared
        #: ("directory", "publish") health score
        self.resilience = resilience
        self.archive = archive if archive is not None else \
            EventArchive(name=f"{self.name}.store", policy=policy)
        self.publish_interval = publish_interval
        self.archived = 0
        self._dirty = False
        self._publisher = None
        #: supervised retention/compaction worker (opt-in; any archive
        #: with a retention policy should run one)
        self.compactor = None
        if compaction_interval is not None:
            self.compactor = self.archive.start_compaction(
                sim, interval=compaction_interval)

    def subscribe_all(self, selection: Any = "(objectclass=sensor)",
                      **kwargs: Any) -> int:
        """Subscribe (filter text or a ``repro.client`` sensor
        selection) and start the periodic catalog publisher."""
        opened = super().subscribe_all(selection, **kwargs)
        if self.directory is not None and self._publisher is None:
            self._publisher = self.sim.spawn(self._publish_loop(),
                                             name=f"archiver-pub[{self.name}]")
        self.publish_catalog()
        return opened

    def on_event(self, event: ULMMessage) -> None:
        if self.archive.append(event):
            self.archived += 1
            self._dirty = True
        elif self.archive.degraded:
            self._dirty = True  # degradation is catalog-worthy news

    # -- archive directory entry ---------------------------------------------------

    def catalog_dn(self) -> str:
        return f"archive={self.archive.name},ou=archives,{self.suffix}"

    def publish_catalog(self) -> bool:
        """Upsert the directory entry describing the archive contents.
        Returns ``True`` when the publish reached the directory."""
        if self.directory is None:
            return True
        # counters are incremental; host/event names cost one pass over
        # the catalog plus the unsealed head (at most the seal threshold)
        stats = self.archive.stats()
        attrs = {"objectclass": "archive",
                 "events": self.archive.event_names() or ["none"],
                 "hosts": self.archive.hosts() or ["none"],
                 "count": stats["count"],
                 "rejected": stats["rejected"],
                 "tstart": f"{stats['tstart']:.6f}",
                 "tend": f"{stats['tend']:.6f}",
                 # disk-full visibility: clients planning historical
                 # queries can see the archive is read-only/shedding
                 "degraded": "true" if stats["degraded"] else "false",
                 "degraded_reason": stats["degraded_reason"] or "none",
                 "shed": stats["shed"],
                 # retention/quarantine visibility: replay windows may
                 # have holes below the loss floor or inside quarantined
                 # spans — consumers can see both before trusting them
                 "segments": stats["segments"],
                 "quarantined": stats["quarantined"],
                 "retired": stats["events_retired"],
                 "downsampled": stats["events_downsampled"],
                 "loss_floor": f"{stats['loss_floor']:.6f}"
                               if stats["loss_floor"] != float("-inf")
                               else "none",
                 "tstart_ingested": f"{stats['ingested_span'][0]:.6f}",
                 "tend_ingested": f"{stats['ingested_span'][1]:.6f}"}
        if self.resilience is not None:
            self.resilience.edge(self.PUBLISH_EDGE)["attempts"] += 1
        try:
            self.directory.publish(self.catalog_dn(), attrs)
        except Exception:
            if self.resilience is not None:
                self.resilience.fail(self.PUBLISH_EDGE,
                                     ("directory", "publish"))
            return False  # catalog refresh retries next interval
        if self.resilience is not None:
            self.resilience.succeed(self.PUBLISH_EDGE,
                                    ("directory", "publish"))
        return True

    def _publish_loop(self):
        from ...simgrid.kernel import Timeout
        while True:
            yield Timeout(self.publish_interval)
            if self._dirty:
                # keep the catalog dirty when the publish fails so the
                # next tick retries it even if no new events arrive
                self._dirty = not self.publish_catalog()

    def close(self) -> None:
        super().close()
        if self._publisher is not None and self._publisher.alive:
            self._publisher.kill()
            self._publisher = None
        if self.compactor is not None:
            self.compactor.stop()
        self.publish_catalog()
