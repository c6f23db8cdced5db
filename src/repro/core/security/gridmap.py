"""GSI-style gridmap file (paper §7.1).

"A server side map file is used to map the Globus X.509 user
identities to local user-ids which can be used by existing access
control mechanisms."
"""

from __future__ import annotations

from typing import Optional

__all__ = ["GridMap"]


class GridMap:
    """subject DN → local user-id mapping."""

    def __init__(self, entries: Optional[dict] = None):
        self._map: dict[str, str] = dict(entries or {})

    def add(self, subject: str, local_user: str) -> None:
        self._map[subject] = local_user

    def lookup(self, subject: str) -> Optional[str]:
        """Local user for an identity (proxies resolve to their owner's
        subject before lookup — callers pass the *effective* identity)."""
        return self._map.get(subject)

    def subjects(self) -> list[str]:
        return sorted(self._map)

    @classmethod
    def from_text(cls, text: str) -> "GridMap":
        """Parse the classic gridmap format: ``"<DN>" localuser``."""
        gm = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith('"'):
                end = line.find('"', 1)
                if end < 0:
                    continue
                subject = line[1:end]
                local = line[end + 1:].strip()
            else:
                parts = line.rsplit(None, 1)
                if len(parts) != 2:
                    continue
                subject, local = parts
            if subject and local:
                gm.add(subject, local)
        return gm

    def to_text(self) -> str:
        return "\n".join(f'"{subject}" {local}'
                         for subject, local in sorted(self._map.items()))
