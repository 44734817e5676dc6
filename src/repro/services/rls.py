"""Replica Location Service — the Globus RLS (Giggle) equivalent.

The RLS architecture the paper used is two-tier:

* a **Local Replica Catalog (LRC)** per site records which logical
  files have physical replicas there, authoritatively;
* a **Replica Location Index (RLI)** aggregates LRC contents.  The
  production RLI did so by periodic *soft-state* updates; here attached
  LRCs report every new holder as it registers, so the index is always
  fresh.

SPHINX's DAG reducer and transfer planner query the index;
"SPHINX makes efficient use of the RLS by clubbing all its requests in
a single call" — reproduced as :meth:`ReplicaLocationIndex.bulk_lookup`.

:class:`ReplicaService` bundles an RLI over per-site LRCs.
"""

from __future__ import annotations

from bisect import insort
from typing import Iterable, Optional

__all__ = ["LocalReplicaCatalog", "ReplicaLocationIndex", "ReplicaService"]


class LocalReplicaCatalog:
    """Authoritative replica records for one site."""

    def __init__(self, site_name: str):
        self.site_name = site_name
        self._replicas: dict[str, float] = {}  # lfn -> size_mb
        #: set by :meth:`ReplicaLocationIndex.attach`: the index this
        #: catalog reports holder changes to
        self._index: Optional["ReplicaLocationIndex"] = None

    def register(self, lfn: str, size_mb: float = 0.0) -> None:
        if not lfn:
            raise ValueError("lfn must be non-empty")
        if size_mb < 0:
            raise ValueError("size must be >= 0")
        if self._index is not None and lfn not in self._replicas:
            self._index._holder_added(lfn, self.site_name)
        self._replicas[lfn] = size_mb

    def size_of(self, lfn: str) -> Optional[float]:
        return self._replicas.get(lfn)

    @property
    def lfns(self) -> tuple[str, ...]:
        return tuple(self._replicas)

    def __len__(self) -> int:
        return len(self._replicas)


class ReplicaLocationIndex:
    """Live index over a set of LRCs.

    Attached LRCs keep an inverted ``lfn -> holders`` map live as
    replicas are registered, so a lookup costs O(replicas of that LFN),
    not O(attached sites).
    """

    def __init__(self):
        self._lrcs: dict[str, LocalReplicaCatalog] = {}
        self._rank: dict[str, int] = {}  # site -> attach order
        #: live inverted index: lfn -> [(attach rank, site)], rank-sorted
        #: so answers come out in attach order
        self._holders: dict[str, list[tuple[int, str]]] = {}

    # -- LRC management --------------------------------------------------------
    def attach(self, lrc: LocalReplicaCatalog) -> None:
        if lrc.site_name in self._lrcs:
            raise ValueError(f"LRC for {lrc.site_name!r} already attached")
        if lrc._index is not None:
            raise ValueError(
                f"LRC for {lrc.site_name!r} already feeds another index"
            )
        lrc._index = self
        self._rank[lrc.site_name] = len(self._lrcs)
        self._lrcs[lrc.site_name] = lrc
        for lfn in lrc.lfns:  # registered before attach
            self._holder_added(lfn, lrc.site_name)

    def _holder_added(self, lfn: str, site: str) -> None:
        insort(self._holders.setdefault(lfn, []), (self._rank[site], site))

    def lrc(self, site_name: str) -> LocalReplicaCatalog:
        return self._lrcs[site_name]

    @property
    def sites(self) -> tuple[str, ...]:
        return tuple(self._lrcs)

    # -- queries -------------------------------------------------------------------
    def lookup(self, lfn: str) -> tuple[str, ...]:
        """Sites holding ``lfn``, in attach order."""
        return tuple([site for _rank, site in self._holders.get(lfn, ())])

    def bulk_lookup(self, lfns: Iterable[str]) -> dict[str, tuple[str, ...]]:
        """One round trip for many LFNs — the paper's "clubbed" call."""
        return {lfn: self.lookup(lfn) for lfn in lfns}

    def exists(self, lfn: str) -> bool:
        return bool(self.lookup(lfn))


class ReplicaService:
    """RLI + per-site LRCs wired to grid storage."""

    def __init__(self, site_names: Iterable[str]):
        self.index = ReplicaLocationIndex()
        for name in site_names:
            self.index.attach(LocalReplicaCatalog(name))

    # -- the API SPHINX and GridFTP use ---------------------------------------------
    def register_replica(self, lfn: str, site: str, size_mb: float = 0.0) -> None:
        self.index.lrc(site).register(lfn, size_mb)

    def locations(self, lfn: str) -> tuple[str, ...]:
        return self.index.lookup(lfn)

    def bulk_locations(self, lfns: Iterable[str]) -> dict[str, tuple[str, ...]]:
        return self.index.bulk_lookup(lfns)

    def exists(self, lfn: str) -> bool:
        return self.index.exists(lfn)

    def size_of(self, lfn: str) -> Optional[float]:
        """Best-known size across replicas (first hit wins)."""
        for site in self.index.lookup(lfn):
            size = self.index.lrc(site).size_of(lfn)
            if size is not None:
                return size
        return None
