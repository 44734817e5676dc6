"""Replica Location Service — the Globus RLS (Giggle) equivalent.

The RLS architecture the paper used is two-tier:

* a **Local Replica Catalog (LRC)** per site records which logical
  files have physical replicas there, authoritatively;
* a **Replica Location Index (RLI)** aggregates LRC contents via
  periodic *soft-state* updates, so index answers can lag reality.

SPHINX's DAG reducer and transfer planner query the index;
"SPHINX makes efficient use of the RLS by clubbing all its requests in
a single call" — reproduced as :meth:`ReplicaLocationIndex.bulk_lookup`.

:class:`ReplicaService` bundles an RLI over per-site LRCs.
"""

from __future__ import annotations

from bisect import insort
from typing import Iterable, Optional

from repro.sim.engine import Environment

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
    """Soft-state index over a set of LRCs.

    With ``update_interval_s == 0`` the index is always fresh: attached
    LRCs keep an inverted ``lfn -> holders`` map live as replicas are
    registered, so a lookup costs O(replicas of that LFN), not
    O(attached sites).  Otherwise it answers from a snapshot refreshed
    on that period, reproducing the staleness of a production RLI.
    """

    def __init__(
        self,
        env: Environment,
        update_interval_s: float = 0.0,
    ):
        if update_interval_s < 0:
            raise ValueError("update interval must be >= 0")
        self.env = env
        self.update_interval_s = update_interval_s
        self._lrcs: dict[str, LocalReplicaCatalog] = {}
        self._rank: dict[str, int] = {}  # site -> attach order
        #: live inverted index: lfn -> [(attach rank, site)], rank-sorted
        #: so answers come out in attach order
        self._holders: dict[str, list[tuple[int, str]]] = {}
        self._snapshot: dict[str, tuple[str, ...]] = {}
        self.last_update_at: Optional[float] = None
        if update_interval_s > 0:
            env.process(self._refresher())

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
        """Sites believed to hold ``lfn`` (deterministic order)."""
        if self.update_interval_s == 0:
            return tuple([site for _rank, site in self._holders.get(lfn, ())])
        return self._snapshot.get(lfn, ())

    def bulk_lookup(self, lfns: Iterable[str]) -> dict[str, tuple[str, ...]]:
        """One round trip for many LFNs — the paper's "clubbed" call."""
        return {lfn: self.lookup(lfn) for lfn in lfns}

    def exists(self, lfn: str) -> bool:
        return bool(self.lookup(lfn))

    def refresh(self) -> None:
        """Force a soft-state update (also runs on the timer)."""
        snapshot: dict[str, list[str]] = {}
        for name, lrc in self._lrcs.items():
            for lfn in lrc.lfns:
                snapshot.setdefault(lfn, []).append(name)
        self._snapshot = {lfn: tuple(sites) for lfn, sites in snapshot.items()}
        self.last_update_at = self.env.now

    def _refresher(self):
        while True:
            self.refresh()
            yield self.env.timeout(self.update_interval_s)


class ReplicaService:
    """RLI + per-site LRCs wired to grid storage."""

    def __init__(self, env: Environment, site_names: Iterable[str],
                 update_interval_s: float = 0.0):
        self.env = env
        self.index = ReplicaLocationIndex(env, update_interval_s)
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
