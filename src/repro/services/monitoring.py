"""Grid monitoring — the MDS / MonALISA / query-job equivalent.

The paper's deployment monitored remote sites by submitting *query
jobs* that report batch-queue lengths (condor_q, PBS).  Two properties
of that pipeline drive the paper's conclusions and are modelled here:

* **Staleness** — snapshots refresh on a period; between refreshes the
  scheduler sees old queue lengths.  The paper blames "the infancy of
  extant monitoring systems that result in stale information" for the
  queue-length algorithm's losses.
* **Blindness to silent failures** — a query job against a DOWN or
  BLACKHOLE site does not come back; the last good snapshot persists,
  so monitoring-driven algorithms keep trusting a dead site until a
  scheduler-side mechanism (feedback) intervenes.

Optionally, multiplicative noise models measurement error.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

from repro.sim.engine import Environment
from repro.sim.rng import RngStreams
from repro.simgrid.grid import Grid
from repro.simgrid.site import SiteState

__all__ = ["MonitoringService", "SiteSnapshot"]


@dataclass(frozen=True, slots=True)
class SiteSnapshot:
    """One monitoring observation of one site."""

    site: str
    taken_at: float
    n_cpus: int
    queued_jobs: int
    running_jobs: int

    def age_s(self, now: float) -> float:
        return now - self.taken_at


class MonitoringService:
    """Periodic snapshot publisher over a grid."""

    def __init__(
        self,
        env: Environment,
        grid: Grid,
        update_interval_s: float = 300.0,
        noise_sigma: float = 0.0,
        rng: Optional[RngStreams] = None,
    ):
        if update_interval_s <= 0:
            raise ValueError("update interval must be > 0")
        if noise_sigma < 0:
            raise ValueError("noise sigma must be >= 0")
        if noise_sigma > 0 and rng is None:
            raise ValueError("noise requires an RNG")
        self.env = env
        self.grid = grid
        self.update_interval_s = update_interval_s
        self.noise_sigma = noise_sigma
        self._rng = rng.stream("monitoring-noise") if rng else None
        self._snapshots: dict[str, SiteSnapshot] = {}
        #: completed polls, and the sites whose snapshot object the
        #: latest one replaced — how a poll announces itself.  A reader
        #: that saw poll ``n - 1`` needs only ``refreshed`` to catch up;
        #: a site that could not report (DOWN, BLACKHOLE) keeps its old
        #: snapshot and is not in the set.
        self.poll_count = 0
        self.refreshed: frozenset[str] = frozenset()
        env.process(self._poller())

    # -- queries (what the SPHINX monitoring interface reads) ----------------------
    def snapshot(self, site: str) -> Optional[SiteSnapshot]:
        """Latest snapshot for ``site`` — possibly stale, possibly None
        (a site never successfully polled)."""
        return self._snapshots.get(site)

    def all_snapshots(self) -> Mapping[str, SiteSnapshot]:
        """Read-only live view of every site's latest snapshot.

        A :class:`types.MappingProxyType`, not a copy: callers polling
        this every decision cycle would otherwise pay a dict copy per
        call for data they only read.
        """
        return MappingProxyType(self._snapshots)

    def staleness_s(self, site: str) -> Optional[float]:
        snap = self._snapshots.get(site)
        return None if snap is None else snap.age_s(self.env.now)

    # -- internals ---------------------------------------------------------------------
    def _observe(self, site) -> Optional[SiteSnapshot]:
        """One query job against one site; None when it cannot report."""
        if site.state in (SiteState.DOWN, SiteState.BLACKHOLE):
            return None  # the query job never comes back
        queued, running = site.queued_jobs, site.running_jobs
        if self._rng is not None and self.noise_sigma > 0:
            factor = math.exp(float(self._rng.normal(0.0, self.noise_sigma)))
            queued = int(round(queued * factor))
            running = min(int(round(running * factor)), site.n_cpus)
        return SiteSnapshot(
            site=site.name,
            taken_at=self.env.now,
            n_cpus=site.n_cpus,
            queued_jobs=queued,
            running_jobs=running,
        )

    def _poller(self):
        while True:
            refreshed = []
            for site in self.grid:
                snap = self._observe(site)
                if snap is not None:
                    self._snapshots[site.name] = snap
                    refreshed.append(site.name)
            self.refreshed = frozenset(refreshed)
            self.poll_count += 1
            yield self.env.timeout(self.update_interval_s)
