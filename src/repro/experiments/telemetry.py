"""Time-series telemetry for experiment runs.

Samples site-level state (queue depth, running jobs, utilization,
fault state) on a fixed period, producing the utilization timelines
used for debugging scheduler dynamics and for the site-load figures.
Kept separate from :mod:`repro.services.monitoring` on purpose: this is
the *experimenter's* omniscient probe, not the in-band monitoring
system the schedulers see.

When handed a :class:`repro.obs.metrics.MetricsRegistry`, every sample
is mirrored into registry :class:`~repro.obs.metrics.Series`
instruments (``site.queue_depth{site=}`` etc.), so site timelines share
the observability export path (Chrome-trace counter tracks, snapshot
JSON) while :class:`SiteSeries` keeps serving the figure code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.engine import Environment
from repro.simgrid.grid import Grid

__all__ = ["GridTelemetry", "SiteSeries"]


@dataclass(slots=True)
class SiteSeries:
    """Sampled time series for one site (parallel arrays)."""

    site: str
    times: np.ndarray
    queued: np.ndarray
    running: np.ndarray
    utilization: np.ndarray
    up: np.ndarray  # bool: not DOWN at sample time

    @property
    def mean_utilization(self) -> float:
        return float(self.utilization.mean()) if len(self.times) else 0.0

    @property
    def peak_queue(self) -> int:
        return int(self.queued.max()) if len(self.times) else 0

    @property
    def availability(self) -> float:
        """Fraction of samples where the site was not DOWN."""
        return float(self.up.mean()) if len(self.times) else 1.0


class GridTelemetry:
    """Samples every site of a grid on a period."""

    def __init__(self, env: Environment, grid: Grid,
                 sample_interval_s: float = 60.0, metrics=None):
        if sample_interval_s <= 0:
            raise ValueError("sample interval must be > 0")
        self.env = env
        self.grid = grid
        self.sample_interval_s = sample_interval_s
        self._times: list[float] = []
        self._rows: dict[str, list[tuple[int, int, float, bool]]] = {
            s.name: [] for s in grid
        }
        #: optional obs registry mirror: site -> (queue, running, util)
        #: Series instruments, pre-resolved so sampling stays cheap.
        self._series = None
        if metrics is not None:
            self._series = {
                s.name: (
                    metrics.series("site.queue_depth", site=s.name),
                    metrics.series("site.running", site=s.name),
                    metrics.series("site.utilization", site=s.name),
                )
                for s in grid
            }
        env.process(self._sampler())

    def _sampler(self):
        from repro.simgrid.site import SiteState

        while True:
            now = self.env.now
            self._times.append(now)
            for site in self.grid:
                sample = (
                    site.queued_jobs,
                    site.running_jobs,
                    site.scheduler.utilization,
                    site.state is not SiteState.DOWN,
                )
                self._rows[site.name].append(sample)
                if self._series is not None:
                    queued, running, util = self._series[site.name]
                    queued.record(now, sample[0])
                    running.record(now, sample[1])
                    util.record(now, sample[2])
            yield self.env.timeout(self.sample_interval_s)

    # -- extraction ---------------------------------------------------------------
    def series(self, site: str) -> SiteSeries:
        rows = self._rows[site]
        if not rows:
            return SiteSeries(site, np.array([]), np.array([], dtype=int),
                              np.array([], dtype=int), np.array([]),
                              np.array([], dtype=bool))
        arr = np.array([(q, r, u, up) for q, r, u, up in rows], dtype=float)
        return SiteSeries(
            site=site,
            times=np.array(self._times),
            queued=arr[:, 0].astype(int),
            running=arr[:, 1].astype(int),
            utilization=arr[:, 2],
            up=arr[:, 3].astype(bool),
        )

    def summary(self) -> list[tuple[str, float, int, float]]:
        """(site, mean utilization, peak queue, availability) per site."""
        return [
            (name, s.mean_utilization, s.peak_queue, s.availability)
            for name in self._rows
            for s in [self.series(name)]
        ]
