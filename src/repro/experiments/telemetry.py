"""Time-series telemetry for experiment runs.

Samples site-level state (queue depth, running jobs, utilization) on a
fixed period into registry :class:`~repro.obs.metrics.Series`
instruments (``site.queue_depth{site=}``, ``site.running{site=}``,
``site.utilization{site=}``), so site timelines ride the observability
export path (Chrome-trace counter tracks, snapshot JSON).  Kept
separate from :mod:`repro.services.monitoring` on purpose: this is the
*experimenter's* omniscient probe, not the in-band monitoring system
the schedulers see.
"""

from __future__ import annotations

from repro.sim.engine import Environment
from repro.simgrid.grid import Grid

__all__ = ["GridTelemetry"]


class GridTelemetry:
    """Samples every site of a grid on a period into ``metrics``."""

    def __init__(self, env: Environment, grid: Grid, metrics,
                 sample_interval_s: float = 60.0):
        if sample_interval_s <= 0:
            raise ValueError("sample interval must be > 0")
        self.env = env
        self.grid = grid
        self.sample_interval_s = sample_interval_s
        #: site -> (queue, running, util) Series, pre-resolved so
        #: sampling stays cheap
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
        while True:
            now = self.env.now
            for site in self.grid:
                queued, running, util = self._series[site.name]
                queued.record(now, site.queued_jobs)
                running.record(now, site.running_jobs)
                util.record(now, site.scheduler.utilization)
            yield self.env.timeout(self.sample_interval_s)
