"""Completion-time prediction — the server's estimation module.

The server "provides estimates for the completion time of the requests
on these resources" (§3.2).  The estimator keeps a running average of
tracker-reported job completion times per site (``Avg_comp_i`` in
eq. 3) and offers a *planned-load-corrected* prediction used by the
completion-time algorithm to avoid herding every ready job onto the
momentarily-best site within a single planning pass:

    predicted_i = Avg_comp_i * (1 + k * planned_i / CPU_i)

where ``k`` is ``_CORRECTION_STRENGTH``.  With tens of planned jobs
against hundreds of CPUs the correction is mild; it matters exactly
when a planning pass would otherwise dump a whole ready set on one
site.  ``bench_ablation_prediction`` measures its effect.  State lives
in a warehouse table for recoverability.
"""

from __future__ import annotations

from typing import Optional

from repro.core.warehouse import Warehouse

__all__ = ["CompletionTimeEstimator"]

_COLUMNS = ("site", "total_s", "count", "ewma_s")
_TABLE = "completion_times"

#: CPU-equivalents one planned job is charged as in the correction; > 1
#: accounts for the bandwidth and queue pressure a job brings beyond its
#: CPU slot.
_CORRECTION_STRENGTH = 4.0

#: weight of the newest report in the ``ewma`` estimate
_EWMA_ALPHA = 0.2


class CompletionTimeEstimator:
    """Per-site completion-time statistics from tracker reports.

    Two estimates are maintained:

    * the plain running mean (``Avg_comp_i`` read literally from eq. 3),
    * an exponentially weighted moving average (``ewma``), which tracks
      the "near future execution environment" the paper says the
      approach estimates — a site whose uplink or queue just congested
      shows it within a few reports instead of being shielded by months
      of fast history.

    ``mode`` selects which one ``average_s`` (and hence the scheduler)
    uses; ``bench_ablation_estimator`` compares the two.
    """

    def __init__(self, warehouse: Warehouse, mode: str = "ewma"):
        if mode not in ("mean", "ewma"):
            raise ValueError(f"unknown estimator mode {mode!r}")
        self.mode = mode
        self._table = (
            warehouse.table(_TABLE)
            if _TABLE in warehouse
            else warehouse.create_table(_TABLE, _COLUMNS, key="site")
        )

    def record(self, site: str, completion_time_s: float) -> None:
        """Ingest one tracker report."""
        if completion_time_s < 0:
            raise ValueError("completion time must be >= 0")
        row = self._table.get(site, copy=False)
        if row is None:
            self._table.insert(
                {"site": site, "total_s": completion_time_s, "count": 1,
                 "ewma_s": completion_time_s}
            )
        else:
            self._table.update(
                site,
                total_s=row["total_s"] + completion_time_s,
                count=row["count"] + 1,
                ewma_s=((1 - _EWMA_ALPHA) * row["ewma_s"]
                        + _EWMA_ALPHA * completion_time_s),
            )

    def mean_s(self, site: str) -> Optional[float]:
        """The all-history running mean."""
        row = self._table.get(site, copy=False)
        if row is None:
            return None
        return row["total_s"] / row["count"]

    def ewma_s(self, site: str) -> Optional[float]:
        """The recency-weighted estimate."""
        row = self._table.get(site, copy=False)
        if row is None:
            return None
        return row["ewma_s"]

    def average_s(self, site: str) -> Optional[float]:
        """``Avg_comp_i`` under the configured mode, or None if unseen."""
        return self.ewma_s(site) if self.mode == "ewma" else self.mean_s(site)

    def predicted_s(self, site: str, planned_jobs: int = 0,
                    n_cpus: int = 1) -> Optional[float]:
        """Planned-load-corrected completion estimate (see module doc)."""
        avg = self.average_s(site)
        if avg is None:
            return None
        if n_cpus < 1:
            # A frozen/outage site advertises zero live CPUs; aborting
            # the whole planning pass over one dead candidate would be
            # worse than an uncorrected estimate, so return the plain
            # average (the load correction is meaningless at capacity 0).
            return avg
        return avg * (1.0 + _CORRECTION_STRENGTH * max(planned_jobs, 0)
                      / n_cpus)

    def snapshot(self) -> dict[str, float]:
        """site -> all-history mean completion time (experiment reports
        use the unweighted mean regardless of scheduling mode)."""
        return {r["site"]: r["total_s"] / r["count"] for r in self._table}
