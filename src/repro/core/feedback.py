"""Feedback-based site reliability — SPHINX's fault-tolerance core.

"The feedback provides execution status information of previously
submitted jobs on grid sites ... Sites having more number of cancelled
jobs than completed jobs are marked unreliable" (§4).  The job tracker
reports every completion and cancellation; this module turns those
reports into the *reliable-site set* the planner draws from, and into
the availability indicator ``A_i`` of eq. 3.

The tallies live in a warehouse table so they survive server recovery.
"""

from __future__ import annotations

from itertools import filterfalse
from typing import Iterable

from repro import obs as obs_mod
from repro.core.warehouse import Warehouse

__all__ = ["ReliabilityTracker"]

_COLUMNS = ("site", "completed", "cancelled")


class ReliabilityTracker:
    """Per-site completed/cancelled tallies + the paper's reliability rule."""

    def __init__(self, warehouse: Warehouse, table_name: str = "site_feedback",
                 obs=None):
        self._table = (
            warehouse.table(table_name)
            if table_name in warehouse
            else warehouse.create_table(table_name, _COLUMNS, key="site")
        )
        #: sites currently failing the reliability rule, maintained
        #: incrementally under every tally bump (a "verdict flip" is
        #: O(1)) so the planner's per-job filter never touches the
        #: table.  Seeding from the table covers recovery restores.
        self._unreliable: set[str] = {
            r["site"] for r in self._table if r["cancelled"] > r["completed"]
        }
        self.obs = obs_mod.get(obs)

    # -- report ingestion (from the job tracker) -----------------------------------
    def record_completion(self, site: str) -> None:
        self._bump(site, "completed")

    def record_cancellation(self, site: str) -> None:
        self._bump(site, "cancelled")

    def _bump(self, site: str, column: str) -> None:
        obs = self.obs
        was_reliable = site not in self._unreliable
        row = self._table.get(site, copy=False)
        if row is None:
            row = {"site": site, "completed": 0, "cancelled": 0}
            row[column] = 1
            self._table.insert(row)
            row = self._table.get(site, copy=False)
        else:
            self._table.update(site, **{column: row[column] + 1})
        if row["cancelled"] > row["completed"]:
            self._unreliable.add(site)
        else:
            self._unreliable.discard(site)
        if obs.enabled:
            obs.metrics.counter("feedback.reports", kind=column).inc()
            now_reliable = site not in self._unreliable
            if now_reliable != was_reliable:
                verdict = "reliable" if now_reliable else "unreliable"
                obs.metrics.counter("feedback.verdict_flips", site=site).inc()
                obs.tracer.instant(
                    f"feedback: {site} {verdict}",
                    component="feedback", site=site, verdict=verdict,
                    completed=row["completed"],
                    cancelled=row["cancelled"],
                )
                obs.metrics.gauge("feedback.unreliable_sites").set(
                    len(self._unreliable)
                )

    # -- queries (what the planner asks) ----------------------------------------------
    def completed(self, site: str) -> int:
        row = self._table.get(site, copy=False)
        return row["completed"] if row else 0

    def cancelled(self, site: str) -> int:
        row = self._table.get(site, copy=False)
        return row["cancelled"] if row else 0

    def is_reliable(self, site: str) -> bool:
        """The paper's rule: unreliable iff cancelled > completed.

        A site with no history is reliable — new sites deserve a chance,
        and this is what makes the round-robin bootstrap work.
        """
        return site not in self._unreliable

    def reliable_sites(self, sites: Iterable[str]) -> tuple[str, ...]:
        """Filter ``sites`` to the reliable ones, preserving order."""
        unreliable = self._unreliable
        if not unreliable:
            return tuple(sites)
        return tuple(filterfalse(unreliable.__contains__, sites))

    def snapshot(self) -> dict[str, tuple[int, int]]:
        """site -> (completed, cancelled), for experiment reporting."""
        return {
            r["site"]: (r["completed"], r["cancelled"]) for r in self._table
        }
