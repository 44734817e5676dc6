"""QoS deadline-aware selection — the paper's stated future work.

"We are also developing methods to schedule jobs with variable Quality
of Service requirements" (§6).  This extension implements the natural
deadline variant on top of the completion-time machinery:

* among sites whose predicted completion time fits within a *safety
  margin* of the deadline (margin < 1 guards against stale/optimistic
  estimates), rotate round-robin — spreading deadline-safe load instead
  of racing everything to the single fastest site, which preserves the
  fast sites' headroom for jobs that will need it;
* if no site can meet the deadline, degrade gracefully to the plain
  completion-time argmin (finish as soon as possible);
* while sites lack data, bootstrap round-robin exactly like the hybrid.

Whole-DAG deadlines (DESIGN.md §5f)
-----------------------------------
``deadline_s`` is the budget for a *whole DAG*, counted from the instant
the server received it.  When the planner supplies context (it always
does; see :attr:`~repro.core.algorithms.base.SchedulingAlgorithm.
wants_context`), each job's per-stage budget is re-derived as sim-time
elapses::

    remaining  = deadline_s - (now - dag.received_at)
    budget     = _SAFETY_MARGIN * remaining / remaining_levels

where ``remaining_levels`` counts this job's level plus the longest
chain of levels below it.  Early stages that finish fast leave slack to
later stages; a DAG already past its deadline degrades every remaining
job to finish-ASAP.  Without context (direct ``choose_site`` calls,
``dag_deadline=False``) the legacy static per-job interpretation
applies: every job is checked against ``_SAFETY_MARGIN * deadline_s``.

Rotation cursors persist in the ``qos_cursors`` warehouse table (via
:meth:`bind_state`), so a crash-restarted server resumes the rotation
exactly where it stopped — the chaos invariant checker assumes
cross-restart determinism.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.algorithms.base import Candidates, SchedulingAlgorithm

__all__ = ["QosDeadline"]

#: the share of a budget a predicted completion time may use (< 1
#: guards against stale or optimistic estimates)
_SAFETY_MARGIN = 0.6


class QosDeadline(SchedulingAlgorithm):
    name = "qos-deadline"
    wants_context = True

    _TABLE = "qos_cursors"
    _COLUMNS = ("cursor", "value")

    def __init__(
        self,
        deadline_s: float = 600.0,
        dag_deadline: bool = True,
    ):
        if not deadline_s > 0:  # NaN too: it would void every budget
            raise ValueError("deadline must be > 0")
        self.deadline_s = deadline_s
        self.dag_deadline = dag_deadline
        self._bootstrap_cursor = 0
        self._spread_cursor = 0
        self._table = None

    # -- durable state -----------------------------------------------------
    def bind_state(self, warehouse) -> None:
        """Persist rotation cursors in the server's warehouse.

        On a fresh warehouse the table is seeded from the in-memory
        cursors; on a restored warehouse (crash-restart drill) the
        cursors are loaded back, so the rotation continues exactly where
        the checkpoint left it.
        """
        if self._TABLE in warehouse:
            self._table = warehouse.table(self._TABLE)
        else:
            self._table = warehouse.create_table(
                self._TABLE, self._COLUMNS, key="cursor"
            )
        for name in ("bootstrap", "spread"):
            row = self._table.get(name)
            attr = f"_{name}_cursor"
            if row is None:
                self._table.insert({"cursor": name, "value": getattr(self, attr)})
            else:
                setattr(self, attr, row["value"])

    def _advance(self, name: str) -> None:
        attr = f"_{name}_cursor"
        value = getattr(self, attr) + 1
        setattr(self, attr, value)
        if self._table is not None:
            self._table.update(name, value=value)

    # -- selection ---------------------------------------------------------
    def score(self, pool: Candidates) -> np.ndarray:
        return pool.cols.predicted  # NaN where unsampled

    def choose_site(self, job_id: str, pool: Candidates) -> Optional[str]:
        """Legacy static semantics: every job vs the full deadline."""
        return self._choose(pool, _SAFETY_MARGIN * self.deadline_s)

    def choose_site_ctx(
        self, job_id: str, pool: Candidates, ctx: dict
    ) -> Optional[str]:
        if not self.dag_deadline or not ctx:
            return self.choose_site(job_id, pool)
        elapsed = max(0.0, ctx["now"] - ctx.get("received_at", ctx["now"]))
        remaining = self.deadline_s - elapsed
        levels = max(1, int(ctx.get("remaining_levels", 1)))
        # remaining <= 0: the DAG already blew its deadline — the budget
        # goes to 0, no site is "feasible", and _choose degrades every
        # remaining job to the finish-ASAP argmin.
        budget = _SAFETY_MARGIN * max(0.0, remaining) / levels
        return self._choose(pool, budget)

    def _choose(self, pool: Candidates, budget_s: float) -> Optional[str]:
        cols = pool.cols
        choice = pool.nth(pool.mask & np.isnan(cols.avg),
                          self._bootstrap_cursor)
        if choice is not None:
            self._advance("bootstrap")
            return choice
        # Every candidate is sampled from here on.
        choice = pool.nth(pool.mask & (cols.predicted <= budget_s),
                          self._spread_cursor)
        if choice is not None:
            self._advance("spread")
            return choice
        return pool.argmin(cols.predicted)
