"""Algorithm interface and the per-site information view.

The planner assembles one :class:`SiteView` per feasible site and asks
the algorithm to pick.  The view deliberately separates the three
information sources the paper compares:

* *static* — ``n_cpus`` (the catalog),
* *SPHINX-local* — ``planned_jobs`` / ``unfinished_jobs`` (what this
  server has in flight, from its own tables),
* *monitored* — ``monitored_queued`` / ``monitored_running`` (the
  possibly-stale external monitoring system),
* *feedback-derived* — ``avg_completion_s`` / ``predicted_completion_s``
  (tracker reports through the estimator).

An algorithm returning ``None`` means "no acceptable site"; the job
stays ready and is retried on the next planning pass.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = ["SchedulingAlgorithm", "SiteView"]


@dataclass(frozen=True, slots=True)
class SiteView:
    """Everything an algorithm may know about one feasible site."""

    name: str
    n_cpus: int
    planned_jobs: int = 0
    unfinished_jobs: int = 0
    monitored_queued: Optional[int] = None
    monitored_running: Optional[int] = None
    avg_completion_s: Optional[float] = None
    predicted_completion_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_cpus < 1:
            raise ValueError(f"site {self.name} must have >= 1 CPU")


class SchedulingAlgorithm(abc.ABC):
    """Picks an execution site for one job from the feasible pool."""

    #: registry key; subclasses must override.
    name: str = ""

    #: True when the algorithm wants per-job DAG context (deadline
    #: budgeting etc.); the planner then calls :meth:`choose_site_ctx`.
    wants_context: bool = False

    @abc.abstractmethod
    def choose_site(
        self, job_id: str, candidates: Sequence[SiteView]
    ) -> Optional[str]:
        """The chosen site name, or None when nothing is acceptable.

        ``candidates`` is never empty-filtered here: the planner only
        calls with a non-empty pool.  Determinism contract: given equal
        scores, earlier candidates win.

        None contract: a None answer depends only on ``candidates`` and
        leaves the algorithm's state unchanged.  The planner relies on
        it to ask once per pass for all ready jobs of one user with
        equal requirements: after a None, later such jobs are deferred
        without a call until something is committed (DESIGN.md §5g).
        """

    def choose_site_ctx(
        self, job_id: str, candidates: Sequence[SiteView], ctx: dict
    ) -> Optional[str]:
        """Context-aware variant; default ignores the context.

        ``ctx`` carries planner-side DAG state: ``now``, the owning
        DAG's ``received_at``, and ``remaining_levels`` (this job's
        level plus everything below it on the longest chain to a leaf).
        Only consulted when :attr:`wants_context` is True.
        """
        return self.choose_site(job_id, candidates)

    def bind_state(self, warehouse) -> None:
        """Attach durable algorithm state to the server's warehouse.

        Called once at server construction (and again after a
        crash-restart restore).  Stateless algorithms ignore it;
        stateful ones (QosDeadline's rotation cursors) persist their
        state in a table so restarts stay deterministic.
        """

    @staticmethod
    def _argmin(candidates: Sequence[SiteView], key) -> str:
        """First-wins argmin over candidate views."""
        best_name, best_score = None, None
        for view in candidates:
            score = key(view)
            if best_score is None or score < best_score:
                best_name, best_score = view.name, score
        assert best_name is not None
        return best_name
