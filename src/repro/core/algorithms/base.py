"""Algorithm interface and the planner's site table.

The planner keeps one :class:`SiteColumns` table — a numpy column per
kind of site information, one row per catalog site — and hands an
algorithm the feasible rows as :class:`Candidates`.  An algorithm
declares a score over the columns (lower is better) and chooses with
one masked :meth:`Candidates.argmin` or one rotation
(:meth:`Candidates.nth`), never a Python loop over sites.

An algorithm returning ``None`` means "no acceptable site"; the job
stays ready and is retried on the next planning pass.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

__all__ = ["Candidates", "SchedulingAlgorithm", "SiteColumns"]


class SiteColumns:
    """The site table; row ``i`` describes site ``names[i]``.

    The columns separate the information sources the paper compares:
    *static* ``n_cpus`` (the catalog), *SPHINX-local* ``planned`` /
    ``unfinished`` (this server's jobs in flight), *monitored*
    ``queued`` / ``running`` (possibly stale) and *feedback-derived*
    ``avg`` / ``predicted`` completion times (tracker reports through
    the estimator).  Counts are integer columns; the monitored and
    feedback columns are float, NaN meaning "no data".  ``predicted``
    is what the planner ranks by, NaN exactly where ``avg`` is; every
    other value is finite.
    """

    __slots__ = ("names", "n_cpus", "planned", "unfinished", "queued",
                 "running", "avg", "predicted")

    def __init__(self, names: Sequence[str], n_cpus: Sequence[int]):
        self.names = tuple(names)
        self.n_cpus = np.array(n_cpus, dtype=np.int64)
        for name, cpus in zip(self.names, n_cpus):
            if cpus < 1:
                raise ValueError(f"site {name} must have >= 1 CPU")
        n = len(self.names)
        self.planned, self.unfinished = (
            np.zeros(n, dtype=np.int64) for _ in range(2))
        self.queued, self.running, self.avg, self.predicted = (
            np.full(n, np.nan) for _ in range(4))


class Candidates:
    """The feasible rows of a site table: the true rows of ``mask``, a
    boolean column over every row of ``cols``, in catalog order."""

    __slots__ = ("cols", "mask")

    def __init__(self, cols: SiteColumns, mask: np.ndarray):
        self.cols = cols
        self.mask = mask

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    def argmin(self, score: np.ndarray) -> Optional[str]:
        """The candidate with the least ``score``, the first one on a tie
        (``np.argmin``'s rule, and the first-wins contract of
        :meth:`SchedulingAlgorithm.choose_site`).  A NaN score never
        wins; None when no candidate has a score."""
        if not len(score):
            return None
        scored = np.where(self.mask, score, np.inf)
        i = scored.argmin()
        best = scored[i]
        if best != best:
            # argmin stops at the first NaN: a candidate without a score
            scored[np.isnan(scored)] = np.inf
            i = scored.argmin()
            best = scored[i]
        return None if best == np.inf else self.cols.names[i]

    def nth(self, mask: np.ndarray, cursor: int) -> Optional[str]:
        """A rotation: the ``cursor % n``-th of the ``n`` true rows of
        ``mask`` (a subset of the candidates); None when there are none."""
        rows = mask.nonzero()[0]
        if not len(rows):
            return None
        return self.cols.names[rows[cursor % len(rows)]]


class SchedulingAlgorithm(abc.ABC):
    """Picks an execution site for one job from the feasible pool."""

    #: registry key; subclasses must override.
    name: str = ""

    #: True when the algorithm wants per-job DAG context (deadline
    #: budgeting etc.); the planner then calls :meth:`choose_site_ctx`.
    wants_context: bool = False

    @abc.abstractmethod
    def score(self, pool: Candidates) -> np.ndarray:
        """Every row's score, lower is better, NaN for none: what the
        job span records as ``candidate_scores``."""

    @abc.abstractmethod
    def choose_site(self, job_id: str, pool: Candidates) -> Optional[str]:
        """The chosen site name, or None when nothing is acceptable.

        The planner only calls with a non-empty pool.  Determinism
        contract: given equal scores, earlier candidates win.

        None contract: a None answer depends only on ``pool`` and
        leaves the algorithm's state unchanged.  The planner relies on
        it to ask once per pass for all ready jobs of one user with
        equal requirements: after a None, later such jobs are deferred
        without a call until something is committed (DESIGN.md §5g).
        """

    def choose_site_ctx(
        self, job_id: str, pool: Candidates, ctx: dict
    ) -> Optional[str]:
        """Context-aware variant; default ignores the context.

        ``ctx`` carries planner-side DAG state: ``now``, the owning
        DAG's ``received_at``, and ``remaining_levels`` (this job's
        level plus everything below it on the longest chain to a leaf).
        Only consulted when :attr:`wants_context` is True.
        """
        return self.choose_site(job_id, pool)

    def bind_state(self, warehouse) -> None:
        """Attach durable algorithm state to the server's warehouse.

        Called once at server construction (and again after a
        crash-restart restore).  Stateless algorithms ignore it;
        stateful ones (QosDeadline's rotation cursors) persist their
        state in a table so restarts stay deterministic.
        """
