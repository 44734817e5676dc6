"""The slow, obviously-correct twins of the site-selection algorithms.

These are the list scans the shipped algorithms replaced: each takes
the feasible candidates as a list of :class:`SiteView` records (one row
of the planner's site table each), in catalog order, and loops over
them in Python.  The shipped algorithms
choose over the planner's numpy columns instead (one masked argmin or
one rotation per plan); ``test_algorithm_differential.py`` holds every
choice and every cursor advance equal to these, and
``patch_twin_algorithms`` runs whole scenarios on them.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.algorithms import (
    Candidates,
    QosDeadline,
    SchedulingAlgorithm,
    SiteColumns,
)
from repro.core.algorithms.registry import _REGISTRY


@dataclass(frozen=True, slots=True)
class SiteView:
    """One site-table row as a record; None where the column is NaN."""

    name: str
    n_cpus: int
    planned_jobs: int = 0
    unfinished_jobs: int = 0
    monitored_queued: Optional[int] = None
    monitored_running: Optional[int] = None
    avg_completion_s: Optional[float] = None
    predicted_completion_s: Optional[float] = None


def _optional(value, kind=float):
    return None if np.isnan(value) else kind(value)


def row_view(cols: SiteColumns, i: int) -> SiteView:
    """Row ``i`` of a site table as a record."""
    return SiteView(
        cols.names[i], int(cols.n_cpus[i]), int(cols.planned[i]),
        int(cols.unfinished[i]), _optional(cols.queued[i], int),
        _optional(cols.running[i], int), _optional(cols.avg[i]),
        _optional(cols.predicted[i]),
    )


def views_of(cols: SiteColumns) -> list[SiteView]:
    """Every row of a site table as a record."""
    return [row_view(cols, i) for i in range(len(cols.names))]


def candidate_views(pool: Candidates) -> list[SiteView]:
    """The candidate rows as records, in catalog order."""
    return [row_view(pool.cols, i) for i in pool.mask.nonzero()[0]]


def _argmin(candidates: Sequence[SiteView], key) -> Optional[str]:
    """First-wins argmin over candidate views."""
    best_name, best_score = None, None
    for view in candidates:
        score = key(view)
        if best_score is None or score < best_score:
            best_name, best_score = view.name, score
    return best_name


class _ListScan:
    wants_context = False

    def choose_site_ctx(self, job_id, candidates, ctx):
        return self.choose_site(job_id, candidates)


class RoundRobinTwin(_ListScan):
    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def choose_site(self, job_id, candidates):
        if not candidates:
            return None
        choice = candidates[self._cursor % len(candidates)].name
        self._cursor += 1
        return choice


class NumCpusTwin(_ListScan):
    name = "num-cpus"

    def choose_site(self, job_id, candidates):
        return _argmin(
            candidates,
            lambda v: (v.planned_jobs + v.unfinished_jobs) / v.n_cpus,
        )


class QueueLengthTwin(_ListScan):
    name = "queue-length"

    def choose_site(self, job_id, candidates):
        def rate(v):
            queued = v.monitored_queued if v.monitored_queued is not None else 0
            running = v.monitored_running if v.monitored_running is not None else 0
            return (queued + running + v.planned_jobs) / v.n_cpus

        return _argmin(candidates, rate)


class CompletionTimeTwin(_ListScan):
    name = "completion-time"

    def __init__(self) -> None:
        self._bootstrap_cursor = 0

    def choose_site(self, job_id, candidates):
        probe_worthy = []
        best_name, best_score = None, None
        for v in candidates:
            avg = v.avg_completion_s
            if avg is None:
                if v.planned_jobs == 0 and v.unfinished_jobs == 0:
                    probe_worthy.append(v)
                continue
            score = v.predicted_completion_s
            if score is None:
                score = avg
            if best_score is None or score < best_score:
                best_name, best_score = v.name, score
        if probe_worthy:
            choice = probe_worthy[
                self._bootstrap_cursor % len(probe_worthy)
            ].name
            self._bootstrap_cursor += 1
            return choice
        return best_name


class QosDeadlineTwin(QosDeadline):
    """The shipped deadline arithmetic and durable cursors; the list
    scan in place of the column choice."""

    def _choose(self, candidates, budget_s):
        if not candidates:
            return None
        unsampled = [v for v in candidates if v.avg_completion_s is None]
        if unsampled:
            choice = unsampled[self._bootstrap_cursor % len(unsampled)].name
            self._advance("bootstrap")
            return choice

        def predicted(v):
            if v.predicted_completion_s is not None:
                return v.predicted_completion_s
            return v.avg_completion_s

        feasible = [v for v in candidates if predicted(v) <= budget_s]
        if feasible:
            choice = feasible[self._spread_cursor % len(feasible)].name
            self._advance("spread")
            return choice
        return _argmin(candidates, predicted)


#: registry name -> twin class
TWINS = {
    twin.name: twin
    for twin in (RoundRobinTwin, NumCpusTwin, QueueLengthTwin,
                 CompletionTimeTwin, QosDeadlineTwin)
}
assert set(TWINS) == set(_REGISTRY), "every algorithm needs a twin"


def columns_of(views: Sequence[SiteView]) -> SiteColumns:
    """A site table holding ``views``, row for row.

    A view with a raw average and no prediction ranks by the average,
    as the planner's table does when the load correction is off.
    """
    cols = SiteColumns([v.name for v in views], [v.n_cpus for v in views])
    for i, v in enumerate(views):
        avg = v.avg_completion_s
        predicted = v.predicted_completion_s
        cols.planned[i] = v.planned_jobs
        cols.unfinished[i] = v.unfinished_jobs
        cols.queued[i] = np.nan if v.monitored_queued is None \
            else v.monitored_queued
        cols.running[i] = np.nan if v.monitored_running is None \
            else v.monitored_running
        cols.avg[i] = np.nan if avg is None else avg
        cols.predicted[i] = (
            np.nan if avg is None else avg if predicted is None else predicted
        )
    return cols


def pool_of(views: Sequence[SiteView], mask=None) -> Candidates:
    """``views`` as a candidate pool (every row feasible by default)."""
    if mask is None:
        mask = [True] * len(views)
    return Candidates(columns_of(views), np.array(mask, dtype=bool))


class OnViews(SchedulingAlgorithm):
    """A twin behind the shipped interface: every choice hands it the
    candidate rows as views.  ``patch_twin_algorithms`` makes one
    subclass per twin class."""

    twin_cls = None

    def __init__(self, **kwargs):
        self.twin = self.twin_cls(**kwargs)

    def score(self, pool):
        return np.full(len(pool.cols.names), np.nan)

    def choose_site(self, job_id, pool):
        return self.twin.choose_site(job_id, candidate_views(pool))

    def choose_site_ctx(self, job_id, pool, ctx):
        return self.twin.choose_site_ctx(job_id, candidate_views(pool), ctx)

    def bind_state(self, warehouse):
        if hasattr(self.twin, "bind_state"):
            self.twin.bind_state(warehouse)


def patch_twin_algorithms(monkeypatch):
    """Every server built from here on plans with the list-scan twins."""
    for name, twin in TWINS.items():
        monkeypatch.setitem(_REGISTRY, name, type(
            f"{twin.__name__}OnViews", (OnViews,),
            {"twin_cls": twin, "name": name,
             "wants_context": twin.wants_context},
        ))
