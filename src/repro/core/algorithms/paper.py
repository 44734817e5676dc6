"""The paper's four site-selection algorithms (§4.1), as scores.

Each declares its rule as a score over the planner's site table and
chooses with one masked argmin (eqs. 1-3) or one rotation; see
``base.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.algorithms.base import Candidates, SchedulingAlgorithm

__all__ = ["CompletionTime", "NumCpus", "QueueLength", "RoundRobin"]


class RoundRobin(SchedulingAlgorithm):
    """Round-robin site selection.

    "Round robin scheduling algorithm tries to submit jobs in the order
    of sites in a given list.  All sites are scheduled to execute jobs
    without considering the status of the sites."  This is the paper's
    baseline — what a grid user throttling jobs by hand effectively does.

    The cursor advances over the *feasible* list each call, so with
    feedback enabled the rotation silently skips sites the reliability
    filter removed (the paper's "planned onto the next site in the
    list").
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def score(self, pool: Candidates) -> np.ndarray:
        """No score: each candidate's place in the rotation (0 = next)."""
        rank = np.cumsum(pool.mask) - 1
        return (rank - self._cursor) % max(len(pool), 1)

    def choose_site(self, job_id: str, pool: Candidates) -> Optional[str]:
        choice = pool.nth(pool.mask, self._cursor)
        if choice is not None:
            self._cursor += 1
        return choice


class NumCpus(SchedulingAlgorithm):
    """Number-of-CPUs load-rate selection (paper eq. 1).

        rate_i = (planned_jobs_i + unfinished_jobs_i) / CPU_i

    "utilizes resource-scheduling information of previously submitted
    jobs in a local SPHINX server" — both counts are SPHINX-local; no
    external monitoring is consulted.  The CPU count itself is the
    static catalog number, which is the paper's point: a big site may
    already be overloaded by *other* users and this algorithm cannot
    see that.
    """

    name = "num-cpus"

    def score(self, pool: Candidates) -> np.ndarray:
        cols = pool.cols
        return (cols.planned + cols.unfinished) / cols.n_cpus

    def choose_site(self, job_id: str, pool: Candidates) -> Optional[str]:
        return pool.argmin(self.score(pool))


class QueueLength(SchedulingAlgorithm):
    """Queue-length load-rate selection (paper eq. 2).

        rate_i = (queued_jobs_i + running_jobs_i + planned_jobs_i) / CPU_i

    queued/running come from the external monitoring service and carry
    its staleness; planned comes from the local SPHINX server.  A site
    whose snapshot is missing (never successfully polled) is treated as
    empty — the optimistic reading a 2004 scheduler had no way to avoid,
    and the precise mechanism by which blackhole sites keep attracting
    jobs until feedback removes them.
    """

    name = "queue-length"

    def score(self, pool: Candidates) -> np.ndarray:
        cols = pool.cols
        # fmax ignores NaN: no snapshot reads as an empty queue (counts
        # are never negative).
        monitored = np.fmax(cols.queued, 0.0) + np.fmax(cols.running, 0.0)
        return (monitored + cols.planned) / cols.n_cpus

    def choose_site(self, job_id: str, pool: Candidates) -> Optional[str]:
        return pool.argmin(self.score(pool))


class CompletionTime(SchedulingAlgorithm):
    """Job-completion-time hybrid selection (paper eq. 3).

        choose  argmin_{i: A_i = 1}  Avg_comp_i / sum_k Avg_comp_k

    "In the absence of the job completion rate information, SPHINX
    schedules jobs on round robin technique until it has that
    information for the remote sites.  Thus, it uses a hybrid approach
    to compensate for unavailability of information."

    Bootstrap rule implemented: while any feasible site still lacks
    completion data **and has no outstanding probe** (planned jobs),
    pick among those round-robin — every site gets sampled (giving the
    paper's Fig. 6a full site coverage), but a silent site absorbs only
    one probe instead of soaking up the whole ready set for a timeout
    period.  Once every candidate has data or a probe in flight, take
    the argmin of the predicted completion time over the sampled
    candidates (the estimator's planned-load-corrected ``Avg_comp``, or
    the raw average when the correction is off).  The normalization
    constant of eq. 3 does not change the argmin, so it is omitted.
    """

    name = "completion-time"

    def __init__(self) -> None:
        self._bootstrap_cursor = 0

    def score(self, pool: Candidates) -> np.ndarray:
        return pool.cols.predicted  # NaN where unsampled

    def choose_site(self, job_id: str, pool: Candidates) -> Optional[str]:
        cols = pool.cols
        probe = np.isnan(cols.avg)
        probe &= pool.mask
        if np.count_nonzero(probe):
            # Probe-worthy: unsampled and nothing of ours planned or
            # running there (``a | b == 0`` iff both are 0).
            probe &= (cols.planned | cols.unfinished) == 0
            choice = pool.nth(probe, self._bootstrap_cursor)
            if choice is not None:
                self._bootstrap_cursor += 1
                return choice
        # None when every candidate is an in-flight probe: wait for one
        # to land rather than piling more jobs onto unknown sites.
        return pool.argmin(cols.predicted)
