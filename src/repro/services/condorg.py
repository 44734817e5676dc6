"""Condor-G / DAGMan — the grid job submission and control layer.

The SPHINX *client* does not talk to sites directly; it hands a job
description to Condor-G, which submits through the site's gatekeeper
and reports grid-level job states back.  This module reproduces that
contract:

* :meth:`CondorG.submit` — submit a job to a named site; returns the
  site's own :class:`~repro.simgrid.local_scheduler.SiteJob`, whose
  status moves through::

      PENDING -> RUNNING -> COMPLETED
         |          |
         +----------+--> KILLED / FAILED

  ``FAILED`` covers submission-time failures (gatekeeper unreachable —
  the site is DOWN), which real Condor-G would surface as a held job
  after retries; we surface it promptly so the tracker can replan.
* :meth:`CondorG.cancel` — condor_rm against the remote batch system.
* the job's status-change callbacks — what the SPHINX job tracker
  subscribes to.
"""

from __future__ import annotations

from repro.sim.engine import Environment
from repro.simgrid.grid import Grid
from repro.simgrid.local_scheduler import SiteJob, SiteJobStatus
from repro.simgrid.site import SiteUnavailableError

__all__ = ["CondorG"]


class CondorG:
    """Submission/cancel front end over the simulated grid."""

    def __init__(self, env: Environment, grid: Grid):
        self.env = env
        self.grid = grid
        #: grid job id -> (site name, the site's record of the job)
        self._jobs: dict[str, tuple[str, SiteJob]] = {}
        self.submitted_count = 0
        self.failed_submissions = 0

    def submit(
        self,
        job_id: str,
        site: str,
        runtime_s: float,
        owner: str = "anonymous",
        checkpoint_interval_s: float = 0.0,
        checkpoint_cost_s: float = 0.0,
    ) -> SiteJob:
        """Submit a job to ``site``; always returns the job's record.

        A dead gatekeeper yields a record in status FAILED (never an
        exception) so callers have one uniform tracking path.
        ``checkpoint_interval_s`` > 0 makes the job persist progress
        every interval (``checkpoint_cost_s`` per write) so a later kill
        preserves partial work.
        """
        if job_id in self._jobs:
            raise ValueError(f"duplicate grid job id {job_id!r}")
        if site not in self.grid:
            raise KeyError(f"unknown site {site!r}")
        self.submitted_count += 1
        try:
            job = self.grid.site(site).submit(
                job_id, runtime_s=runtime_s, owner=owner,
                checkpoint_interval_s=checkpoint_interval_s,
                checkpoint_cost_s=checkpoint_cost_s,
            )
        except SiteUnavailableError:
            self.failed_submissions += 1
            job = SiteJob(job_id, owner, runtime_s)
            job.status = SiteJobStatus.FAILED
        self._jobs[job_id] = (site, job)
        return job

    def cancel(self, job_id: str) -> bool:
        """condor_rm: remove the job from the remote site.

        Returns False when the job is already terminal.
        """
        entry = self._jobs.get(job_id)
        if entry is None:
            raise KeyError(f"unknown grid job {job_id!r}")
        site, job = entry
        if job.status.terminal:
            return False
        return self.grid.site(site).kill(job_id)
