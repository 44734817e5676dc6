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
* the ``condor-g`` RPC service (when built with a bus): ``reserve`` /
  ``cancel_reservation`` let the *server* book advance-reservation
  windows at sites ahead of DAG-stage readiness — the proactive
  counterpart of the paper's reactive feedback loop.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.engine import Environment
from repro.simgrid.grid import Grid
from repro.simgrid.local_scheduler import SiteJob, SiteJobStatus
from repro.simgrid.site import SiteUnavailableError

__all__ = ["CondorG"]


class CondorG:
    """Submission/cancel front end over the simulated grid.

    When constructed with an RPC ``bus`` it also registers the
    ``condor-g`` service, exposing the advance-reservation verbs to the
    server side (which has no direct reference to the grid).
    """

    SERVICE = "condor-g"

    def __init__(self, env: Environment, grid: Grid, bus=None):
        self.env = env
        self.grid = grid
        #: grid job id -> (site name, the site's record of the job)
        self._jobs: dict[str, tuple[str, SiteJob]] = {}
        self.submitted_count = 0
        self.failed_submissions = 0
        self.reservations_rejected = 0
        if bus is not None:
            bus.register(self.SERVICE, "reserve", self._rpc_reserve)
            bus.register(
                self.SERVICE, "cancel_reservation", self._rpc_cancel_reservation
            )

    # -- reservation RPCs (server-facing) ------------------------------------------
    def _rpc_reserve(
        self,
        res_id: str,
        site: str,
        start_s: float,
        duration_s: float,
        cpus: int = 1,
    ) -> bool:
        """Book an advance-reservation window at ``site``.

        Returns the site's confirmed/rejected verdict; a DOWN site
        rejects (the gatekeeper does not answer the reservation call
        either).
        """
        if site not in self.grid:
            raise KeyError(f"unknown site {site!r}")
        ok = self.grid.site(site).reserve(res_id, start_s, duration_s, cpus)
        if not ok:
            self.reservations_rejected += 1
        return ok

    def _rpc_cancel_reservation(self, res_id: str, site: str) -> bool:
        if site not in self.grid:
            raise KeyError(f"unknown site {site!r}")
        return self.grid.site(site).cancel_reservation(res_id)

    def submit(
        self,
        job_id: str,
        site: str,
        runtime_s: float,
        owner: str = "anonymous",
        reservation_id: Optional[str] = None,
        checkpoint_interval_s: float = 0.0,
        checkpoint_cost_s: float = 0.0,
    ) -> SiteJob:
        """Submit a job to ``site``; always returns the job's record.

        A dead gatekeeper yields a record in status FAILED (never an
        exception) so callers have one uniform tracking path.
        ``reservation_id`` claims a slot of a previously booked window;
        an unknown or expired reservation silently degrades to the
        ordinary queue (the job must still run).
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
                reservation_id=reservation_id,
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
