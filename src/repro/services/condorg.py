"""Condor-G / DAGMan — the grid job submission and control layer.

The SPHINX *client* does not talk to sites directly; it hands a job
description to Condor-G, which submits through the site's gatekeeper
and reports grid-level job states back.  This module reproduces that
contract:

* :meth:`CondorG.submit` — submit a job to a named site; returns a
  :class:`GridJobHandle` whose status moves through::

      IDLE -> RUNNING -> COMPLETED
        |        |
        +--------+--> KILLED / FAILED

  ``FAILED`` covers submission-time failures (gatekeeper unreachable —
  the site is DOWN), which real Condor-G would surface as a held job
  after retries; we surface it promptly so the tracker can replan.
* :meth:`CondorG.cancel` — condor_rm against the remote batch system.
* status-change callbacks — what the SPHINX job tracker subscribes to.
* the ``condor-g`` RPC service (when built with a bus): ``reserve`` /
  ``cancel_reservation`` let the *server* book advance-reservation
  windows at sites ahead of DAG-stage readiness — the proactive
  counterpart of the paper's reactive feedback loop.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.sim.engine import Environment
from repro.simgrid.grid import Grid
from repro.simgrid.local_scheduler import SiteJob, SiteJobStatus
from repro.simgrid.site import SiteUnavailableError

__all__ = ["CondorG", "GridJobHandle", "GridJobStatus"]


class GridJobStatus(enum.Enum):
    """Grid-level job state, as Condor-G reports it."""

    IDLE = "idle"            # submitted, waiting in the remote queue
    RUNNING = "running"
    COMPLETED = "completed"
    KILLED = "killed"        # removed (site crash or condor_rm)
    FAILED = "failed"        # never reached the remote queue

    @property
    def terminal(self) -> bool:
        return self in (
            GridJobStatus.COMPLETED,
            GridJobStatus.KILLED,
            GridJobStatus.FAILED,
        )


_SITE_TO_GRID = {
    SiteJobStatus.PENDING: GridJobStatus.IDLE,
    SiteJobStatus.RUNNING: GridJobStatus.RUNNING,
    SiteJobStatus.COMPLETED: GridJobStatus.COMPLETED,
    SiteJobStatus.KILLED: GridJobStatus.KILLED,
}


class GridJobHandle:
    """What the submitter holds: status, timings, and change callbacks."""

    def __init__(self, env: Environment, job_id: str, site: str,
                 scheduler: Optional[str] = None):
        self.env = env
        self.job_id = job_id
        self.site = site
        #: service name of the SPHINX server whose plan drove this
        #: submission (None for direct/legacy submitters)
        self.scheduler = scheduler
        self.status = GridJobStatus.IDLE
        self.submitted_at = env.now
        self.finished_at: Optional[float] = None
        self._site_job: Optional[SiteJob] = None
        self._watchers: list[Callable[["GridJobHandle", GridJobStatus], None]] = []

    def on_status_change(
        self, callback: Callable[["GridJobHandle", GridJobStatus], None]
    ) -> None:
        self._watchers.append(callback)

    def off_status_change(
        self, callback: Callable[["GridJobHandle", GridJobStatus], None]
    ) -> None:
        """Deregister a watcher; a no-op if it is not registered.

        Trackers abandon a handle on timeout; without deregistration
        the watcher list grows for the handle's lifetime and a late
        terminal transition still settles the tracker's orphaned event.
        """
        try:
            self._watchers.remove(callback)
        except ValueError:
            pass

    # -- timing passthroughs -----------------------------------------------------
    @property
    def idle_time_s(self) -> Optional[float]:
        return self._site_job.idle_time_s if self._site_job else None

    @property
    def checkpointed_fraction(self) -> float:
        """Fraction of the job's work preserved by its last checkpoint
        (0.0 unless the job checkpoints and was killed mid-run)."""
        return self._site_job.checkpointed_fraction if self._site_job else 0.0

    @property
    def lost_work_s(self) -> float:
        """CPU-seconds discarded when this attempt was killed (0.0 for
        completed or never-started attempts)."""
        return self._site_job.lost_work_s if self._site_job else 0.0

    @property
    def execution_time_s(self) -> Optional[float]:
        return self._site_job.execution_time_s if self._site_job else None

    @property
    def completion_time_s(self) -> Optional[float]:
        """Submission -> completion, as the SPHINX tracker measures it."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    # -- internals -------------------------------------------------------------------
    def _update(self, status: GridJobStatus) -> None:
        if self.status is status:
            return
        self.status = status
        terminal = status.terminal
        if terminal:
            self.finished_at = self.env.now
        for cb in list(self._watchers):
            cb(self, status)
        if terminal:
            # No further transitions can happen; drop the watchers so a
            # long-lived handle does not pin every tracker that ever
            # watched it.
            self._watchers.clear()


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
        self._handles: dict[str, GridJobHandle] = {}
        self.submitted_count = 0
        #: submissions per planning scheduler service — under a
        #: federation every shard shares this one Condor-G, and this is
        #: the grid-level audit of which shard's plans drove how many
        #: submissions (key None: submitter gave no scheduler).
        self.submissions_by_scheduler: dict[Optional[str], int] = {}
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
        priority: int = 10,
        reservation_id: Optional[str] = None,
        scheduler: Optional[str] = None,
        checkpoint_interval_s: float = 0.0,
        checkpoint_cost_s: float = 0.0,
    ) -> GridJobHandle:
        """Submit a job to ``site``; always returns a handle.

        A dead gatekeeper yields a handle in status FAILED (never an
        exception) so callers have one uniform tracking path.
        ``reservation_id`` claims a slot of a previously booked window;
        an unknown or expired reservation silently degrades to the
        ordinary queue (the job must still run).  ``scheduler`` tags the
        submission with the planning server's service name for the
        per-shard accounting.  ``checkpoint_interval_s`` > 0 makes the
        job persist progress every interval (``checkpoint_cost_s`` per
        write) so a later kill preserves partial work.
        """
        if job_id in self._handles:
            raise ValueError(f"duplicate grid job id {job_id!r}")
        if site not in self.grid:
            raise KeyError(f"unknown site {site!r}")
        handle = GridJobHandle(self.env, job_id, site, scheduler=scheduler)
        self._handles[job_id] = handle
        self.submitted_count += 1
        self.submissions_by_scheduler[scheduler] = (
            self.submissions_by_scheduler.get(scheduler, 0) + 1
        )
        try:
            site_job = self.grid.site(site).submit(
                job_id, runtime_s=runtime_s, owner=owner, priority=priority,
                reservation_id=reservation_id,
                checkpoint_interval_s=checkpoint_interval_s,
                checkpoint_cost_s=checkpoint_cost_s,
            )
        except SiteUnavailableError:
            self.failed_submissions += 1
            handle._update(GridJobStatus.FAILED)
            return handle
        handle._site_job = site_job
        site_job.on_status_change(
            lambda _j, _old, new: handle._update(_SITE_TO_GRID[new])
        )
        return handle

    def cancel(self, job_id: str) -> bool:
        """condor_rm: remove the job from the remote site.

        Returns False when already terminal or never submitted.
        """
        handle = self._handles.get(job_id)
        if handle is None:
            raise KeyError(f"unknown grid job {job_id!r}")
        if handle.status.terminal:
            return False
        return self.grid.site(handle.site).kill(job_id)

    def handle(self, job_id: str) -> GridJobHandle:
        return self._handles[job_id]

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._handles
