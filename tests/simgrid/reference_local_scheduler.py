"""The generator-per-job ``LocalScheduler`` lifecycle, kept as the slow twin.

Test-only.  This is the job lifecycle that shipped before the callback
state machine replaced it: every submitted job is driven by its own
kernel ``Process`` wrapping the ``_run`` -> ``_execute`` generator, and
``kill`` unwinds a live job by throwing ``Interrupt`` into that process.  It is
obviously correct and slow; the differential test in
``test_local_scheduler_differential.py`` holds the state machine to it
with ``==``.  The bodies below are moved verbatim — do not optimise them.

Everything that is not the lifecycle (preemption accounting, the
observables) is inherited, so the two classes differ in nothing but how
a job gets from PENDING to its terminal status.

Local load has no cohorts here: ``submit_local`` is one historical
``submit(SiteJob(...), detached=True)`` per runtime, each job a record
and a process, started in place on a *lazy* CPU request when one is free
— :class:`LazyResource` keeps that last caller-less option of the
kernel's ``Resource`` alive for the twin alone.  Nothing is ever
forgotten: every job stays in ``_jobs``.
"""

from __future__ import annotations

import math
from heapq import heappush

from repro.sim import Interrupt
from repro.sim.engine import _NORMAL_BASE, SimulationError
from repro.sim.resources import Request, Resource
from repro.simgrid.local_scheduler import LocalScheduler, SiteJob, SiteJobStatus

__all__ = ["LazyResource", "ReferenceLocalScheduler"]


class LazyResource(Resource):
    """``Resource.request`` as it was while it still took ``lazy=``."""

    def request(self, lazy: bool = False) -> Request:
        """``lazy``: an *uncontended* grant is marked processed in place
        instead of scheduling a wake-up — for callers that check
        ``req.processed`` right away and skip their yield when the
        slot was free."""
        req = Request(self)
        users = self._users
        if not self._queue and len(users) < self._capacity:
            users.add(req)
            req._value = req
            if lazy:
                req.callbacks = None
                return req
            env = req.env
            env._seq += 1
            heappush(env._heap, (env._now, _NORMAL_BASE + env._seq, req))
        else:
            self._queue.append(req)
            self._grant()
        return req


class ReferenceLocalScheduler(LocalScheduler):
    """Counters and observables from :class:`LocalScheduler`; each job is
    the historical generator process."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._cpus = LazyResource(self.env, capacity=self.n_cpus)
        self._procs: dict[str, object] = {}      # job_id -> runner Process
        # the generators only ever ask "is it running?"; the slot lives
        # in their frames, not in the table
        self._running: set[str] = set()

    def submit(
        self,
        job: SiteJob,
        detached: bool = False,  # historical; only submit_local passes it
    ) -> SiteJob:
        if job.job_id in self._jobs:
            raise ValueError(f"duplicate local job id {job.job_id!r}")
        if job.status is not SiteJobStatus.PENDING:
            raise ValueError(f"job {job.job_id!r} was already submitted")
        self._jobs[job.job_id] = job
        job.submitted_at = self.env.now
        req = self._cpus.request(lazy=detached)
        self._pending[job.job_id] = req
        self._procs[job.job_id] = self.env.process(self._run(job, req))
        return job

    def submit_local(self, runtimes, owner, prefix, first_id) -> None:
        jobs = [
            SiteJob(f"{prefix}{first_id + i}", owner, runtime_s)
            for i, runtime_s in enumerate(runtimes)
        ]
        for job in jobs:  # an arrival is refused whole; submit() never looked
            if not job.runtime_s >= 0:
                raise ValueError(f"job {job.job_id}: runtime_s={job.runtime_s!r}")
        for job in jobs:
            self.submit(job, detached=True)

    def kill(self, job_id: str) -> bool:
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        if job.status.terminal:
            return False
        req = self._pending.pop(job_id, None)
        if req is not None:
            try:
                self._cpus.cancel(req)
            except SimulationError:
                # Granted this instant but the runner has not resumed yet
                # (it would have left _pending if it had); the grant must
                # be handed back or the slot leaks.
                self._cpus.release(req)
        if job_id in self._running:
            # Killed while RUNNING: account checkpoint progress before
            # the interrupt unwinds the runner, so status watchers (the
            # Condor-G handle, the tracker) already see the final
            # checkpointed_fraction when the KILLED transition fires.
            self._record_preemption(job)
        proc = self._procs.get(job_id)
        if proc is not None and proc.is_alive:  # type: ignore[attr-defined]
            proc.interrupt(SiteJobStatus.KILLED)  # type: ignore[attr-defined]
        if job.started_at is not None:
            # Only jobs that actually ran get a finish instant; a job
            # killed while PENDING never ran, and its completion_time_s
            # must stay None so it cannot feed completion estimators.
            job.finished_at = self.env.now
        job._set_status(SiteJobStatus.KILLED)
        self.killed_count += 1
        return True

    def _run(self, job: SiteJob, req: Request):
        if req.processed:
            # Detached submit: the uncontended slot was
            # granted in place — start without a wake-up round-trip.
            self._pending.pop(job.job_id, None)
            slot = req
        else:
            try:
                slot = yield req
            except Interrupt:
                # Killed while pending; kill() set the status.
                self._procs.pop(job.job_id, None)
                return
            finally:
                self._pending.pop(job.job_id, None)
        yield from self._execute(job, slot)

    def _execute(self, job: SiteJob, slot: Request):
        job.started_at = self.env.now
        job._set_status(SiteJobStatus.RUNNING)
        service = self._service_time_fn(job.runtime_s)
        if service < 0:
            raise ValueError(f"negative service time {service} for {job.job_id}")
        job._service_s = service
        occupancy = service
        if job.checkpoint_interval_s > 0.0 and service > 0.0:
            # The work is cut into interval-sized segments, each followed
            # by a checkpoint write; the final segment needs none.
            n_ckpt = max(0, math.ceil(service / job.checkpoint_interval_s) - 1)
            occupancy = service + n_ckpt * job.checkpoint_cost_s
        self._running.add(job.job_id)
        try:
            yield self.env.timeout(occupancy)
        except Interrupt:
            return  # killed while running; kill() set the status
        finally:
            self._running.discard(job.job_id)
            self._cpus.release(slot)
            self._procs.pop(job.job_id, None)

        job.finished_at = self.env.now
        job._set_status(SiteJobStatus.COMPLETED)
        self.completed_count += 1
