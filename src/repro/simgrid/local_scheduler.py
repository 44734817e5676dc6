"""Per-site batch scheduler — the condor_q / PBS layer.

Every Grid3 site ran its own local batch system with its own policy;
SPHINX never controlled *when* a submitted job starts, only *where* it
is submitted.  The paper's monitored quantities — queue length, running
count — and its "idle time" metric (queuing time after being scheduled
for execution) are all observables of this layer.

:class:`LocalScheduler` queues :class:`SiteJob` entries FIFO on a counted
CPU :class:`~repro.sim.resources.Resource`, runs each for a service time
supplied by the owning site (which injects heterogeneity and noise), and
drives the job's status machine::

    PENDING -> RUNNING -> COMPLETED
       |          |
       +----------+-> KILLED

The same record is what Condor-G hands back to the SPHINX client and
what the client's tracker watches; a submission the gatekeeper refused
is a record born ``FAILED`` that never reached a queue.  Watchers are
dropped at the terminal transition, so the records the scheduler keeps
for the run do not pin their trackers.

A site's CPUs have one path: request, grant, run, release.  A job is not
a kernel process.  While live it waits on exactly one event — its CPU
request, or its run timer, which is the job record itself — and plain
callbacks move it on; a callback from any other event is stale and
returns (DESIGN.md §5l).  Local load that finds free CPUs has no record
at all: :meth:`LocalScheduler.submit_local` runs an arrival as one
counted *cohort*.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro import obs as _obs
from repro.sim.engine import URGENT, Environment, Event, SimulationError
from repro.sim.resources import Request, Resource

__all__ = [
    "LocalScheduler",
    "SiteJob",
    "SiteJobStatus",
]


class SiteJobStatus(enum.Enum):
    """Lifecycle of a job inside a site's batch system."""

    PENDING = "pending"      # in the batch queue, waiting for a CPU
    RUNNING = "running"      # occupying a CPU slot
    COMPLETED = "completed"  # finished successfully
    KILLED = "killed"        # removed by site failure or remote cancel
    FAILED = "failed"        # never reached the queue (site DOWN)

    @property
    def terminal(self) -> bool:
        return self not in (SiteJobStatus.PENDING, SiteJobStatus.RUNNING)


@dataclass(eq=False, slots=True)
class SiteJob:
    """A job as the local batch system sees it.

    ``runtime_s`` is the nominal demand; the actual service time is
    decided by the site at start.  Status-change callbacks fire with
    ``(job, old_status, new_status)``; they are how the SPHINX client
    and its tracker follow a grid job.
    """

    job_id: str
    owner: str = "anonymous"
    runtime_s: float = 60.0
    #: checkpoint cadence in service-time seconds; 0 = no checkpointing
    #: (the default path draws no extra time and stays bit-identical)
    checkpoint_interval_s: float = 0.0
    #: CPU cost of persisting one checkpoint
    checkpoint_cost_s: float = 0.0

    status: SiteJobStatus = field(default=SiteJobStatus.PENDING, init=False)
    submitted_at: Optional[float] = field(default=None, init=False)
    started_at: Optional[float] = field(default=None, init=False)
    finished_at: Optional[float] = field(default=None, init=False)
    #: share of the drawn service time preserved by the last completed
    #: checkpoint when the job was killed while RUNNING (monotonic,
    #: in [0, 1]); a restarted attempt can resume from here.
    checkpointed_fraction: float = field(default=0.0, init=False)
    #: CPU-seconds this attempt spent that a restart must redo
    #: (un-checkpointed progress plus checkpoint writes); set at kill.
    lost_work_s: float = field(default=0.0, init=False)

    _watchers: Optional[list] = field(default=None, init=False, repr=False)
    #: drawn service time, memoized at start for preemption accounting
    _service_s: Optional[float] = field(default=None, init=False, repr=False)
    #: local load that had to queue: forgotten by the scheduler when it ends
    _detached: bool = field(default=False, init=False, repr=False)
    #: a RUNNING job is its own run timer on the kernel heap; these two
    #: are all the event loop reads of a heap entry that succeeded
    callbacks: Optional[list] = field(default=None, init=False, repr=False)
    _ok = True

    def on_status_change(
        self, callback: Callable[["SiteJob", SiteJobStatus, SiteJobStatus], None]
    ) -> None:
        if self._watchers is None:
            self._watchers = []
        self._watchers.append(callback)

    def off_status_change(
        self, callback: Callable[["SiteJob", SiteJobStatus, SiteJobStatus], None]
    ) -> None:
        """Deregister a watcher; a no-op if it is not registered.

        A tracker abandons a job on timeout; without deregistration the
        cancellation's KILLED transition would still settle its
        orphaned event.
        """
        watchers = self._watchers
        if watchers and callback in watchers:
            watchers.remove(callback)

    def _set_status(self, new: SiteJobStatus) -> None:
        old, self.status = self.status, new
        watchers = self._watchers
        if watchers:
            # copy: a callback may (de)register watchers while we iterate
            for cb in list(watchers):
                cb(self, old, new)
            if new.terminal:
                # Nothing can fire again: the scheduler keeps the record
                # for the run, but not the closures that watched it.
                self._watchers = None

    # -- timing observables ----------------------------------------------------
    @property
    def idle_time_s(self) -> Optional[float]:
        """Batch-queue wait: submit -> start (the paper's "idle time")."""
        if self.submitted_at is None or self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def execution_time_s(self) -> Optional[float]:
        """Actual CPU occupancy: start -> finish."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def completion_time_s(self) -> Optional[float]:
        """Submit -> finish; the paper's per-site "job completion time".

        None for jobs that never ran: a job killed while still PENDING
        has no finish instant, and feeding its queue-wait into the
        completion-time estimator would poison the per-site means.
        """
        if self.submitted_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at


@dataclass(eq=False, slots=True)
class _Cohort:
    """The local jobs of one arrival that started on free CPUs.

    No member has a record: each is one anonymous CPU slot and one finish
    instant.  Only the earliest unpopped finish is a kernel-heap entry;
    the others are ``held`` (:meth:`Environment.schedule_chain`), 16
    bytes a member.  The kernel takes ``callbacks`` on every pop, so
    :meth:`LocalScheduler._local_done` re-arms it and pushes the next
    held finish, whether the cohort is live or killed.
    """

    key: str           # the first member's job id; its ``_jobs`` key
    started_at: float
    #: members still running; ``kill_all`` makes it minus the unwinds
    #: still owed, so ``<= 0`` reads "killed" to the stale timers
    live: int
    callbacks: Optional[list]
    #: finishes not yet on the heap; None for a cohort of one
    held: Optional[array] = None
    _ok = True


class LocalScheduler:
    """FIFO batch scheduler over ``n_cpus`` slots."""

    def __init__(
        self,
        env: Environment,
        n_cpus: int,
        service_time_fn: Callable[[float], float],
        name: str = "site",
    ):
        if n_cpus < 1:
            raise ValueError(f"a site needs at least 1 CPU, got {n_cpus}")
        self.env = env
        self.name = name
        self.n_cpus = n_cpus
        self._cpus = Resource(env, capacity=n_cpus)
        self._service_time_fn = service_time_fn
        #: job_id -> the single event a live job is waiting on: its CPU
        #: request or — RUNNING — the job itself, which is its own run
        #: timer (DESIGN.md §5l)
        self._awaiting: dict[str, Request | SiteJob] = {}
        self._pending: dict[str, Request] = {}   # job_id -> CPU request
        #: job_id -> the CPU request a RUNNING job holds its slot with
        self._running: dict[str, Request] = {}
        #: live jobs and watched terminal ones; a queued local job leaves
        #: when it lets go of its slot, a cohort with its last member
        self._jobs: dict[str, SiteJob | _Cohort] = {}
        #: shared by every run timer: the kernel only iterates the list
        self._on_timer = [self._done]
        self._on_local_timer = [self._local_done]
        #: cumulative counters for monitoring / debugging
        self.completed_count = 0
        self.killed_count = 0
        #: cumulative CPU-seconds of progress discarded by kills of
        #: RUNNING jobs (the preemption-loss tally evictions minimize)
        self.preempted_work_s = 0.0
        #: observability hook; the owning site forwards its own.
        self.obs = _obs.NULL_OBS

    # -- observables (what condor_q / PBS report) ---------------------------------
    @property
    def queued_jobs(self) -> int:
        """Jobs waiting in the batch queue."""
        return len(self._pending)

    @property
    def running_jobs(self) -> int:
        """Jobs currently occupying CPU slots (cohort members included)."""
        return len(self._running) + self._cpus.anonymous

    @property
    def utilization(self) -> float:
        """Fraction of *live* CPU slots occupied.

        A frozen site (``resize(0)``) has no live capacity at all, so it
        reports 1.0 — monitoring must never mistake a blackholed site
        for an idle one.
        """
        cap = self._cpus.capacity
        if cap <= 0:
            return 1.0
        return min(1.0, self._cpus.count / cap)

    def job(self, job_id: str) -> SiteJob:
        """``KeyError`` for an unknown id, a local job that ended — or one
        running in a cohort, which has no record to return."""
        job = self._jobs.get(job_id)
        if not isinstance(job, SiteJob):
            raise KeyError(f"unknown job {job_id!r}")
        return job

    def __contains__(self, job_id: str) -> bool:
        return isinstance(self._jobs.get(job_id), SiteJob)

    # -- capacity control (used by failure models) ----------------------------------
    def freeze(self) -> None:
        """Stop granting CPU slots (blackhole behaviour)."""
        self._cpus.resize(0)

    def thaw(self) -> None:
        """Resume granting CPU slots."""
        self._cpus.resize(self.n_cpus)

    # -- job control ------------------------------------------------------------------
    def submit(self, job: SiteJob) -> SiteJob:
        """Enqueue a job; returns the same object for chaining.

        The job always takes the scheduled path — even an uncontended
        grant is a wake-up event — so status callbacks registered right
        after ``submit`` returns cannot miss the RUNNING transition.
        """
        if job.job_id in self._jobs:
            raise ValueError(f"duplicate local job id {job.job_id!r}")
        if job.status is not SiteJobStatus.PENDING:
            raise ValueError(f"job {job.job_id!r} was already submitted")
        if not (job.runtime_s >= 0 and job.checkpoint_interval_s >= 0
                and job.checkpoint_cost_s >= 0):  # one is negative or NaN
            raise ValueError(
                f"job {job.job_id!r}: runtime_s={job.runtime_s!r}, "
                f"checkpoint_interval_s={job.checkpoint_interval_s!r} and "
                f"checkpoint_cost_s={job.checkpoint_cost_s!r} must all be >= 0"
            )
        self._jobs[job.job_id] = job
        job.submitted_at = self.env.now
        req = self._pending[job.job_id] = self._cpus.request()
        self._awaiting[job.job_id] = req
        req.callbacks.append(lambda ev, job=job: self._granted(job, ev))
        return job

    def submit_local(
        self, runtimes: Sequence[float], owner: str, prefix: str,
        first_id: int,
    ) -> None:
        """One arrival of local load: jobs nobody watches, addresses or
        kills one by one; job ``i`` is ``prefix + str(first_id + i)``.

        Those that find a free CPU start here and now as one
        :class:`_Cohort` — per job one finish instant and one counted
        slot, no record.  The rest queue, in order, as ordinary jobs the
        scheduler forgets when they end.
        """
        for i, runtime_s in enumerate(runtimes):
            if not runtime_s >= 0:  # negative or NaN
                raise ValueError(
                    f"job {prefix}{first_id + i}: runtime_s={runtime_s!r} "
                    f"must be >= 0"
                )
        i, n = 0, len(runtimes)
        while i < n:
            key = prefix + str(first_id + i)
            if key in self._jobs:
                raise ValueError(f"duplicate local job id {key!r}")
            fit = self._cpus.take(n - i)
            if fit:
                self._start_cohort(key, runtimes[i:i + fit])
                i += fit
            else:
                job = SiteJob(key, owner, runtimes[i])
                job._detached = True
                self.submit(job)
                i += 1

    def kill(self, job_id: str) -> bool:
        """Remove a job (remote cancellation or site crash).

        Returns False when the job is already terminal.
        """
        job = self.job(job_id)
        if job.status.terminal:
            return False
        req = self._pending.pop(job_id, None)
        if req is not None:
            try:
                self._cpus.cancel(req)
            except SimulationError:
                # Granted this instant but the grant has not fired yet
                # (it would have left _pending if it had); the grant must
                # be handed back or the slot leaks.
                self._cpus.release(req)
        if job_id in self._running:
            # Killed while RUNNING: account checkpoint progress before
            # the slot unwinds, so status watchers (the client, the
            # tracker) already see the final checkpointed_fraction
            # when the KILLED transition fires.
            self._record_preemption(job)
        # The slot unwinds through one URGENT event at this instant, after
        # the caller's stack; the job's stale grant/timer fires into the
        # guards below rather than being cancelled (DESIGN.md §5l).
        kick = Event(self.env)
        kick.callbacks.append(self._unwind)
        kick.succeed(job, priority=URGENT)
        if job.started_at is not None:
            # Only jobs that actually ran get a finish instant; a job
            # killed while PENDING never ran, and its completion_time_s
            # must stay None so it cannot feed completion estimators.
            job.finished_at = self.env.now
        job._set_status(SiteJobStatus.KILLED)
        self.killed_count += 1
        return True

    def kill_all(self) -> int:
        """Kill every non-terminal job; returns how many were killed."""
        victims = [
            (jid, j) for jid, j in self._jobs.items()
            if j.__class__ is _Cohort or not j.status.terminal
        ]
        killed = 0
        for jid, job in victims:  # arrival order, a cohort where it began
            if job.__class__ is _Cohort:
                killed += self._kill_cohort(job)
            else:
                self.kill(jid)
                killed += 1
        return killed

    # -- internals ----------------------------------------------------------------------
    def _granted(self, job: SiteJob, req: Request) -> None:
        if self._awaiting.get(job.job_id) is not req:
            return  # stale: killed while the grant was in flight
        self._pending.pop(job.job_id, None)
        self._start(job, req)

    def _start(self, job: SiteJob, slot: Request) -> None:
        job.started_at = self.env.now
        job._set_status(SiteJobStatus.RUNNING)
        service = self._service_time_fn(job.runtime_s)
        if not service >= 0:
            raise ValueError(f"negative service time {service} for {job.job_id}")
        job._service_s = service
        occupancy = service
        if job.checkpoint_interval_s > 0.0 and service > 0.0:
            # The work is cut into interval-sized segments, each followed
            # by a checkpoint write; the final segment needs none.
            n_ckpt = max(0, math.ceil(service / job.checkpoint_interval_s) - 1)
            occupancy = service + n_ckpt * job.checkpoint_cost_s
        self._running[job.job_id] = slot
        # its own run timer: the heap entry (and _seq) a Timeout would take
        self._awaiting[job.job_id] = job
        job.callbacks = self._on_timer
        self.env.schedule(job, occupancy)

    def _done(self, job: SiteJob) -> None:
        job_id = job.job_id
        if self._awaiting.get(job_id) is not job:
            return  # stale: killed mid-run, _unwind freed the slot
        del self._awaiting[job_id]
        self._cpus.release(self._running.pop(job_id))
        job.finished_at = self.env.now
        job._set_status(SiteJobStatus.COMPLETED)
        self.completed_count += 1
        if job._detached:
            del self._jobs[job_id]

    def _unwind(self, kick: Event) -> None:
        """Free whatever a killed job holds; :meth:`kill` set the status."""
        job = kick.value
        self._awaiting.pop(job.job_id, None)
        slot = self._running.pop(job.job_id, None)
        if slot is not None:
            self._cpus.release(slot)
        if job._detached:
            del self._jobs[job.job_id]

    # -- cohorts: local jobs that started on free CPUs (DESIGN.md §5l) ------------
    def _start_cohort(self, key: str, runtimes: Sequence[float]) -> None:
        env = self.env
        cohort = _Cohort(key, env.now, len(runtimes), self._on_local_timer)
        self._jobs[key] = cohort
        service_time = self._service_time_fn
        services = []
        for runtime_s in runtimes:  # per job, in arrival order: a noise draw
            service = service_time(runtime_s)
            if not service >= 0:
                raise ValueError(f"negative service time {service} in {key}")
            services.append(service)
        # the heap entries (and ``_seq``) the jobs' own run timers would take
        if len(services) == 1:
            env.schedule(cohort, services[0])
        else:
            cohort.held = env.schedule_chain(cohort, services)

    def _local_done(self, cohort: _Cohort) -> None:
        cohort.callbacks = self._on_local_timer  # the kernel took it
        held = cohort.held
        if held:  # the next member's finish goes on the heap, live or stale
            self.env.push_held(cohort, held)
        if cohort.live <= 0:
            return  # stale: killed mid-run, the unwinds free the slots
        self._cpus.give_back()
        self.completed_count += 1
        cohort.live -= 1
        if not cohort.live:
            del self._jobs[cohort.key]

    def _kill_cohort(self, cohort: _Cohort) -> int:
        """Kill every live member, each accounted as :meth:`kill`
        accounts a RUNNING job: its lost work, one URGENT unwind event."""
        live = cohort.live
        if live <= 0:
            return 0  # killed already; its unwinds are in flight
        lost = self.env.now - cohort.started_at
        for _ in range(live):
            self.preempted_work_s += lost
            if self.obs.enabled:
                self.obs.metrics.histogram(
                    "site.preemption_loss_s", site=self.name
                ).observe(lost)
            kick = Event(self.env)
            kick.callbacks.append(self._unwind_local)
            kick.succeed(cohort, priority=URGENT)
        self.killed_count += live
        cohort.live = -live
        return live

    def _unwind_local(self, kick: Event) -> None:
        cohort = kick.value
        self._cpus.give_back()
        cohort.live += 1
        if not cohort.live:
            del self._jobs[cohort.key]

    def _record_preemption(self, job: SiteJob) -> None:
        """Checkpoint accounting for a job killed while RUNNING.

        With checkpointing on, each checkpoint ``i`` completes at
        ``i * (interval + cost)`` into the run; the preserved share is
        the last completed checkpoint's fraction of the drawn service
        time.  Everything past it — un-checkpointed progress plus the
        checkpoint writes themselves — is CPU time a restart must redo.
        """
        service = job._service_s or 0.0
        started = job.started_at if job.started_at is not None else self.env.now
        elapsed = max(0.0, self.env.now - started)
        preserved = 0.0
        interval = job.checkpoint_interval_s
        if interval > 0.0 and service > 0.0:
            block = interval + job.checkpoint_cost_s
            limit = max(0, math.ceil(service / interval) - 1)
            done = min(int(elapsed // block), limit)
            preserved = done * interval
            fraction = min(1.0, preserved / service)
            if fraction > job.checkpointed_fraction:
                job.checkpointed_fraction = fraction
        job.lost_work_s = max(0.0, elapsed - preserved)
        self.preempted_work_s += job.lost_work_s
        if self.obs.enabled:
            self.obs.metrics.histogram(
                "site.preemption_loss_s", site=self.name
            ).observe(job.lost_work_s)
