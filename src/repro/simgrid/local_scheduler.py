"""Per-site batch scheduler — the condor_q / PBS layer.

Every Grid3 site ran its own local batch system with its own policy;
SPHINX never controlled *when* a submitted job starts, only *where* it
is submitted.  The paper's monitored quantities — queue length, running
count — and its "idle time" metric (queuing time after being scheduled
for execution) are all observables of this layer.

:class:`LocalScheduler` queues :class:`SiteJob` entries on a counted
CPU :class:`~repro.sim.resources.Resource` ordered by priority, runs
each for a service time supplied by the owning site (which injects
heterogeneity and noise), and drives the job's status machine::

    PENDING -> RUNNING -> COMPLETED
       |          |
       +-> KILLED +-> KILLED / HELD

A job is not a kernel process.  While live it waits on exactly one event
— its CPU request, its reservation grant, or its run timer, which is the
job record itself — and plain callbacks move it on; a callback from any
other event is stale and returns (DESIGN.md §5l).  Local load that finds
free CPUs has no record at all: :meth:`LocalScheduler.submit_local` runs
an arrival as one counted *cohort*.

Advance reservations (DESIGN.md §5f)
------------------------------------
On top of the priority queue the scheduler keeps a *reservation
calendar*: :meth:`reserve` admits a ``[start_s, start_s + duration_s)``
window of ``cpus`` slots when no instant of the window would oversubscribe
the site against the other live reservations.  A confirmed reservation
immediately issues *hold* requests at a sentinel priority that beats any
job, so slots drain into the reservation as they free up.  Jobs submitted
with a ``reservation_id`` claim those held slots directly; the gap before
``start_s`` is offered to queued jobs via EASY backfilling — a queued job
may borrow a held slot only when ``now + runtime_s <= start_s``, i.e.
when its walltime estimate proves it cannot delay the reservation.
Cancellation, window expiry, and site outage all funnel through one
finalizer that returns every held slot to the general pool, so reserved
slots can never leak (checked by the chaos ``reservation-conservation``
invariant).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro import obs as _obs
from repro.sim.engine import URGENT, Environment, Event, SimulationError
from repro.sim.resources import Request, Resource

__all__ = [
    "LocalScheduler",
    "Reservation",
    "ReservationState",
    "SiteJob",
    "SiteJobStatus",
]

#: Priority used by reservation hold requests.  More urgent than any job
#: priority a user can express, so freed slots drain into the calendar
#: before the general queue sees them.
_HOLD_PRIORITY = -(1 << 30)


class SiteJobStatus(enum.Enum):
    """Lifecycle of a job inside a site's batch system."""

    PENDING = "pending"      # in the batch queue, waiting for a CPU
    RUNNING = "running"      # occupying a CPU slot
    COMPLETED = "completed"  # finished successfully
    KILLED = "killed"        # removed by site failure or remote cancel
    HELD = "held"            # stopped by the site, needs user attention

    @property
    def terminal(self) -> bool:
        return self in (
            SiteJobStatus.COMPLETED,
            SiteJobStatus.KILLED,
            SiteJobStatus.HELD,
        )


class ReservationState(enum.Enum):
    """Lifecycle of an advance reservation in the site calendar."""

    CONFIRMED = "confirmed"  # admitted; holding (or draining toward) slots
    RELEASED = "released"    # window closed after serving claimed jobs
    EXPIRED = "expired"      # window closed and no claimed job ever started
    CANCELLED = "cancelled"  # withdrawn by the client or a site outage

    @property
    def terminal(self) -> bool:
        return self is not ReservationState.CONFIRMED


@dataclass(eq=False, slots=True)
class SiteJob:
    """A job as the local batch system sees it.

    ``runtime_s`` is the nominal demand; the actual service time is
    decided by the site at start.  Status-change callbacks fire with
    ``(job, old_status, new_status)`` and are the hook the Condor-G
    layer uses to surface grid-level job states.
    """

    job_id: str
    owner: str = "anonymous"
    runtime_s: float = 60.0
    priority: int = 10
    #: reservation the job was bound to at submit, if any
    reservation_id: Optional[str] = None
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

    def _set_status(self, new: SiteJobStatus) -> None:
        old, self.status = self.status, new
        watchers = self._watchers
        if watchers:
            # copy: a callback may (de)register watchers while we iterate
            for cb in list(watchers):
                cb(self, old, new)

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
class Reservation:
    """One entry of the site's advance-reservation calendar."""

    res_id: str
    start_s: float
    duration_s: float
    cpus: int
    requested_at: float
    state: ReservationState = ReservationState.CONFIRMED
    #: granted hold requests idling, waiting for a claim or a backfill
    held: list = field(default_factory=list, repr=False)
    #: issued hold requests not yet granted (still queued on the Resource)
    pending_holds: set = field(default_factory=set, repr=False)
    #: claimed job ids waiting for a held slot, in claim order
    claimed: list = field(default_factory=list, repr=False)
    #: claimed job ids currently running on a reservation slot
    running: set = field(default_factory=set, repr=False)
    #: backfilled job ids currently borrowing a held slot
    borrowed: set = field(default_factory=set, repr=False)
    #: how many claimed jobs ever started inside this reservation
    started_jobs: int = 0
    _end_timer: object = field(default=None, repr=False)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    @property
    def live(self) -> bool:
        return not self.state.terminal


@dataclass(eq=False, slots=True)
class _Cohort:
    """The local jobs of one arrival that started on free CPUs.

    No member has a record: each is one kernel-heap entry pointing here
    and one anonymous CPU slot.  The kernel takes ``callbacks`` on every
    pop, so :meth:`LocalScheduler._local_done` re-arms it for the
    siblings still on the heap.
    """

    key: str           # the first member's job id; its ``_jobs`` key
    started_at: float
    #: members still running; ``kill_all`` makes it minus the unwinds
    #: still owed, so ``<= 0`` reads "killed" to the stale timers
    live: int
    callbacks: Optional[list]
    _ok = True


class LocalScheduler:
    """Priority-FIFO batch scheduler over ``n_cpus`` slots.

    ``backfill`` enables the EASY pass over reservation holes; the
    reservation calendar itself is always available but costs nothing
    until :meth:`reserve` is first called — the default submit path is
    event-for-event identical to a calendar-less scheduler.
    """

    def __init__(
        self,
        env: Environment,
        n_cpus: int,
        service_time_fn: Callable[[float], float],
        name: str = "site",
        backfill: bool = True,
    ):
        if n_cpus < 1:
            raise ValueError(f"a site needs at least 1 CPU, got {n_cpus}")
        self.env = env
        self.name = name
        self.n_cpus = n_cpus
        self.backfill = backfill
        self._cpus = Resource(env, capacity=n_cpus)
        self._service_time_fn = service_time_fn
        #: job_id -> the single event a live job is waiting on: its CPU
        #: request, its reservation grant, or — RUNNING — the job itself,
        #: which is its own run timer (DESIGN.md §5l)
        self._awaiting: dict[str, Event | SiteJob] = {}
        self._pending: dict[str, Request] = {}   # job_id -> CPU request
        #: job_id -> the CPU slot a RUNNING job occupies (its own request
        #: or a reservation hold)
        self._running: dict[str, Request] = {}
        #: live jobs and watched terminal ones; a queued local job leaves
        #: when it lets go of its slot, a cohort with its last member
        self._jobs: dict[str, SiteJob | _Cohort] = {}
        #: shared by every run timer: the kernel only iterates the list
        self._on_timer = [self._done]
        self._on_local_timer = [self._local_done]
        #: reservation calendar (res_id -> Reservation), live and terminal
        self._reservations: dict[str, Reservation] = {}
        #: claimed jobs waiting for a slot: job_id -> (Reservation, grant)
        self._res_waiting: dict[str, tuple[Reservation, Event]] = {}
        #: jobs running on a reservation slot: job_id -> home Reservation
        self._slot_home: dict[str, Reservation] = {}
        #: cumulative counters for monitoring / debugging
        self.completed_count = 0
        self.killed_count = 0
        self.held_count = 0
        self.backfill_count = 0
        #: cumulative CPU-seconds of progress discarded by kills of
        #: RUNNING jobs (the preemption-loss tally evictions minimize)
        self.preempted_work_s = 0.0
        self.reservation_counts = {
            "confirmed": 0, "rejected": 0,
            "released": 0, "expired": 0, "cancelled": 0,
        }
        #: per-claimed-start lateness vs the reserved window (0.0 = on time)
        self.reservation_miss_latencies: list[float] = []
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
        """Fraction of *live* CPU slots occupied (running or reserved).

        A frozen site (``resize(0)``) has no live capacity at all, so it
        reports 1.0 — monitoring must never mistake a blackholed site
        for an idle one.  Idle held reservation slots count as occupied:
        they are not available to anyone else.
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
        if self._reservations:
            for res in list(self._reservations.values()):
                if res.live:
                    self._dispatch_reservation(res)

    @property
    def frozen(self) -> bool:
        return self._cpus.capacity == 0

    # -- reservation calendar -----------------------------------------------------
    def reserve(
        self, res_id: str, start_s: float, duration_s: float, cpus: int = 1
    ) -> bool:
        """Admit an advance reservation; True = confirmed, False = rejected.

        Admission checks the calendar only: at no instant of the window
        may the sum of live reserved slots exceed ``n_cpus``.  Currently
        running jobs are not evicted and not counted — holds queue at a
        priority above every job and drain in as slots free, so a window
        starting on a saturated site may begin late (the gap is the
        reservation-miss latency metric).  A frozen (blackholed) site
        still confirms reservations — exactly as it still accepts jobs —
        and the window-end timer cleans them up if the site never thaws.

        A window must be able to close: one whose start, length or end
        is NaN or whose end is infinite is rejected, so nothing is held
        for a reservation whose end timer could never be armed.  A CPU
        count that is not an ``int`` (1.7, "2", True, NaN) is rejected
        too, never rounded into a size nobody asked for.
        """
        now = self.env.now
        end_s = start_s + duration_s
        if (
            res_id in self._reservations
            or type(cpus) is not int
            or cpus < 1
            or cpus > self.n_cpus
            or not duration_s > 0  # written so that NaN fails
            or not start_s >= now
            or not end_s < math.inf
            or not self._window_free(start_s, end_s, cpus)
        ):
            self._res_metric("rejected")
            return False
        res = Reservation(
            res_id=res_id,
            start_s=float(start_s),
            duration_s=float(duration_s),
            cpus=cpus,
            requested_at=now,
        )
        self._reservations[res_id] = res
        for _ in range(cpus):
            req = self._cpus.request(priority=_HOLD_PRIORITY)
            res.pending_holds.add(req)
            req.add_callback(lambda ev, res=res: self._hold_granted(res, ev))
        timer = self.env.timeout(res.end_s - now)
        timer.add_callback(lambda _ev, res=res: self._window_closed(res))
        res._end_timer = timer
        self._res_metric("confirmed")
        return True

    def cancel_reservation(self, res_id: str) -> bool:
        """Withdraw a reservation; False when unknown or already terminal."""
        res = self._reservations.get(res_id)
        if res is None or not res.live:
            return False
        self._finalize_reservation(res, ReservationState.CANCELLED)
        return True

    def release_reservations(self) -> int:
        """Cancel every live reservation (site outage); returns the count.

        Called when the site goes DOWN so confirmed windows release their
        held slots instead of leaking them into the frozen pool.
        """
        n = 0
        for res in list(self._reservations.values()):
            if res.live:
                self._finalize_reservation(res, ReservationState.CANCELLED)
                n += 1
        return n

    def reservation(self, res_id: str) -> Reservation:
        return self._reservations[res_id]

    @property
    def reservations(self) -> tuple[Reservation, ...]:
        return tuple(self._reservations.values())

    def reservation_audit(self) -> list[str]:
        """Conservation check over the calendar; [] means clean.

        Meaningful on a quiescent simulation (end of run / post-drain):
        mid-run a slot grant can legitimately be in flight for one
        instant.  The chaos invariant checker runs this on every site
        after the drain grace period.
        """
        problems: list[str] = []
        now = self.env.now
        live_held = 0
        for res in self._reservations.values():
            if not res.live:
                if res.held or res.pending_holds:
                    problems.append(
                        f"reservation {res.res_id}: terminal "
                        f"({res.state.value}) but still holds "
                        f"{len(res.held)} slot(s) and "
                        f"{len(res.pending_holds)} pending hold(s)"
                    )
                continue
            live_held += len(res.held)
            if now > res.end_s and not (res.running or res.borrowed):
                problems.append(
                    f"reservation {res.res_id}: window closed at "
                    f"{res.end_s:.0f}s but never finalized"
                )
        busy = self._cpus.count
        if busy != self.running_jobs + live_held:
            problems.append(
                f"slot conservation: {busy} slot(s) granted but "
                f"{self.running_jobs} running + {live_held} held"
            )
        return problems

    # -- job control ------------------------------------------------------------------
    def submit(
        self, job: SiteJob, reservation_id: Optional[str] = None
    ) -> SiteJob:
        """Enqueue a job; returns the same object for chaining.

        The job always takes the scheduled path — even an uncontended
        grant is a wake-up event — so status callbacks registered right
        after ``submit`` returns cannot miss the RUNNING transition.

        ``reservation_id`` binds the job to a live reservation: it waits
        for one of the reservation's held slots instead of the general
        queue.  When the reservation is unknown or already terminal the
        job silently falls back to the ordinary priority queue — a late
        arrival must still run, just without its guarantee.
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
        if reservation_id is not None:
            res = self._reservations.get(reservation_id)
            if res is not None and res.live:
                job.reservation_id = reservation_id
                grant = Event(self.env)
                self._res_waiting[job.job_id] = (res, grant)
                res.claimed.append(job.job_id)
                self._await(job, grant)
                self._dispatch_reservation(res)
                return job
        self._enqueue(job)
        if self._reservations:
            self._offer_backfill()
        return job

    def submit_local(
        self, runtimes: Sequence[float], owner: str, priority: int,
        prefix: str, first_id: int,
    ) -> None:
        """One arrival of local load: jobs nobody watches, addresses or
        kills one by one; job ``i`` is ``prefix + str(first_id + i)``.

        Those that find a free CPU start here and now as one
        :class:`_Cohort` — per job one run timer and one counted slot, no
        record.  The rest queue, in order, as ordinary jobs the scheduler
        forgets when they end.  With a reservation in the calendar a
        queued job may be backfilled the instant it arrives, so the
        arrival is then played one job at a time.
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
            fit = self._cpus.take(1 if self._reservations else n - i)
            if fit:
                self._start_cohort(key, runtimes[i:i + fit])
                if self._reservations:
                    self._offer_backfill()
                i += fit
            else:
                job = SiteJob(key, owner, runtimes[i], priority)
                job._detached = True
                self.submit(job)
                i += 1

    def kill(self, job_id: str) -> bool:
        """Remove a job (remote cancellation or site crash).

        Returns False when the job is already terminal.
        """
        return self._terminate(job_id, SiteJobStatus.KILLED)

    def hold(self, job_id: str) -> bool:
        """Put a job on hold (stopped, awaiting user analysis)."""
        return self._terminate(job_id, SiteJobStatus.HELD)

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
    def _terminate(self, job_id: str, status: SiteJobStatus) -> bool:
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
                try:
                    self._cpus.release(req)
                except SimulationError:
                    # A backfill redirect was in flight: the request was
                    # settled with a borrowed reservation slot, never
                    # granted itself.  The slot is recovered through
                    # _reclaim_orphan_slot when the kill unwinds.
                    pass
        entry = self._res_waiting.pop(job_id, None)
        if entry is not None:
            res = entry[0]
            try:
                res.claimed.remove(job_id)
            except ValueError:
                pass
        if job_id in self._running:
            # Killed while RUNNING: account checkpoint progress before
            # the slot unwinds, so status watchers (the Condor-G handle,
            # the tracker) already see the final checkpointed_fraction
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
        job._set_status(status)
        if status is SiteJobStatus.KILLED:
            self.killed_count += 1
        else:
            self.held_count += 1
        return True

    def _enqueue(self, job: SiteJob) -> None:
        """Join the general queue."""
        req = self._pending[job.job_id] = self._cpus.request(job.priority)
        self._await(job, req)

    def _await(self, job: SiteJob, event: Event) -> None:
        self._awaiting[job.job_id] = event
        event.callbacks.append(lambda ev, job=job: self._granted(job, ev))

    def _granted(self, job: SiteJob, event: Event) -> None:
        if self._awaiting.get(job.job_id) is not event:
            return  # stale: killed/held while the grant was in flight
        self._pending.pop(job.job_id, None)
        # The settle value is the slot actually granted: the request
        # itself on the ordinary path, or a reservation hold (claimed, or
        # borrowed when EASY backfilling redirected us).
        slot = event.value
        if slot is None:
            # The reservation evaporated (expiry / cancel / outage)
            # before a slot was assigned: fall back to the ordinary
            # priority queue.
            self._enqueue(job)
        else:
            self._start(job, slot)

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
            return  # stale: killed/held mid-run, _unwind freed the slot
        del self._awaiting[job_id]
        self._release_slot(job_id, self._running.pop(job_id))
        job.finished_at = self.env.now
        job._set_status(SiteJobStatus.COMPLETED)
        self.completed_count += 1
        if job._detached:
            del self._jobs[job_id]

    def _unwind(self, kick: Event) -> None:
        """Free whatever a killed/held job holds; _terminate set the status."""
        job = kick.value
        awaited = self._awaiting.pop(job.job_id, None)
        slot = self._running.pop(job.job_id, None)
        if slot is not None:
            self._release_slot(job.job_id, slot)
        else:
            self._reclaim_orphan_slot(job.job_id, awaited)
        if job._detached:
            del self._jobs[job.job_id]

    # -- cohorts: local jobs that started on free CPUs (DESIGN.md §5l) ------------
    def _start_cohort(self, key: str, runtimes: Sequence[float]) -> None:
        env = self.env
        cohort = _Cohort(key, env.now, len(runtimes), self._on_local_timer)
        self._jobs[key] = cohort
        service_time = self._service_time_fn
        for runtime_s in runtimes:
            # per job, in arrival order: the noise draw and the heap entry
            # (and ``_seq``) its own run timer would take
            service = service_time(runtime_s)
            if not service >= 0:
                raise ValueError(f"negative service time {service} in {key}")
            env.schedule(cohort, service)

    def _local_done(self, cohort: _Cohort) -> None:
        cohort.callbacks = self._on_local_timer  # the kernel took it
        if cohort.live <= 0:
            return  # stale: killed mid-run, the unwinds free the slots
        self._cpus.give_back()
        self.completed_count += 1
        cohort.live -= 1
        if not cohort.live:
            del self._jobs[cohort.key]

    def _kill_cohort(self, cohort: _Cohort) -> int:
        """Kill every live member, each accounted as :meth:`_terminate`
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

    # -- reservation internals ------------------------------------------------------
    def _window_free(self, start_s: float, end_s: float, cpus: int) -> bool:
        """True when the window never oversubscribes the calendar."""
        live = [
            r for r in self._reservations.values()
            if r.live and r.start_s < end_s and r.end_s > start_s
        ]
        points = {start_s}
        points.update(r.start_s for r in live if r.start_s >= start_s)
        for point in points:
            load = cpus + sum(
                r.cpus for r in live if r.start_s <= point < r.end_s
            )
            if load > self.n_cpus:
                return False
        return True

    def _hold_granted(self, res: Reservation, req: Request) -> None:
        res.pending_holds.discard(req)
        if not res.live:
            # Finalized while the grant was in flight; hand it straight back.
            self._cpus.release(req)
            return
        res.held.append(req)
        self._dispatch_reservation(res)

    def _dispatch_reservation(self, res: Reservation) -> None:
        """Assign held slots to claimed jobs, then backfill the rest."""
        if self.frozen:
            return  # blackholed sites start nothing, claimed or not
        while res.live and res.held and res.claimed:
            job_id = res.claimed.pop(0)
            slot = res.held.pop(0)
            self._start_claimed(job_id, res, slot)
        if res.live and res.held and not res.claimed:
            self._backfill_into(res)

    def _start_claimed(self, job_id: str, res: Reservation, slot: Request) -> None:
        _res, grant = self._res_waiting.pop(job_id)
        self._slot_home[job_id] = res
        res.running.add(job_id)
        res.started_jobs += 1
        miss = max(0.0, self.env.now - res.start_s)
        self.reservation_miss_latencies.append(miss)
        if self.obs.enabled:
            self.obs.metrics.histogram(
                "site.reservation_miss_latency_s", site=self.name
            ).observe(miss)
        grant.succeed(slot)

    def _backfill_into(self, res: Reservation) -> None:
        """EASY pass: run short queued jobs in the hole before start_s.

        A queued job may borrow a held slot only when its walltime
        estimate (``runtime_s``) proves the slot is back before the
        window opens — ``now + runtime_s <= start_s`` — so backfilling
        can never delay the reserved job beyond its plain-FIFO start.
        """
        if not self.backfill or not res.held:
            return
        hole = res.start_s - self.env.now
        if hole <= 0:
            return
        candidates = sorted(
            (jid for jid, jr in self._pending.items() if not jr.triggered),
            key=lambda jid: self._jobs[jid].priority,
        )
        for jid in candidates:
            if not res.held:
                break
            if self._jobs[jid].runtime_s <= hole:
                self._grant_backfill(res, jid)

    def _grant_backfill(self, res: Reservation, job_id: str) -> bool:
        jreq = self._pending.get(job_id)
        if jreq is None or jreq.triggered:
            return False
        try:
            self._cpus.cancel(jreq)
        except SimulationError:
            # Granted through the general pool this very instant; let
            # the ordinary path run it.
            return False
        slot = res.held.pop(0)
        self._slot_home[job_id] = res
        res.borrowed.add(job_id)
        self.backfill_count += 1
        if self.obs.enabled:
            self.obs.metrics.counter(
                "site.backfill_starts", site=self.name
            ).inc()
        jreq.succeed(slot)
        return True

    def _offer_backfill(self) -> None:
        for res in list(self._reservations.values()):
            if res.live and res.held and not res.claimed:
                self._backfill_into(res)

    def _release_slot(self, job_id: str, slot: Request) -> None:
        """Route a finished job's slot home: general pool or reservation."""
        res = self._slot_home.pop(job_id, None)
        if res is None:
            self._cpus.release(slot)
            return
        res.running.discard(job_id)
        res.borrowed.discard(job_id)
        self._return_slot(res, slot)
        self._maybe_early_release(res)

    def _return_slot(self, res: Reservation, slot: Request) -> None:
        if not res.live:
            self._cpus.release(slot)
            return
        res.held.append(slot)
        self._dispatch_reservation(res)

    def _maybe_early_release(self, res: Reservation) -> None:
        """Release a reservation whose claimed work finished early."""
        if (
            res.live
            and res.started_jobs > 0
            and not res.claimed
            and not res.running
            and self.env.now >= res.start_s
        ):
            self._finalize_reservation(res, ReservationState.RELEASED)

    def _reclaim_orphan_slot(self, job_id: str, grant: Event) -> None:
        """Recover a slot whose grant raced a kill.

        The job was killed while a reservation slot was in flight to
        it; put the slot back in the calendar (or the pool) instead of
        leaking it.
        """
        res = self._slot_home.pop(job_id, None)
        if res is None:
            return
        res.running.discard(job_id)
        res.borrowed.discard(job_id)
        if grant.triggered and grant.ok:
            slot = grant.value
            if isinstance(slot, Request) and slot is not grant:
                self._return_slot(res, slot)
                self._maybe_early_release(res)

    def _window_closed(self, res: Reservation) -> None:
        if not res.live:
            return
        res._end_timer = None
        state = (
            ReservationState.EXPIRED
            if res.started_jobs == 0
            else ReservationState.RELEASED
        )
        self._finalize_reservation(res, state)

    def _finalize_reservation(
        self, res: Reservation, state: ReservationState
    ) -> None:
        """Single exit path for a reservation; returns every held slot.

        Claimed jobs that never got a slot are re-pointed at the
        ordinary priority queue (their grant settles with None); running
        claimed/backfilled jobs finish out and release straight to the
        pool through :meth:`_return_slot`'s terminal branch.
        """
        res.state = state
        timer = res._end_timer
        res._end_timer = None
        if timer is not None and timer.callbacks is not None:
            timer.cancel()  # tombstone the stale window-end timer
        for req in list(res.pending_holds):
            try:
                self._cpus.cancel(req)
                res.pending_holds.discard(req)
            except SimulationError:
                # Granted this instant; _hold_granted releases it on
                # arrival because the reservation is now terminal.
                pass
        for req in res.held:
            self._cpus.release(req)
        res.held.clear()
        for job_id in list(res.claimed):
            entry = self._res_waiting.pop(job_id, None)
            if entry is not None:
                entry[1].succeed(None)
        res.claimed.clear()
        self._res_metric(state.value)

    def _res_metric(self, outcome: str) -> None:
        self.reservation_counts[outcome] += 1
        if self.obs.enabled:
            self.obs.metrics.counter(
                "site.reservations", site=self.name, outcome=outcome
            ).inc()
