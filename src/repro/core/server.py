"""The SPHINX server: control process + scheduling modules (paper §3.2).

The server runs a control loop (the "control process") that moves DAGs
and jobs through the finite-state automaton, invoking the module
responsible for each state:

* RECEIVED dags -> **DAG reducer** (replica-aware elimination),
* RUNNING dags  -> **planner** (ready-set selection, policy filtering,
  feedback filtering, algorithm choice, transfer planning),
* incoming tracker reports -> **feedback** + **prediction** updates.

All state lives in warehouse tables, and every write to them is
durable the moment it is made, as the paper's MySQL was: a crash hands
the replacement :meth:`SphinxServer.checkpoint` taken at the crash
instant, and :func:`repro.core.recovery.recover_server` resumes from it
(paper: "easily recoverable from internal component failures").

Client communication is message-based over the RPC bus: clients call
``submit_dag`` / ``report_status``, and the server sends planning
decisions from its outbox table straight to each client's ``deliver``
service, mirroring the message-handling module's incoming/outgoing
tables.

Wakeup discipline: the control loop blocks on a
:class:`~repro.sim.engine.Wakeup` latch signaled by the things that can
actually create plannable work — a DAG submission, a
completion/cancellation report (which also releases active slots,
refunds quota, and updates feedback), a virtual-data regeneration —
plus one deadline timer derived from the nearest pending job timeout
and the dirty-dag retry period (``tick_s``).  A quiescent server
schedules zero kernel events.  State lives in
warehouse rows and every pass runs ``tick()``.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from itertools import filterfalse
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro import obs as obs_mod
from repro.core.algorithms import SiteView, make_algorithm
from repro.core.client import client_service_name
from repro.core.dag_reducer import DagReducer
from repro.core.feedback import ReliabilityTracker
from repro.core.policies import PolicyEngine, QuotaExceededError
from repro.core.prediction import CompletionTimeEstimator
from repro.core.serialize import payload_to_dag
from repro.core.states import DagState, JobState
from repro.core.warehouse import Warehouse
from repro.services.monitoring import MonitoringService
from repro.services.rls import ReplicaService
from repro.services.rpc import RpcBus
from repro.sim.engine import Environment, Wakeup
from repro.workflow.dag import Dag

__all__ = ["ServerConfig", "SphinxServer", "require_non_negative",
           "require_positive"]

# Enum .value lookups cost a descriptor call each; the control loop
# compares job/dag states hundreds of thousands of times per run, so the
# string values are hoisted to module constants.
_JOB_UNPLANNED = JobState.UNPLANNED.value
_JOB_PLANNED = JobState.PLANNED.value
_JOB_SUBMITTED = JobState.SUBMITTED.value
_JOB_FINISHED = JobState.FINISHED.value
_JOB_CANCELLED = JobState.CANCELLED.value
_JOB_REMOVED = JobState.REMOVED.value
_JOB_DONE_STATES = (_JOB_FINISHED, _JOB_REMOVED)
_DAG_RECEIVED = DagState.RECEIVED.value
_DAG_RUNNING = DagState.RUNNING.value
_DAG_FINISHED = DagState.FINISHED.value


def require_positive(config, *fields: str) -> None:
    """Reject period/duration fields that are zero, negative or NaN.

    A zero ``tick_s`` spins the control loop at one instant and a NaN
    only surfaces deep in the kernel, so configs check at construction.
    """
    for name in fields:
        value = getattr(config, name)
        if not value > 0:
            raise ValueError(
                f"{type(config).__name__}.{name} must be > 0, got {value!r}"
            )


def require_non_negative(config, *fields: str) -> None:
    """Reject delay/amount fields that are negative or NaN (0 = off)."""
    for name in fields:
        value = getattr(config, name)
        if not value >= 0:
            raise ValueError(
                f"{type(config).__name__}.{name} must be >= 0, got {value!r}"
            )


@dataclass(slots=True)
class ServerConfig:
    """Tunable behaviour of one SPHINX server instance."""

    name: str = "sphinx"
    algorithm: str = "completion-time"
    algorithm_kwargs: dict[str, Any] = field(default_factory=dict)
    #: feedback reliability filter on feasible sites (paper's with/without).
    use_feedback: bool = True
    #: retry pacing: the control loop re-runs a pass this long after
    #: one that left a dag not fully planned (quota/feedback pressure
    #: may change without an observable report), after an overdue
    #: deadline, and before redelivering an un-acked outbox batch.
    tick_s: float = 5.0
    #: client-side job timeout before cancellation + replan.
    job_timeout_s: float = 1800.0
    #: planned-load correction in completion-time prediction (see
    #: repro.core.prediction); ablation knob.
    use_prediction_correction: bool = True
    #: "ewma" tracks the near-future environment (default); "mean" is
    #: eq. 3 read literally; ablation knob.
    estimator_mode: str = "ewma"
    #: CPU-equivalents one planned job is charged as in the correction;
    #: > 1 accounts for the transfer/queue pressure a job brings.
    prediction_correction_strength: float = 4.0
    #: safety valve: a job cancelled more than this many times fails the
    #: run loudly instead of looping forever.  None = unbounded (paper).
    max_attempts: Optional[int] = None
    #: transactional push delivery: outbox rows survive until the
    #: client's ``deliver`` ack and un-acked batches are redelivered
    #: (chaos runs, where the wire can eat a batch).  Off by default —
    #: the lossless-transport fast path deletes before sending and
    #: schedules no ack callbacks, keeping default runs bit-identical.
    reliable_delivery: bool = False
    #: presume a PLANNED/SUBMITTED job lost (cancel + replan) after this
    #: many seconds without a report.  The server-side liveness backstop
    #: for plans or terminal reports dropped by a faulty transport or a
    #: crashed client.  ``inf`` (default) never presumes a job lost.
    presume_lost_after_s: float = math.inf
    #: proactive planning: when a DAG starts RUNNING, book advance
    #: reservations for its later stages via the ``condor-g`` RPC,
    #: co-allocating each parallel stage across the best-predicted
    #: sites.  Jobs whose reservation confirms are planned straight to
    #: the reserved site and claim its held slots.  Off by default —
    #: the reactive feedback loop is the paper's configuration.
    reserve_ahead: bool = False
    #: walltime margin applied to stage duration/readiness estimates
    #: when sizing reservation windows (> 1 absorbs estimator error).
    reservation_slack: float = 1.5
    #: live migration off draining sites: on a spot-eviction notice
    #: (:meth:`SphinxServer.drain_notice`) evict every in-flight job at
    #: the site so its checkpoint is persisted and the job replans onto
    #: a live site inside the notice window, instead of losing the work
    #: at the reclaim instant.  Off by default (kill-and-resubmit); a
    #: chaos plan's eviction axis arms it for specs that left it unset.
    migrate_on_drain: bool = False
    #: job checkpointing: > 0 makes every planned job persist progress
    #: each interval (at ``job_checkpoint_cost_s`` CPU-seconds per
    #: write), so a killed attempt resumes from its last checkpoint
    #: rather than zero.  0 = off.
    job_checkpoint_interval_s: float = 0.0
    job_checkpoint_cost_s: float = 0.0

    def __post_init__(self) -> None:
        require_positive(self, "tick_s", "job_timeout_s",
                         "reservation_slack", "presume_lost_after_s")
        require_non_negative(self, "job_checkpoint_interval_s",
                             "job_checkpoint_cost_s",
                             "prediction_correction_strength")
        attempts = self.max_attempts
        if attempts is not None and (
            type(attempts) is not int or attempts < 1
        ):
            raise ValueError(
                "ServerConfig.max_attempts must be None or an int >= 1, "
                f"got {attempts!r}"
            )


class SphinxServer:
    """One SPHINX server instance, competing on a shared grid."""

    def __init__(
        self,
        env: Environment,
        bus: RpcBus,
        config: ServerConfig,
        site_catalog: Mapping[str, int],
        monitoring: MonitoringService,
        rls: ReplicaService,
        warehouse: Optional[Warehouse] = None,
        obs=None,
    ):
        if not site_catalog:
            raise ValueError("server needs at least one site in the catalog")
        self.env = env
        self.bus = bus
        self.config = config
        self.site_catalog = dict(site_catalog)
        self.monitoring = monitoring
        self.rls = rls

        #: observability (spans over the FSA + planner metrics); strictly
        #: passive, defaults to the shared no-op facade.
        self.obs = obs_mod.get(obs)
        self._trace = self.obs.tracer.enabled
        #: dag_id -> open root span; job_id -> open span of the current
        #: placement attempt (ended by the terminal report).
        self._dag_spans: dict[str, Any] = {}
        self._job_spans: dict[str, Any] = {}
        #: job_id -> sim time it last became plannable (submission for
        #: roots, last parent completion, or own cancellation) — the
        #: numerator of the planning-latency histogram.
        self._ready_since: dict[str, float] = {}
        m = self.obs.metrics
        self._m_planning_latency = m.histogram("server.planning_latency_s")
        self._m_jobs_planned = m.counter("server.jobs_planned",
                                         server=config.name)
        self._m_jobs_completed = m.counter("server.jobs_completed",
                                           server=config.name)
        self._m_resubmissions = m.counter("server.resubmissions",
                                          server=config.name)
        self._m_timeouts = m.counter("server.timeouts", server=config.name)
        self._m_passes = m.counter("server.control_passes",
                                   server=config.name)
        self._m_migrations = m.counter("server.migrations",
                                       server=config.name)
        self._m_ckpt_restores = m.counter("job.checkpoint_restores",
                                          server=config.name)
        self._m_preemption_loss = m.histogram("server.preemption_loss_s",
                                              server=config.name)

        self.warehouse = warehouse if warehouse is not None else Warehouse()
        self.init_tables(self.warehouse)
        self.feedback = ReliabilityTracker(self.warehouse, obs=obs)
        self.estimator = CompletionTimeEstimator(
            self.warehouse, mode=config.estimator_mode
        )
        self.policy = PolicyEngine(self.warehouse)
        self.reducer = DagReducer(rls)
        self.algorithm = make_algorithm(
            config.algorithm, **config.algorithm_kwargs
        )
        # Durable algorithm state (e.g. QosDeadline's rotation cursors)
        # lives in the warehouse so crash-restarts stay deterministic.
        self.algorithm.bind_state(self.warehouse)
        #: per-dag map of remaining levels below each job (memoized for
        #: deadline re-budgeting and stage reservation).
        self._depth_cache: dict[str, dict[str, int]] = {}
        #: reserve-ahead bookkeeping: job_id -> reservation group and
        #: res_id -> group.  Deliberately in-memory only — a reservation
        #: lost to a server crash is reclaimed by the site's window-end
        #: expiry, which is cheaper than replaying RPC state.
        self._job_reservations: dict[str, dict] = {}
        self._reservation_groups: dict[str, dict] = {}
        self.reservations_requested = 0
        self.reservations_confirmed = 0

        #: live DAG objects reconstructed from payloads (cache over the
        #: dag payload column; rebuilt lazily after recovery).
        self._dag_cache: dict[str, Dag] = {}
        # The message sequence must clear every undelivered message a
        # restored warehouse carries over, or the first post-recovery
        # send collides with a surviving msg_id.
        next_seq = 0
        for msg in self.warehouse.table("outbox").select(copy=False):
            mid = msg["msg_id"]
            if mid.startswith("m") and mid[1:].isdigit():
                next_seq = max(next_seq, int(mid[1:]) + 1)
        self._msg_seq = itertools.count(next_seq)
        #: per-site (planned, running) counters kept incrementally so the
        #: planner never scans the jobs table; rebuilt from the table on
        #: construction, which covers recovery.
        self._site_active: dict[str, list[int]] = {
            s: [0, 0] for s in self.site_catalog
        }
        #: ``(planned_at, job_id)`` of every plan made, oldest first —
        #: ``planned_at`` is only ever written as ``env.now``, so appends
        #: keep it sorted.  Entries whose row has since ended or been
        #: replanned are dropped when they reach the front.  ``None``
        #: until first read, then built from the jobs table: recovery
        #: needs no hook.
        self._plans_in_flight: Optional[deque[tuple[float, str]]] = None
        #: candidate pool handed to the policy filter every plan; the
        #: catalog is immutable for the server's lifetime, so one tuple
        #: serves every job (``tuple(t)`` returns ``t`` unchanged, so
        #: the quota-exempt fast path allocates nothing per job).
        self._catalog_sites: tuple[str, ...] = tuple(self.site_catalog)
        #: the site table: one :class:`SiteView` per site in catalog
        #: order, read only through :meth:`_site_views`, which first
        #: rebuilds the rows named in ``_stale``.  A row goes stale
        #: where one of its inputs changes (every ``_stale.add`` /
        #: ``_stale.update``) or when a monitoring poll replaces its
        #: snapshot (``_monitoring_poll`` is the last poll folded in);
        #: every row starts stale, which covers recovery.
        self._site_row: dict[str, int] = {
            s: i for i, s in enumerate(self._catalog_sites)
        }
        self._site_table: list[SiteView] = [None] * len(self._site_row)
        self._stale: set[str] = set(self._site_row)
        self._monitoring_poll = monitoring.poll_count
        #: federation seam: a callable ``site -> (planned, running)``
        #: merged into every view's load counters (peer-shard load from
        #: digests).  None — the default — keeps single-server runs
        #: decision-identical.
        self._remote_load = None
        self._rebuild_site_counters()
        #: dag_ids whose ready set may have changed since the last
        #: planner pass (new RUNNING dag, job finished/cancelled, or a
        #: ready job left unplanned — quota/feedback may free up).  The
        #: planner only walks these instead of every RUNNING dag.
        #: Seeded with every unfinished dag, which covers recovery.
        self._dirty_dags: set[str] = {
            r["dag_id"]
            for r in self.warehouse.table("dags").select(
                predicate=lambda r: r["state"] != _DAG_FINISHED, copy=False
            )
        }
        #: dag_id -> the ready tuple its last pass computed, kept while
        #: the dag stays dirty with a ready job unplanned.  Its only input
        #: is which jobs are done, so every write that moves a job into
        #: or out of ``_JOB_DONE_STATES`` drops it (``_done_changed``).
        #: Starts empty, which covers recovery.
        self._ready: dict[str, tuple[str, ...]] = {}

        # Counters the experiments read.
        self.resubmission_count = 0
        self.timeout_count = 0
        self.stage_in_failures = 0
        self.regeneration_count = 0
        self.migration_count = 0
        self.checkpoint_restore_count = 0
        #: CPU-seconds reported lost to preemption across all attempts.
        self.preempted_work_s = 0.0
        #: site -> published eviction deadline while it drains (kept
        #: through the reclaim outage; cleared when the site is back).
        #: The planner skips these sites; deliberately in-memory — a
        #: recovered server re-learns live drains from fresh notices,
        #: and ``presume_lost_after_s`` backstops what it missed.
        self._draining: dict[str, float] = {}

        self.service_name = f"sphinx-server-{config.name}"
        if bus.has_service(self.service_name):
            # Fail fast and whole: without this guard the bus would
            # reject the duplicate mid-registration (first method wins)
            # and the two servers would silently share one service name.
            raise ValueError(
                f"service {self.service_name!r} is already on the bus — "
                "give each concurrent server a unique ServerConfig.name"
            )
        bus.register(self.service_name, "submit_dag", self._rpc_submit_dag)
        bus.register(self.service_name, "report_status", self._rpc_report_status)

        #: the control-process latch (see module docstring).
        self._wakeup = Wakeup(env)
        #: sim time of the earliest live deadline timer (inf = none)
        #: and the timer itself; see _arm_deadline.
        self._deadline_at = float("inf")
        self._deadline_ev = None
        #: clients with outbox rows enqueued since the last flush, in
        #: first-dirtied order (dict-as-ordered-set for determinism).
        self._dirty_clients: dict[str, None] = {}
        #: clients with a reliable-delivery batch awaiting its ack.
        self._delivery_inflight: set[str] = set()
        # A restored warehouse may carry undelivered messages (e.g.
        # dag-finished notifications recovery keeps); deliver them
        # now so clients are not left waiting on a ring that the
        # crashed server already consumed.
        for row in self.warehouse.table("outbox").select(copy=False):
            self._dirty_clients[row["client_id"]] = None
        self._flush_outbox()

        self._proc = env.process(self._control_process())

    def shutdown(self) -> None:
        """Simulate a server crash/stop: drop off the bus, halt the loop.

        Take :meth:`checkpoint` first: the image is what survives the
        crash; see :mod:`repro.core.recovery` for bringing a
        replacement up.
        """
        self.bus.unregister_service(self.service_name)
        if self._proc.is_alive:
            self._proc.interrupt("shutdown")

    # ------------------------------------------------------------------ schema
    @staticmethod
    def init_tables(w: Warehouse) -> None:
        """Create the server's tables and indexes that ``w`` lacks."""
        if "dags" not in w:
            w.create_table(
                "dags",
                ("dag_id", "client_id", "user", "priority", "state",
                 "received_at", "finished_at", "payload"),
                key="dag_id",
            )
        if "jobs" not in w:
            w.create_table(
                "jobs",
                ("job_id", "dag_id", "state", "site", "attempts",
                 "last_status", "planned_at", "finished_at",
                 "completion_time_s", "checkpoint_fraction"),
                key="job_id",
            )
        if "outbox" not in w:
            w.create_table(
                "outbox",
                ("msg_id", "client_id", "kind", "payload"),
                key="msg_id",
            )
        # ensure_index is idempotent and builds from existing rows, so
        # this also covers warehouses restored from a checkpoint.
        w.table("dags").ensure_index("state")
        w.table("jobs").ensure_index("state")
        w.table("outbox").ensure_index("client_id")

    # ------------------------------------------------------------- RPC handlers
    def _rpc_submit_dag(self, client_id: str, user: str,
                        dag_payload: dict, priority: int = 10) -> str:
        """Message-handling module: accept a scheduling request.

        ``priority`` is the submitting user's standing (smaller = more
        important); the planner serves higher-priority DAGs' ready jobs
        first within each pass.
        """
        dag = payload_to_dag(dag_payload)
        dags = self.warehouse.table("dags")
        if dag.dag_id in dags:
            raise ValueError(f"duplicate dag {dag.dag_id!r}")
        dags.insert({
            "dag_id": dag.dag_id,
            "client_id": client_id,
            "user": user,
            "priority": int(priority),
            "state": DagState.RECEIVED.value,
            "received_at": self.env.now,
            "finished_at": None,
            "payload": dag_payload,
        })
        jobs = self.warehouse.table("jobs")
        for jid in dag.job_ids:
            jobs.insert({
                "job_id": jid,
                "dag_id": dag.dag_id,
                "state": JobState.UNPLANNED.value,
                "site": None,
                "attempts": 0,
                "last_status": None,
                "planned_at": None,
                "finished_at": None,
                "completion_time_s": None,
                "checkpoint_fraction": 0.0,
            })
        self._dag_cache[dag.dag_id] = dag
        if self.obs.enabled:
            # Roots are plannable from the submission instant; successors
            # get stamped as their last parent completes.
            for jid in dag.roots:
                self._ready_since[jid] = self.env.now
            if self._trace:
                span = self.obs.tracer.start_span(
                    f"dag {dag.dag_id}", kind="dag",
                    component=self.config.name, lane=dag.dag_id,
                    dag_id=dag.dag_id, user=user, priority=int(priority),
                    n_jobs=len(dag), algorithm=self.config.algorithm,
                )
                self._dag_spans[dag.dag_id] = span
                self.obs.tracer.add_event(span, "submit",
                                          client_id=client_id)
        self._wakeup.set()
        return "accepted"

    def _rpc_report_status(
        self,
        job_id: str,
        status: str,
        site: str,
        completion_time_s: Optional[float] = None,
        reason: Optional[str] = None,
        missing: Optional[list] = None,
        checkpointed_fraction: float = 0.0,
        lost_work_s: float = 0.0,
    ) -> str:
        """Tracker report ingestion (feedback + prediction + automaton)."""
        jobs = self.warehouse.table("jobs")
        row = jobs.get(job_id, copy=False)
        if row is None:
            raise KeyError(f"unknown job {job_id!r}")
        if status == "running":
            if (row["state"] == _JOB_PLANNED
                    and row["last_status"] != "running"):
                jobs.update(job_id, state=_JOB_SUBMITTED,
                            last_status="running")
                self._count_transition(site, planned=-1, running=+1)
                if self._trace:
                    span = self._job_spans.get(job_id)
                    if span is not None:
                        self.obs.tracer.add_event(span, "running", site=site)
            elif row["state"] == _JOB_SUBMITTED:
                jobs.update(job_id, last_status="running")
        elif status == "completed":
            if row["state"] == _JOB_FINISHED:
                return "duplicate"
            self._release_active(row, site)
            jobs.update(
                job_id,
                state=_JOB_FINISHED,
                last_status="completed",
                finished_at=self.env.now,
                completion_time_s=completion_time_s,
            )
            self.feedback.record_completion(site)
            if completion_time_s is not None:
                self.estimator.record(site, completion_time_s)
                # avg/predicted completion just moved; the feedback
                # tally above is *not* a view input (it filters the
                # candidate list upstream), so only this needs it.
                self._stale.add(site)
            if self.obs.enabled:
                self._m_jobs_completed.inc()
                # Successors become plannable now (the planner pops the
                # stamp; the last parent's completion wins, which is the
                # instant the child truly became ready).
                for child in self._dag(row["dag_id"]).children(job_id):
                    self._ready_since[child] = self.env.now
                if self._trace:
                    span = self._job_spans.pop(job_id, None)
                    if span is not None:
                        self.obs.tracer.end_span(
                            span, "ok",
                            completion_time_s=completion_time_s,
                        )
            # A completion may unlock successors: replan this dag.
            self._done_changed(row["dag_id"])
            self._maybe_finish_dag(row["dag_id"])
            self._wakeup.set()
        elif status == "cancelled":
            if row["state"] in (_JOB_FINISHED, _JOB_CANCELLED):
                return "duplicate"
            # The reservation to return is the one at the *planned* site.
            # A stale cancel from a superseded attempt may name a site the
            # job has since been replanned away from; refunding there would
            # corrupt both ledgers.  (row is a live view: read before the
            # update below nulls the column.)
            charged_site = row["site"]
            self._release_active(row, site)
            jobs.update(
                job_id,
                state=_JOB_CANCELLED,
                last_status=reason or "cancelled",
                site=None,
            )
            if checkpointed_fraction > 0.0:
                # The attempt's fraction is relative to its (already
                # reduced) runtime; fold it into the overall fraction so
                # progress across attempts only ever grows.
                prev = row["checkpoint_fraction"]
                jobs.update(
                    job_id,
                    checkpoint_fraction=min(
                        1.0, prev + (1.0 - prev) * checkpointed_fraction
                    ),
                )
            if lost_work_s > 0.0:
                self.preempted_work_s += lost_work_s
                if self.obs.enabled:
                    self._m_preemption_loss.observe(lost_work_s)
            self._dirty_dags.add(row["dag_id"])
            if reason == "stage-in":
                # A missing *source* replica is not the execution site's
                # fault; penalizing it would poison the reliability pool.
                self.stage_in_failures += 1
                if missing:
                    self._regenerate_lost_inputs(row["dag_id"], missing)
                else:
                    # Every source had a live replica, so the transfer
                    # failed at the *destination* — an unreachable site.
                    # The replan runs the instant this report lands;
                    # without a penalty the planner re-picks the dead
                    # site (its completion estimate is frozen at its
                    # healthy-era value) and hot-loops plan -> stage-in
                    # -> cancel until the horizon.
                    self.feedback.record_cancellation(site)
            else:
                self.feedback.record_cancellation(site)
            self.resubmission_count += 1
            if reason == "timeout":
                self.timeout_count += 1
            if self.obs.enabled:
                self._m_resubmissions.inc()
                self.obs.metrics.counter(
                    "server.cancellations", server=self.config.name,
                    reason=reason or "cancelled",
                ).inc()
                if reason == "timeout":
                    self._m_timeouts.inc()
                self._ready_since[job_id] = self.env.now
                if self._trace:
                    span = self._job_spans.pop(job_id, None)
                    if span is not None:
                        self.obs.tracer.end_span(
                            span, "cancelled",
                            reason=reason or "cancelled",
                        )
            user = self._dag_user(row["dag_id"])
            dag = self._dag(row["dag_id"])
            self.policy.refund(
                user, charged_site or site, dag.job(job_id).requirements
            )
            # Slot released, quota refunded, feedback updated: replan now.
            self._wakeup.set()
            if (self.config.max_attempts is not None
                    and row["attempts"] >= self.config.max_attempts):
                raise RuntimeError(
                    f"job {job_id} exceeded {self.config.max_attempts} attempts"
                )
        else:
            raise ValueError(f"unknown status {status!r}")
        self._flush_outbox()  # e.g. a dag-finished message from this report
        return "ok"

    # --------------------------------------------------------------- control loop
    def _control_process(self):
        from repro.sim import Interrupt

        while True:
            self.tick()
            try:
                wake = self._wakeup.wait()
                if wake.triggered:
                    # A ring landed during this pass; run another now.
                    yield wake
                    continue
                deadline = self._next_deadline()
                if deadline is not None:
                    delay = deadline - self.env.now
                    if delay <= 0.0:
                        # An overdue deadline must not busy-spin the
                        # loop at one instant; pace it by ``tick_s``.
                        delay = self.config.tick_s
                    self._arm_deadline(self.env.now + delay)
                yield wake  # quiescent server: zero scheduled events
            except Interrupt:
                return  # shutdown

    def _arm_deadline(self, when: float) -> None:
        """Ensure a live timer rings the control latch at/before ``when``.

        Kernel timers cannot be withdrawn, so instead of arming a fresh
        timeout every pass (one stale heap entry each), the loop keeps at
        most one *live* deadline timer and re-arms only when the needed
        deadline moves earlier than it.  A timer that fires early (its
        deadline was superseded by a later one) just triggers a recompute
        pass, which is a no-op.
        """
        if self.env.now < self._deadline_at <= when:
            return  # the live timer already covers this deadline
        stale = self._deadline_ev
        if stale is not None and not stale.processed:
            stale.cancel()  # superseded by an earlier deadline
        self._deadline_at = when

        def _ring(_ev, when=when):
            if self._deadline_at == when:
                self._deadline_at = float("inf")
                self._deadline_ev = None
            self._wakeup.set()

        self._deadline_ev = self.env.timeout(when - self.env.now)
        self._deadline_ev.add_callback(_ring)

    def _next_deadline(self) -> Optional[float]:
        """The next instant a pass must run even without a wakeup.

        Two sources: a retry deadline while any dag is dirty (its ready
        jobs could not all be planned — quota or feedback pressure can
        relax without a report); and a safety net at the nearest
        pending job timeout, in case a client-side report is lost and
        no wakeup ever arrives.
        """
        deadline = None
        if self._dirty_dags or (
            self.config.reliable_delivery and self._dirty_clients
        ):
            # Dirty dags retry on quota/feedback drift; kept-dirty
            # clients (crashed receiver) retry their redelivery.
            deadline = self.env.now + self.config.tick_s
        oldest = self._nearest_planned_at()
        if oldest is not None:
            # Grace for plan delivery + staging before the client's
            # tracker starts its own clock; a late pass is a no-op.
            pending = min(
                oldest + self.config.job_timeout_s + self.config.tick_s,
                oldest + self.config.presume_lost_after_s,
            )
            if deadline is None or pending < deadline:
                deadline = pending
        return deadline

    def _nearest_planned_at(self) -> Optional[float]:
        """Earliest planning instant among in-flight jobs (timeout and
        presumed-lost deadlines are both offsets from it)."""
        jobs = self.warehouse.table("jobs")
        plans = self._plans_in_flight
        if plans is None:
            plans = self._plans_in_flight = deque(sorted(
                (row["planned_at"], row["job_id"])
                for state in (_JOB_PLANNED, _JOB_SUBMITTED)
                for row in jobs.select(where={"state": state}, copy=False)
                if row["planned_at"] is not None
            ))
        rows_get = jobs._rows.get
        nearest = None
        while plans:
            planned_at, job_id = plans[0]
            row = rows_get(job_id)
            if (row is not None and row["planned_at"] == planned_at
                    and row["state"] in (_JOB_PLANNED, _JOB_SUBMITTED)):
                nearest = planned_at
                break
            plans.popleft()
        return nearest

    def tick(self) -> None:
        """One control-process pass (public for tests and recovery)."""
        self._m_passes.inc()
        self._reduce_new_dags()
        self._requeue_lost_jobs()
        self._plan_ready_jobs()
        self._flush_outbox()

    def checkpoint(self) -> dict:
        """The warehouse image a crash at this instant leaves behind.

        Every write is durable when made, so the image holds everything
        the server has decided or heard.  It is a deep copy: the
        crashed incarnation's pending callbacks (delivery acks,
        reservation replies, lease credits) still hold the live
        warehouse and may write to it after the crash.
        """
        return self.warehouse.snapshot()

    # --------------------------------------------------------------- DAG reducer
    def _reduce_new_dags(self) -> None:
        dags = self.warehouse.table("dags")
        jobs = self.warehouse.table("jobs")
        for row in dags.select(where={"state": _DAG_RECEIVED}):
            dag_id = row["dag_id"]
            dags.update(dag_id, state=DagState.REDUCING.value)
            dag = self._dag(dag_id)
            removable = self.reducer.removable_jobs(dag)
            for jid in removable:
                jobs.update(jid, state=_JOB_REMOVED,
                            finished_at=self.env.now)
            if self._trace and removable:
                span = self._dag_spans.get(dag_id)
                if span is not None:
                    self.obs.tracer.add_event(span, "reduced",
                                              removed_jobs=len(removable))
            if len(removable) == len(dag):
                dags.update(dag_id, state=_DAG_FINISHED,
                            finished_at=self.env.now)
                self._end_dag_span(dag_id, fully_reduced=True)
                self._notify_dag_finished(row["client_id"], dag_id)
            else:
                dags.update(dag_id, state=DagState.REDUCED.value)
                dags.update(dag_id, state=_DAG_RUNNING)
                self._done_changed(dag_id)
                if self.config.reserve_ahead:
                    self._reserve_dag_stages(dags.get(dag_id, copy=False))

    # -------------------------------------------------------------------- planner
    def _plan_ready_jobs(self) -> None:
        """Plan ready jobs of every *dirty* RUNNING dag.

        A clean dag cannot grow new ready jobs between ticks (that takes
        a completion or cancellation, which dirty it), so quiescent dags
        cost nothing per tick.  A dag stays dirty while any of its ready
        jobs could not be planned — quota or feedback may change — and
        keeps the ready tuple this pass computed until a job of it
        enters or leaves a done state.
        """
        dirty = self._dirty_dags
        if not dirty:
            return
        dags = self.warehouse.table("dags")
        jobs = self.warehouse.table("jobs")
        running = []
        for dag_id in dirty:
            drow = dags.get(dag_id, copy=False)
            if drow is not None and drow["state"] == _DAG_RUNNING:
                running.append(drow)
        # Serve higher-priority users first; FIFO within a priority.
        running.sort(
            key=lambda r: (r["priority"], r["received_at"], r["dag_id"])
        )
        still_dirty: set[str] = set()
        rows_get = jobs._rows.get
        ready_cache = self._ready
        declined: set[tuple] = set()
        for drow in running:
            dag_id = drow["dag_id"]
            dag = self._dag(dag_id)
            ready = ready_cache.pop(dag_id, None)
            if ready is None:
                ready = dag.ready_jobs([
                    jid
                    for jid in dag.job_ids
                    if rows_get(jid)["state"] in _JOB_DONE_STATES
                ])
            fully_planned = True
            for jid in ready:
                jrow = rows_get(jid)
                if jrow["state"] not in (_JOB_UNPLANNED, _JOB_CANCELLED):
                    continue  # already planned/submitted
                if not self._plan_job(drow, dag, jrow, declined):
                    fully_planned = False
            if not fully_planned:
                still_dirty.add(dag_id)
                ready_cache[dag_id] = ready
        self._dirty_dags = still_dirty

    def _plan_job(self, drow: dict, dag: Dag, jrow: dict,
                  declined: set[tuple]) -> bool:
        """Try to place one ready job; False means retry next tick.

        ``declined`` holds this pass's ``(user, requirements)`` classes
        whose ``choose_site`` said None with nothing committed since; a
        later job of one is deferred without asking (DESIGN.md §5g).
        """
        job = dag.job(jrow["job_id"])
        user = drow["user"]
        group = self._job_reservations.get(job.job_id)
        job_class = None
        if group is None and not self.algorithm.wants_context:
            job_class = (user, tuple(job.requirements.items()))
            if job_class in declined:
                self._plan_deferred(drow, job.job_id, "no-site-chosen")
                return False
        # Each filter hands back the pool it was given — the same tuple
        # object — when it drops nothing, so an unfiltered plan reaches
        # the algorithm with the site table itself.
        candidates = self.policy.feasible_sites(
            user, job.requirements, self._catalog_sites
        )
        draining = self._draining
        if draining:
            # Never place new work on a site that published an eviction
            # notice (it would be killed at the reclaim instant); if
            # *every* feasible site is draining, wait a tick rather than
            # knowingly burn the work.
            candidates = tuple(
                filterfalse(draining.__contains__, candidates)
            )
            if not candidates:
                declined.clear()
                self._plan_deferred(drow, job.job_id, "draining")
                return False
        feedback_dropped: list[str] = []
        if self.config.use_feedback:
            feasible = candidates
            candidates = self.feedback.reliable_sites(candidates)
            if self._trace and len(candidates) != len(feasible):
                kept = set(candidates)
                feedback_dropped = [s for s in feasible if s not in kept]
        if not candidates:
            declined.clear()
            self._plan_deferred(drow, job.job_id, "no-feasible-site")
            return False  # nothing feasible now; retry next tick
        views = self._select_views(candidates)
        site = None
        reservation_id = None
        if group is not None:
            if group["state"] == "confirmed" and group["site"] in candidates:
                # Plan straight to the reserved site; the plan carries
                # the res_id so the submission claims a held slot.
                site = group["site"]
                reservation_id = group["res_id"]
            else:
                # Rejected, still in flight, or the reserved site fell
                # out of the feasible pool — plan normally and walk away
                # from the booking (site-side expiry reclaims the slots
                # if nobody else in the group shows up either).
                self._abandon_job_reservation(job.job_id, group)
                declined.clear()
                group = None
        if site is None:
            if self.algorithm.wants_context:
                site = self.algorithm.choose_site_ctx(
                    job.job_id, views, self._plan_context(drow, dag, job.job_id)
                )
            else:
                site = self.algorithm.choose_site(job.job_id, views)
        if site is None:
            if job_class is not None:
                declined.add(job_class)
            self._plan_deferred(drow, job.job_id, "no-site-chosen")
            return False
        try:
            self.policy.charge(user, site, job.requirements)
        except QuotaExceededError:
            declined.clear()
            self._plan_deferred(drow, job.job_id, "quota")
            return False  # racing reservations; retry next tick
        declined.clear()
        if group is not None:
            # Consume the booking only once the plan is definitely going
            # out (a quota defer above must keep it claimable).
            group["jobs"].discard(job.job_id)
            group["claimed"] += 1
            self._job_reservations.pop(job.job_id, None)
        jobs = self.warehouse.table("jobs")
        # jrow may be the live row; read attempts before update mutates it.
        attempt = jrow["attempts"] + 1
        fraction = jrow["checkpoint_fraction"]
        runtime_s = job.runtime_s
        if fraction > 0.0:
            # Resume from the last persisted checkpoint: the attempt
            # only has to run the unfinished remainder.
            runtime_s = job.runtime_s * (1.0 - fraction)
            self.checkpoint_restore_count += 1
            if self.obs.enabled:
                self._m_ckpt_restores.inc()
        jobs.update(
            job.job_id,
            state=_JOB_PLANNED,
            site=site,
            attempts=attempt,
            planned_at=self.env.now,
            last_status="planned",
        )
        if self._plans_in_flight is not None:
            self._plans_in_flight.append((self.env.now, job.job_id))
        self._count_transition(site, planned=+1)
        if self.obs.enabled:
            self._m_jobs_planned.inc()
            since = self._ready_since.pop(job.job_id, None)
            self._m_planning_latency.observe(
                self.env.now
                - (since if since is not None else drow["received_at"])
            )
            if self._trace:
                span = self.obs.tracer.start_span(
                    f"job {job.job_id}", kind="job",
                    parent=self._dag_spans.get(dag.dag_id),
                    component=self.config.name, lane=dag.dag_id,
                    job_id=job.job_id, dag_id=dag.dag_id, site=site,
                    attempt=attempt, algorithm=self.config.algorithm,
                    candidate_scores={
                        v.name: v.predicted_completion_s for v in views
                    },
                    feedback_dropped=feedback_dropped,
                )
                self._job_spans[job.job_id] = span
        plan_payload = {
            "job_id": job.job_id,
            "dag_id": dag.dag_id,
            "site": site,
            "attempt": attempt,
            "runtime_s": runtime_s,
            "user": user,
            "inputs": [
                {"lfn": f.lfn, "size_mb": f.size_mb} for f in job.inputs
            ],
            "outputs": [
                {"lfn": f.lfn, "size_mb": f.size_mb} for f in job.outputs
            ],
            "timeout_s": self.config.job_timeout_s,
            "reservation_id": reservation_id,
            # Plan origin: under a federation the client must report
            # this job to the shard that planned it, not to whatever
            # front door admitted the DAG.
            "server": self.service_name,
        }
        if self.config.job_checkpoint_interval_s:
            plan_payload["checkpoint_interval_s"] = (
                self.config.job_checkpoint_interval_s
            )
            plan_payload["checkpoint_cost_s"] = (
                self.config.job_checkpoint_cost_s
            )
        self._send(drow["client_id"], "plan", plan_payload)
        return True

    def _plan_deferred(self, drow: dict, job_id: str, reason: str) -> None:
        """Record a planning pass that could not place a ready job."""
        if not self.obs.enabled:
            return
        self.obs.metrics.counter(
            "server.plan_deferred", server=self.config.name, reason=reason
        ).inc()
        if self._trace:
            span = self._dag_spans.get(drow["dag_id"])
            if span is not None:
                self.obs.tracer.add_event(span, "plan-deferred",
                                          job_id=job_id, reason=reason)

    # ------------------------------------------------------- drain notices/migration
    def drain_notice(self, site: str, deadline_s: Optional[float] = None) -> None:
        """A site published a spot-eviction notice (it is DRAINING).

        The planner stops placing new work there immediately.  With
        ``config.migrate_on_drain`` the server also evicts every
        in-flight job at the site inside the notice window: the client
        kills the attempt (the site persists its checkpoint first), the
        cancelled report refunds the draining site's quota charge, and
        the replan charges the target site — conserving both ledgers.
        ``presume_lost_after_s`` remains the backstop when the notice
        or the eviction message itself is lost in transit.
        """
        if site not in self.site_catalog:
            return  # not a site this server plans onto
        already = site in self._draining
        self._draining[site] = (
            deadline_s if deadline_s is not None else self.env.now
        )
        if self.config.migrate_on_drain and not already:
            self._migrate_off(site, self._draining[site])
        self._wakeup.set()

    def drain_cleared(self, site: str) -> None:
        """The drained site's capacity is back; it may be planned again."""
        if self._draining.pop(site, None) is not None:
            self._wakeup.set()

    def _migrate_off(self, site: str, deadline_s: float) -> None:
        """Evict in-flight jobs at ``site`` that cannot beat the reclaim.

        Work that can plausibly finish inside the notice window is left
        to run: evicting it would discard progress (or a queue slot)
        the drain was never going to take.  The remaining-time estimate
        is optimistic (it books all elapsed time since planning as
        progress, ignoring queueing and staging), which errs on the
        side of *not* evicting — a wrong guess is caught by the reclaim
        kill, whose cancelled report still carries the job's last
        checkpoint, so the miss costs at most one checkpoint interval
        of work.  Only jobs that genuinely cannot beat the deadline
        migrate.
        """
        jobs = self.warehouse.table("jobs")
        dags = self.warehouse.table("dags")
        slack = deadline_s - self.env.now
        moved = 0
        for state in (_JOB_PLANNED, _JOB_SUBMITTED):
            for row in jobs.select(where={"state": state}, copy=False):
                if row["site"] != site:
                    continue
                drow = dags.get(row["dag_id"], copy=False)
                if drow is None:
                    continue
                runtime = self._dag(row["dag_id"]).job(
                    row["job_id"]
                ).runtime_s * (1.0 - row["checkpoint_fraction"])
                elapsed = (
                    self.env.now - row["planned_at"]
                    if state == _JOB_SUBMITTED and row["planned_at"] is not None
                    else 0.0
                )
                if runtime - elapsed <= slack:
                    continue  # likely to finish before the reclaim
                self._send(drow["client_id"], "evict", {
                    "job_id": row["job_id"],
                    "attempt": row["attempts"],
                    "site": site,
                })
                moved += 1
        if moved:
            self.migration_count += moved
            if self.obs.enabled:
                self._m_migrations.inc(moved)
        self._flush_outbox()

    # ------------------------------------------------------ proactive reservations
    def _plan_context(self, drow: dict, dag: Dag, job_id: str) -> dict:
        """Per-job DAG context for context-aware algorithms (QosDeadline)."""
        return {
            "now": self.env.now,
            "received_at": drow["received_at"],
            "remaining_levels": self._remaining_levels(dag).get(job_id, 1),
        }

    def _remaining_levels(self, dag: Dag) -> dict[str, int]:
        """job_id -> own level plus the longest level chain below it."""
        cached = self._depth_cache.get(dag.dag_id)
        if cached is not None:
            return cached
        depth: dict[str, int] = {}
        for jid in reversed(dag.job_ids):
            below = max(
                (depth[c] for c in dag.children(jid)), default=0
            )
            depth[jid] = 1 + below
        self._depth_cache[dag.dag_id] = depth
        return depth

    def _stage_levels(self, dag: Dag) -> dict[int, list[str]]:
        """Group jobs by dependency level (0 = roots), topo-stable."""
        level: dict[str, int] = {}
        stages: dict[int, list[str]] = {}
        for jid in dag.job_ids:
            lvl = max(
                (level[p] + 1 for p in dag.parents(jid)), default=0
            )
            level[jid] = lvl
            stages.setdefault(lvl, []).append(jid)
        return stages

    def _reserve_dag_stages(self, drow: dict) -> None:
        """Book advance reservations for a new RUNNING dag's later stages.

        Each level after the roots gets a window starting at the
        estimated readiness instant (cumulative predicted stage
        durations, stretched by ``reservation_slack``), co-allocated
        across the best-predicted sites up to each site's CPU count.
        Confirmations arrive asynchronously; until then the group is
        "pending" and jobs that come ready early just plan normally.
        """
        dag = self._dag(drow["dag_id"])
        jobs = self.warehouse.table("jobs")
        stages = self._stage_levels(dag)
        if len(stages) < 2:
            return  # single-stage dags plan immediately; nothing to book
        candidates = self._catalog_sites
        if self.config.use_feedback:
            reliable = self.feedback.reliable_sites(candidates)
            if reliable:
                candidates = reliable
        views = self._select_views(candidates)
        start = self.env.now
        slack = self.config.reservation_slack
        for lvl in sorted(stages):
            stage_jobs = [
                jid for jid in stages[lvl]
                if jobs.get(jid, copy=False)["state"] == _JOB_UNPLANNED
            ]
            if not stage_jobs:
                continue
            duration = slack * max(
                self._job_duration_estimate(dag.job(jid))
                for jid in stage_jobs
            )
            if lvl > 0:
                self._reserve_stage(drow, lvl, stage_jobs, start, duration,
                                    views)
            start += duration

    def _job_duration_estimate(self, job) -> float:
        """Site-agnostic completion estimate for window sizing."""
        sampled = [
            avg for s in self.site_catalog
            if (avg := self.estimator.average_s(s)) is not None
        ]
        if sampled:
            return max(job.runtime_s, min(sampled))
        # Cold start: allow generously for queueing + transfer on top of
        # the nominal compute demand.
        return 3.0 * job.runtime_s

    def _reserve_stage(
        self,
        drow: dict,
        level: int,
        stage_jobs: list,
        start_s: float,
        duration_s: float,
        views: list,
    ) -> None:
        """Co-allocate one parallel stage across the best-predicted sites."""

        def rank(view) -> tuple:
            score = view.predicted_completion_s
            if score is None:
                score = view.avg_completion_s
            if score is None:
                score = float("inf")  # unsampled sites last, by size
            return (score, -view.n_cpus, view.name)

        remaining = list(stage_jobs)
        for view in sorted(views, key=rank):
            if not remaining:
                break
            chunk = remaining[: max(1, view.n_cpus)]
            remaining = remaining[len(chunk):]
            res_id = (
                f"{self.config.name}:{drow['dag_id']}:L{level}:{view.name}"
            )
            group = {
                "res_id": res_id,
                "site": view.name,
                "state": "pending",
                "jobs": set(chunk),
                "claimed": 0,
            }
            self._reservation_groups[res_id] = group
            for jid in chunk:
                self._job_reservations[jid] = group
            self.reservations_requested += 1
            ev = self.bus.call(
                f"/CN={self.service_name}",
                "condor-g",
                "reserve",
                res_id,
                view.name,
                start_s,
                duration_s,
                len(chunk),
            )
            ev.add_callback(
                lambda e, rid=res_id: self._reservation_ack(e, rid)
            )

    def _reservation_ack(self, ev, res_id: str) -> None:
        group = self._reservation_groups.get(res_id)
        if group is None:
            return
        if ev.ok and ev.value is True:
            group["state"] = "confirmed"
            self.reservations_confirmed += 1
            # Jobs deferred while the ack was in flight can now plan to
            # the reserved site.
            self._wakeup.set()
            return
        if not ev.ok:
            ev.defuse()
        group["state"] = "rejected"
        for jid in list(group["jobs"]):
            self._job_reservations.pop(jid, None)
        group["jobs"].clear()
        self._reservation_groups.pop(res_id, None)

    def _abandon_job_reservation(self, job_id: str, group: dict) -> None:
        """A job plans elsewhere; drop its claim on the booked window."""
        group["jobs"].discard(job_id)
        self._job_reservations.pop(job_id, None)
        if (
            not group["jobs"]
            and group["claimed"] == 0
            and group["state"] == "confirmed"
        ):
            # Nobody left to claim the window: release it at the site
            # now instead of letting it idle until expiry.
            group["state"] = "cancelled"
            self._reservation_groups.pop(group["res_id"], None)
            self.bus.call(
                f"/CN={self.service_name}",
                "condor-g",
                "cancel_reservation",
                group["res_id"],
                group["site"],
            ).add_callback(lambda e: e.defuse() if not e.ok else None)

    def _site_views(self) -> list[SiteView]:
        """The site table, current: stale rows are rebuilt first.

        The returned list is the table itself — read it, do not keep it
        across anything that plans.
        """
        stale = self._stale
        poll = self.monitoring.poll_count
        if poll != self._monitoring_poll:
            if poll == self._monitoring_poll + 1:
                # Sites that could not report kept their snapshot.
                stale.update(self._site_row.keys() & self.monitoring.refreshed)
            else:
                stale.update(self._site_row)  # polls went by unread
            self._monitoring_poll = poll
        table = self._site_table
        if stale:
            row = self._site_row
            for site in stale:
                table[row[site]] = self._site_view(site)
            stale.clear()
        return table

    def _select_views(self, sites: tuple[str, ...]) -> list[SiteView]:
        """The table rows of ``sites``, in that order."""
        table = self._site_views()
        if sites is self._catalog_sites:
            return table
        return list(map(table.__getitem__,
                        map(self._site_row.__getitem__, sites)))

    def _site_view(self, site: str) -> SiteView:
        """Build one site's row from its inputs."""
        snap = self.monitoring.snapshot(site)
        planned, unfinished = self._site_active[site]
        remote = self._remote_load
        if remote is not None:
            extra_planned, extra_running = remote(site)
            planned += extra_planned
            unfinished += extra_running
        n_cpus = self.site_catalog[site]
        avg = self.estimator.average_s(site)
        predicted = None
        if avg is not None:
            predicted = (
                self.estimator.predicted_s(
                    site, planned, n_cpus,
                    strength=self.config.prediction_correction_strength,
                )
                if self.config.use_prediction_correction
                else avg
            )
        return SiteView(
            name=site,
            n_cpus=n_cpus,
            planned_jobs=planned,
            unfinished_jobs=unfinished,
            monitored_queued=snap.queued_jobs if snap else None,
            monitored_running=snap.running_jobs if snap else None,
            avg_completion_s=avg,
            predicted_completion_s=predicted,
        )

    def site_load_snapshot(self) -> dict:
        """Compact load digest of this server (the federation export).

        Only sites with nonzero active counters appear — on a large
        catalog the digest stays proportional to live load, not to
        catalog size.  ``inflight_dags`` is the admission-side
        saturation signal a meta-scheduler spills on.
        """
        return {
            "sites": {
                site: [counters[0], counters[1]]
                for site, counters in self._site_active.items()
                if counters[0] or counters[1]
            },
            "inflight_dags": len(self.unfinished_dags()),
        }

    # ---------------------------------------------------- virtual-data recovery
    def _regenerate_lost_inputs(self, dag_id: str, missing: list) -> None:
        """Re-derive inputs whose last live replica was lost.

        The virtual-data model (Chimera) records how every file is
        produced, so a lost file is not fatal: revert its producer from
        FINISHED back to CANCELLED and let the planner re-run it.  A
        lost *external* input has no producer and cannot be re-derived;
        the job keeps retrying until a replica holder resurfaces.
        """
        dag = self._dag(dag_id)
        jobs = self.warehouse.table("jobs")
        for lfn in missing:
            producer = dag.producer_of(lfn)
            if producer is None:
                continue  # external input: nothing to re-derive from
            prow = jobs.get(producer, copy=False)
            if prow is None or prow["state"] not in _JOB_DONE_STATES:
                continue  # already re-running
            if prow["state"] == _JOB_FINISHED and prow["site"] is not None:
                # A finished job still holds its quota charge; reverting
                # it without the refund would leak usage at the site it
                # finished on, once per regeneration.  (A REMOVED
                # producer was never planned, so it holds no charge.)
                self.policy.refund(
                    self._dag_user(dag_id), prow["site"],
                    dag.job(producer).requirements,
                )
            # A REMOVED producer was skipped because its output existed
            # in the catalog at reduction time; the replica is gone now,
            # so the skipped work must actually run.
            jobs.update(
                producer,
                state=JobState.CANCELLED.value,
                last_status="regenerate",
                site=None,
                finished_at=None,
                completion_time_s=None,
                # The lost output must be re-derived from scratch; any
                # old checkpoint predates the replica that is now gone.
                checkpoint_fraction=0.0,
            )
            self.regeneration_count += 1
            self._done_changed(dag_id)

    # -------------------------------------------------------------- bookkeeping
    def _done_changed(self, dag_id: str) -> None:
        """A job of ``dag_id`` entered or left a done state: its ready
        set may have changed, so replan it from a fresh one."""
        self._dirty_dags.add(dag_id)
        self._ready.pop(dag_id, None)

    def _count_transition(self, site: str, planned: int = 0,
                          running: int = 0) -> None:
        counters = self._site_active[site]
        counters[0] = max(counters[0] + planned, 0)
        counters[1] = max(counters[1] + running, 0)
        # The view reads these counters (and the load-corrected
        # prediction reads planned); O(1) invalidation per transition.
        self._stale.add(site)

    def _release_active(self, row: dict, site: str) -> None:
        """Drop a terminal job from the per-site active counters."""
        if row["state"] == _JOB_SUBMITTED or \
                row["last_status"] == "running":
            self._count_transition(site, running=-1)
        elif row["state"] == _JOB_PLANNED:
            self._count_transition(site, planned=-1)

    def _rebuild_site_counters(self) -> None:
        """Reconstruct counters from the jobs table (recovery path)."""
        self._stale.update(self._site_row)
        for counters in self._site_active.values():
            counters[0] = counters[1] = 0
        for row in self.warehouse.table("jobs").select(
            predicate=lambda r: r["state"] in (
                _JOB_PLANNED, _JOB_SUBMITTED
            ),
            copy=False,
        ):
            site = row["site"]
            if site not in self._site_active:
                continue
            if row["last_status"] == "running":
                self._count_transition(site, running=+1)
            else:
                self._count_transition(site, planned=+1)

    def _maybe_finish_dag(self, dag_id: str) -> None:
        jobs = self.warehouse.table("jobs")
        dags = self.warehouse.table("dags")
        dag = self._dag(dag_id)
        rows_get = jobs._rows.get
        for jid in dag.job_ids:
            if rows_get(jid)["state"] not in _JOB_DONE_STATES:
                return
        drow = dags.get(dag_id, copy=False)
        if drow["state"] == _DAG_FINISHED:
            return
        dags.update(dag_id, state=_DAG_FINISHED,
                    finished_at=self.env.now)
        self._end_dag_span(dag_id)
        self._notify_dag_finished(drow["client_id"], dag_id)

    def _end_dag_span(self, dag_id: str, fully_reduced: bool = False) -> None:
        span = self._dag_spans.pop(dag_id, None)
        if span is not None:
            self.obs.tracer.end_span(span, "ok", fully_reduced=fully_reduced)

    def _notify_dag_finished(self, client_id: str, dag_id: str) -> None:
        self._send(client_id, "dag-finished", {"dag_id": dag_id})

    def _send(self, client_id: str, kind: str, payload: dict) -> None:
        self.warehouse.table("outbox").insert({
            "msg_id": f"m{next(self._msg_seq):08d}",
            "client_id": client_id,
            "kind": kind,
            "payload": payload,
        })
        self._dirty_clients[client_id] = None

    def _flush_outbox(self) -> None:
        """Push delivery: send each dirty client its drained batch.

        Called at the end of every enqueue scope (a control pass, a
        report handler), so a planning pass emitting many messages for
        one client costs a single ``deliver`` call and a single kernel
        event.  The call is fire-and-forget (the bus pre-defuses
        faults); a batch is only put on the wire for a client whose
        delivery service is on the bus, so it cannot be refused.  A
        client with no service registered keeps its rows in the outbox.
        """
        if not self._dirty_clients:
            return
        if self.config.reliable_delivery:
            self._flush_outbox_reliable()
            return
        outbox = self.warehouse.table("outbox")
        proxy = f"/CN={self.service_name}"
        for client_id in list(self._dirty_clients):
            if not self.bus.has_service(client_service_name(client_id)):
                continue
            mine = outbox.select(where={"client_id": client_id}, copy=False)
            for msg in mine:
                outbox.delete(msg["msg_id"])
            if mine:
                self.bus.call(
                    proxy,
                    client_service_name(client_id),
                    "deliver",
                    [{"kind": m["kind"], "payload": m["payload"]}
                     for m in mine],
                )
        self._dirty_clients.clear()

    def _flush_outbox_reliable(self) -> None:
        """Transactional push delivery (``config.reliable_delivery``).

        Rows stay in the outbox until the client's ``deliver`` ack
        lands; a failed or lost batch is redelivered after ``tick_s``
        and a crashed client keeps its rows until it re-registers.
        Redelivery makes the channel at-least-once — the client's
        (job_id, attempt) guard makes it effectively exactly-once.
        """
        outbox = self.warehouse.table("outbox")
        proxy = f"/CN={self.service_name}"
        keep: dict[str, None] = {}
        for client_id in list(self._dirty_clients):
            if client_id in self._delivery_inflight:
                keep[client_id] = None  # await the pending ack first
                continue
            if not self.bus.has_service(client_service_name(client_id)):
                keep[client_id] = None  # receiver down; retry later
                continue
            mine = outbox.select(where={"client_id": client_id}, copy=False)
            if not mine:
                continue
            msg_ids = [m["msg_id"] for m in mine]
            batch = [
                {"kind": m["kind"], "payload": m["payload"]} for m in mine
            ]
            self._delivery_inflight.add(client_id)
            ev = self.bus.call(
                proxy, client_service_name(client_id), "deliver", batch
            )
            ev.add_callback(
                lambda e, c=client_id, ids=msg_ids:
                    self._delivery_settled(e, c, ids)
            )
        self._dirty_clients = keep

    def _delivery_settled(self, ev, client_id: str,
                          msg_ids: list[str]) -> None:
        """Ack handler for one reliable-delivery batch."""
        self._delivery_inflight.discard(client_id)
        outbox = self.warehouse.table("outbox")
        if ev.ok:
            for mid in msg_ids:
                outbox.delete(mid)
            if outbox.select(where={"client_id": client_id}, copy=False):
                # Rows enqueued while the batch flew: flush them next pass.
                self._dirty_clients[client_id] = None
                self._wakeup.set()
            return
        ev.defuse()

        def _retry(_t, c=client_id):
            self._dirty_clients[c] = None
            self._wakeup.set()

        # Pace the redelivery by ``tick_s`` — an immediate retry
        # against a partitioned client would spin at one instant.
        self.env.timeout(self.config.tick_s).add_callback(_retry)

    def _requeue_lost_jobs(self) -> None:
        """Presumed-lost backstop (``config.presume_lost_after_s``).

        An in-flight job whose plan (or terminal report) the transport
        ate produces no further signal; after the window expires the
        server cancels it server-side and replans, exactly like a
        tracker cancellation but without a feedback penalty — the wire,
        not the site, dropped the ball.  A straggler completion racing
        the requeue is absorbed by the duplicate guard.
        """
        window = self.config.presume_lost_after_s
        now = self.env.now
        oldest = self._nearest_planned_at()
        if oldest is None or now - oldest < window:
            return  # every in-flight plan is younger than the window
        jobs = self.warehouse.table("jobs")
        for state in (_JOB_PLANNED, _JOB_SUBMITTED):
            for row in jobs.select(where={"state": state}, copy=False):
                planned_at = row["planned_at"]
                if planned_at is None or now - planned_at < window:
                    continue
                job_id, site = row["job_id"], row["site"]
                self._release_active(row, site)
                jobs.update(
                    job_id,
                    state=_JOB_CANCELLED,
                    last_status="presumed-lost",
                    site=None,
                )
                self._dirty_dags.add(row["dag_id"])
                self.resubmission_count += 1
                user = self._dag_user(row["dag_id"])
                dag = self._dag(row["dag_id"])
                self.policy.refund(user, site, dag.job(job_id).requirements)
                if self.obs.enabled:
                    self._m_resubmissions.inc()
                    self.obs.metrics.counter(
                        "server.cancellations", server=self.config.name,
                        reason="presumed-lost",
                    ).inc()
                    self._ready_since[job_id] = now
                    if self._trace:
                        span = self._job_spans.pop(job_id, None)
                        if span is not None:
                            self.obs.tracer.end_span(
                                span, "cancelled", reason="presumed-lost"
                            )

    def _dag(self, dag_id: str) -> Dag:
        dag = self._dag_cache.get(dag_id)
        if dag is None:
            row = self.warehouse.table("dags").get(dag_id)
            dag = payload_to_dag(row["payload"])
            self._dag_cache[dag_id] = dag
        return dag

    def _dag_user(self, dag_id: str) -> str:
        return self.warehouse.table("dags").get(dag_id)["user"]

    # ------------------------------------------------------------ experiment API
    def dag_completion_times(self) -> dict[str, float]:
        """dag_id -> completion seconds for every finished DAG."""
        out = {}
        for row in self.warehouse.table("dags").select(
            where={"state": _DAG_FINISHED}, copy=False
        ):
            out[row["dag_id"]] = row["finished_at"] - row["received_at"]
        return out

    def unfinished_dags(self) -> tuple[str, ...]:
        return tuple(
            r["dag_id"]
            for r in self.warehouse.table("dags").select(
                predicate=lambda r: r["state"] != _DAG_FINISHED, copy=False
            )
        )

    def jobs_per_site(self) -> dict[str, int]:
        """site -> completed-job count (Fig. 6 series)."""
        counts: dict[str, int] = {}
        for row in self.warehouse.table("jobs").select(
            where={"state": _JOB_FINISHED}, copy=False
        ):
            if row["site"] is not None:
                counts[row["site"]] = counts.get(row["site"], 0) + 1
        return counts
