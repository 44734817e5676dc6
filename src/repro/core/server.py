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
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from repro import obs as obs_mod
from repro.core.algorithms import Candidates, SiteColumns, make_algorithm
from repro.core.client import client_service_name
from repro.core.dag_reducer import DagReducer
from repro.core.feedback import ReliabilityTracker
from repro.core.policies import PolicyEngine, QuotaExceededError
from repro.core.prediction import CompletionTimeEstimator
from repro.core.serialize import payload_to_dag
from repro.core.states import (
    DAG_FINISHED, DAG_RECEIVED, DAG_REDUCED, DAG_REDUCING, DAG_RUNNING, EDGES,
    JOB_CANCELLED, JOB_FINISHED, JOB_PLANNED, JOB_REMOVED, JOB_SUBMITTED,
    JOB_UNPLANNED, move,
)
from repro.core.warehouse import Warehouse
from repro.services.monitoring import MonitoringService
from repro.services.rls import ReplicaService
from repro.services.rpc import RpcBus
from repro.sim.engine import Environment, Wakeup
from repro.workflow.dag import Dag

__all__ = ["ServerConfig", "SphinxServer", "require_non_negative",
           "require_positive"]

_JOB_DONE_STATES = (JOB_FINISHED, JOB_REMOVED)

#: per-job progress checkpoints, armed with ``migrate_on_drain``: a
#: planned job persists its fraction done every interval, paying the
#: cost in CPU-seconds per write.
_JOB_CHECKPOINT_INTERVAL_S = 60.0
_JOB_CHECKPOINT_COST_S = 1.0

#: the server's whole-run tallies and their zeros, one row each of the
#: ``tallies`` table: durable like every other write, so a recovered
#: server carries on counting where its image left off.  ServerResult
#: (experiments/runner.py) reads the first five (``preempted_work_s``:
#: CPU-seconds lost to preemption across all attempts); the chaos audit
#: reads ``regenerations``; ``stage_in_failures`` is an oracle only
#: tests/core/test_client.py and tests/core/test_server.py read.
TALLIES = {"resubmissions": 0, "timeouts": 0, "migrations": 0,
           "checkpoint_restores": 0, "preempted_work_s": 0.0,
           "regenerations": 0, "stage_in_failures": 0}


def require_positive(config, *fields: str) -> None:
    """Reject period/duration fields that are zero, negative, NaN or
    infinite.

    A zero ``tick_s`` spins the control loop at one instant, a NaN
    only surfaces deep in the kernel, and an infinite period silently
    switches off what it paces, so configs check at construction.
    """
    for name in fields:
        value = getattr(config, name)
        if not value > 0:
            raise ValueError(
                f"{type(config).__name__}.{name} must be > 0, got {value!r}"
            )
        _require_finite(config, name, value)


def require_non_negative(config, *fields: str) -> None:
    """Reject delay/amount fields that are negative, NaN or infinite
    (0 = off)."""
    for name in fields:
        value = getattr(config, name)
        if not value >= 0:
            raise ValueError(
                f"{type(config).__name__}.{name} must be >= 0, got {value!r}"
            )
        _require_finite(config, name, value)


def _require_finite(config, name: str, value) -> None:
    if value == math.inf:
        raise ValueError(
            f"{type(config).__name__}.{name} must be finite, got {value!r}"
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
    #: deadline, before redelivering a faulted outbox batch, and while
    #: a client with outbox rows is off the bus.
    tick_s: float = 5.0
    #: client-side job timeout before cancellation + replan.
    job_timeout_s: float = 1800.0
    #: planned-load correction in completion-time prediction (see
    #: repro.core.prediction); ablation knob.
    use_prediction_correction: bool = True
    #: "ewma" tracks the near-future environment (default); "mean" is
    #: eq. 3 read literally; ablation knob.
    estimator_mode: str = "ewma"
    #: presume a PLANNED/SUBMITTED job lost (cancel + replan) after this
    #: many seconds without a report.  The server-side liveness backstop
    #: for plans or terminal reports dropped by a faulty transport or a
    #: crashed client.  ``inf`` (default) never presumes a job lost.
    presume_lost_after_s: float = math.inf
    #: eviction tolerance, one switch: every planned job checkpoints
    #: its progress (every ``_JOB_CHECKPOINT_INTERVAL_S``, at
    #: ``_JOB_CHECKPOINT_COST_S`` CPU-seconds per write), so a killed
    #: attempt resumes from its last checkpoint rather than zero; and a
    #: spot-eviction notice (:meth:`SphinxServer.drain_notice`) evicts
    #: the site's in-flight jobs so they replan onto a live site inside
    #: the notice window instead of losing the work at the reclaim
    #: instant.  Off by default (kill-and-resubmit); a chaos plan's
    #: eviction axis arms it for specs that left it unset.
    migrate_on_drain: bool = False

    def __post_init__(self) -> None:
        require_positive(self, "tick_s", "job_timeout_s")
        # inf is this field's "never", so it is the one period that may
        # be infinite
        if not self.presume_lost_after_s > 0:
            raise ValueError(
                "ServerConfig.presume_lost_after_s must be > 0, "
                f"got {self.presume_lost_after_s!r}"
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
        m.reading("server.resubmissions",
                  lambda: self.tally("resubmissions"), server=config.name)
        m.reading("server.timeouts", lambda: self.tally("timeouts"),
                  server=config.name)
        self._m_passes = m.counter("server.control_passes",
                                   server=config.name)
        m.reading("server.migrations", lambda: self.tally("migrations"),
                  server=config.name)
        m.reading("job.checkpoint_restores",
                  lambda: self.tally("checkpoint_restores"),
                  server=config.name)
        self._m_preemption_loss = m.histogram("server.preemption_loss_s",
                                              server=config.name)
        #: table -> (old, new) -> the edge's counter (see :meth:`_move`)
        self._m_transitions = {
            table: {
                (old, new): m.counter("server.transitions",
                                      server=config.name, table=table,
                                      edge=f"{old}→{new}")
                for old, targets in edges.items() for new in sorted(targets)
            }
            for table, edges in EDGES.items()
        }

        self.warehouse = warehouse if warehouse is not None else Warehouse()
        self.init_tables(self.warehouse)
        self._tallies = self.warehouse.table("tallies")
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
        #: deadline re-budgeting).
        self._depth_cache: dict[str, dict[str, int]] = {}

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
        #: the catalog, immutable for the server's lifetime: the pool the
        #: policy's headroom sets are kept over (by identity)
        self._catalog_sites: tuple[str, ...] = tuple(self.site_catalog)
        #: the site table: numpy columns, one row per catalog site, read
        #: only through :meth:`_site_columns`, which first rewrites the
        #: rows named in ``_stale``.  A row goes stale where one of its
        #: inputs changes (every ``_stale.add`` / ``_stale.update``) or
        #: when a monitoring poll replaces its snapshot
        #: (``_monitoring_poll`` is the last poll folded in); every row
        #: starts stale, which covers recovery.
        self._site_row = {s: i for i, s in enumerate(self._catalog_sites)}
        self._site_table = SiteColumns(self._catalog_sites,
                                       list(self.site_catalog.values()))
        self._stale: set[str] = set(self._site_row)
        #: the feasibility mask of a plan that nothing filters
        self._all_rows = np.ones(len(self._site_row), dtype=bool)
        self._all_rows.flags.writeable = False
        self._monitoring_poll = monitoring.poll_count
        #: federation seam: a callable ``site -> (planned, running)``
        #: merged into every row's load counters (peer-shard load from
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
                predicate=lambda r: r["state"] != DAG_FINISHED, copy=False
            )
        }
        #: dag_id -> the ready tuple its last pass computed, kept while
        #: the dag stays dirty with a ready job unplanned.  Its only input
        #: is which jobs are done, so every write that moves a job into
        #: or out of ``_JOB_DONE_STATES`` drops it (``_done_changed``).
        #: Starts empty, which covers recovery.
        self._ready: dict[str, tuple[str, ...]] = {}

        #: site -> published eviction deadline while it drains (kept
        #: through the reclaim outage; cleared when the site is back).
        #: The planner skips these sites; deliberately in-memory — a
        #: recovered server re-learns live drains from fresh notices,
        #: and ``presume_lost_after_s`` backstops what it missed.
        self._draining: dict[str, float] = {}
        #: False at the rows of ``_draining``
        self._drain_free = np.ones(len(self._site_row), dtype=bool)

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
        #: msg_ids of outbox rows in a ``deliver`` batch awaiting its ack.
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
        if "tallies" not in w:
            # An image from before the table recovers to zeros.
            tallies = w.create_table("tallies", ("name", "value"), key="name")
            for name, zero in TALLIES.items():
                tallies.insert({"name": name, "value": zero})
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
            "state": DAG_RECEIVED,
            "received_at": self.env.now,
            "finished_at": None,
            "payload": dag_payload,
        })
        jobs = self.warehouse.table("jobs")
        for jid in dag.job_ids:
            jobs.insert({
                "job_id": jid,
                "dag_id": dag.dag_id,
                "state": JOB_UNPLANNED,
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
        attempt: int,
        status: str,
        site: str,
        completion_time_s: Optional[float] = None,
        reason: Optional[str] = None,
        missing: Optional[list] = None,
        checkpointed_fraction: float = 0.0,
        lost_work_s: float = 0.0,
    ) -> str:
        """Tracker report ingestion (feedback + prediction + automaton).

        A report names its placement, ``(job_id, attempt)``.  A running
        or cancelled report from an attempt the job has been replanned
        past is ``"stale"`` and writes nothing; the first completion of
        any attempt wins (DESIGN.md §5c).
        """
        jobs = self.warehouse.table("jobs")
        row = jobs.get(job_id, copy=False)
        if row is None:
            raise KeyError(f"unknown job {job_id!r}")
        if status == "completed":
            if row["state"] == JOB_FINISHED:
                return "duplicate"
            # Completed work is kept, whichever attempt did it: the row
            # keeps the live attempt's site and quota charge, so the
            # ledger stays conserved and a regeneration refunds it once.
            self._release_active(row)
            self._move(
                jobs, row, JOB_FINISHED,
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
        elif status not in ("running", "cancelled"):
            raise ValueError(f"unknown status {status!r}")
        elif attempt != row["attempts"]:
            return "stale"
        elif status == "running":
            if row["state"] == JOB_PLANNED:
                self._move(jobs, row, JOB_SUBMITTED, last_status="running")
                self._count_transition(site, planned=-1, running=+1)
                if self._trace:
                    span = self._job_spans.get(job_id)
                    if span is not None:
                        self.obs.tracer.add_event(span, "running", site=site)
        else:
            if row["state"] in (JOB_FINISHED, JOB_CANCELLED):
                return "duplicate"
            changes = {}
            if checkpointed_fraction > 0.0:
                # The attempt's fraction is relative to its (already
                # reduced) runtime; fold it into the overall fraction so
                # progress across attempts only ever grows.
                prev = row["checkpoint_fraction"]
                changes["checkpoint_fraction"] = min(
                    1.0, prev + (1.0 - prev) * checkpointed_fraction
                )
            self._requeue_job(row, reason or "cancelled", **changes)
            if lost_work_s > 0.0:
                self._count("preempted_work_s", lost_work_s)
                if self.obs.enabled:
                    self._m_preemption_loss.observe(lost_work_s)
            if reason == "stage-in":
                # A missing *source* replica is not the execution site's
                # fault; penalizing it would poison the reliability pool.
                self._count("stage_in_failures")
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
            if reason == "timeout":
                self._count("timeouts")
            # Slot released, quota refunded, feedback updated: replan now.
            self._wakeup.set()
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
        if self._dirty_dags or self._dirty_clients:
            # Dirty dags retry on quota/feedback drift; kept-dirty
            # clients (receiver off the bus) retry their delivery.
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
                for state in (JOB_PLANNED, JOB_SUBMITTED)
                for row in jobs.select(where={"state": state}, copy=False)
                if row["planned_at"] is not None
            ))
        rows_get = jobs._rows.get
        nearest = None
        while plans:
            planned_at, job_id = plans[0]
            row = rows_get(job_id)
            if (row is not None and row["planned_at"] == planned_at
                    and row["state"] in (JOB_PLANNED, JOB_SUBMITTED)):
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
        crashed incarnation's pending callbacks (delivery acks, lease
        credits) still hold the live
        warehouse and may write to it after the crash.
        """
        return self.warehouse.snapshot()

    # --------------------------------------------------------------- DAG reducer
    def _reduce_new_dags(self) -> None:
        dags = self.warehouse.table("dags")
        jobs = self.warehouse.table("jobs")
        for row in dags.select(where={"state": DAG_RECEIVED}, copy=False):
            dag_id = row["dag_id"]
            self._move(dags, row, DAG_REDUCING)
            dag = self._dag(dag_id)
            removable = self.reducer.removable_jobs(dag)
            for jid in removable:
                self._move(jobs, jobs.get(jid, copy=False), JOB_REMOVED,
                           finished_at=self.env.now)
            if self._trace and removable:
                span = self._dag_spans.get(dag_id)
                if span is not None:
                    self.obs.tracer.add_event(span, "reduced",
                                              removed_jobs=len(removable))
            if len(removable) == len(dag):
                self._move(dags, row, DAG_FINISHED, finished_at=self.env.now)
                self._end_dag_span(dag_id, fully_reduced=True)
                self._notify_dag_finished(row["client_id"], dag_id)
            else:
                self._move(dags, row, DAG_REDUCED)
                self._move(dags, row, DAG_RUNNING)
                self._done_changed(dag_id)

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
            if drow is not None and drow["state"] == DAG_RUNNING:
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
                if jrow["state"] not in (JOB_UNPLANNED, JOB_CANCELLED):
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
        job_class = None
        if not self.algorithm.wants_context:
            job_class = (user, tuple(job.requirements.items()))
            if job_class in declined:
                self._plan_deferred(drow, job.job_id, "no-site-chosen")
                return False
        # One feasibility mask over the site table: eq. 4's quota, the
        # drain filter, the feedback filter.  Each clears only the rows
        # it excludes, and a plan nothing filters shares ``_all_rows``.
        mask = self._without(
            self._all_rows,
            self.policy.short_sites(user, job.requirements,
                                    self._catalog_sites),
        )
        if self._draining:
            # Never place new work on a site that published an eviction
            # notice (it would be killed at the reclaim instant); if
            # *every* feasible site is draining, wait a tick rather than
            # knowingly burn the work.
            mask = mask & self._drain_free
            if not np.count_nonzero(mask):
                declined.clear()
                self._plan_deferred(drow, job.job_id, "draining")
                return False
        feedback_dropped: list[str] = []
        if self.config.use_feedback:
            feasible = mask
            mask = self._without(mask, self.feedback.unreliable_sites())
            if self._trace and mask is not feasible:
                feedback_dropped = [self._catalog_sites[i] for i in
                                    np.flatnonzero(feasible & ~mask)]
        if not np.count_nonzero(mask):
            declined.clear()
            self._plan_deferred(drow, job.job_id, "no-feasible-site")
            return False  # nothing feasible now; retry next tick
        pool = Candidates(self._site_columns(), mask)
        # Scored before the choice can move a rotation cursor.
        scores = self.algorithm.score(pool) if self._trace else None
        if self.algorithm.wants_context:
            site = self.algorithm.choose_site_ctx(
                job.job_id, pool, self._plan_context(drow, dag, job.job_id)
            )
        else:
            site = self.algorithm.choose_site(job.job_id, pool)
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
        # jrow is the live row: read it before the move mutates it.
        attempt = jrow["attempts"] + 1
        fraction = jrow["checkpoint_fraction"]
        runtime_s = job.runtime_s
        if fraction > 0.0:
            # Resume from the last persisted checkpoint: the attempt
            # only has to run the unfinished remainder.
            runtime_s = job.runtime_s * (1.0 - fraction)
            self._count("checkpoint_restores")
        self._move(
            self.warehouse.table("jobs"), jrow, JOB_PLANNED,
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
                        self._catalog_sites[i]:
                            None if np.isnan(scores[i]) else float(scores[i])
                        for i in pool.mask.nonzero()[0]
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
            # Plan origin: under a federation the client must report
            # this job to the shard that planned it, not to whatever
            # front door admitted the DAG.
            "server": self.service_name,
        }
        if self.config.migrate_on_drain:
            plan_payload["checkpoint_interval_s"] = _JOB_CHECKPOINT_INTERVAL_S
            plan_payload["checkpoint_cost_s"] = _JOB_CHECKPOINT_COST_S
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
        self._drain_free[self._site_row[site]] = False
        if self.config.migrate_on_drain and not already:
            self._migrate_off(site, self._draining[site])
        self._wakeup.set()

    def drain_cleared(self, site: str) -> None:
        """The drained site's capacity is back; it may be planned again."""
        if self._draining.pop(site, None) is not None:
            self._drain_free[self._site_row[site]] = True
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
        for state in (JOB_PLANNED, JOB_SUBMITTED):
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
                    if state == JOB_SUBMITTED and row["planned_at"] is not None
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
            self._count("migrations", moved)
        self._flush_outbox()

    # ---------------------------------------------------------------- DAG context
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

    def _site_columns(self) -> SiteColumns:
        """The site table, current: stale rows are rewritten first.

        The columns are the table itself — read them, do not keep them
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
        if stale:
            for site in stale:
                self._refresh_row(site)
            stale.clear()
        return self._site_table

    def _refresh_row(self, site: str) -> None:
        """Rewrite one site's row from its inputs."""
        snap = self.monitoring.snapshot(site)
        planned, unfinished = self._site_active[site]
        remote = self._remote_load
        if remote is not None:
            extra_planned, extra_running = remote(site)
            planned += extra_planned
            unfinished += extra_running
        n_cpus = self.site_catalog[site]
        avg = self.estimator.average_s(site)
        predicted = avg
        if avg is not None and self.config.use_prediction_correction:
            predicted = self.estimator.predicted_s(site, planned, n_cpus)
        cols, i = self._site_table, self._site_row[site]
        cols.planned[i] = planned
        cols.unfinished[i] = unfinished
        cols.queued[i] = snap.queued_jobs if snap else np.nan
        cols.running[i] = snap.running_jobs if snap else np.nan
        cols.avg[i] = np.nan if avg is None else avg
        cols.predicted[i] = np.nan if predicted is None else predicted

    def _without(self, mask: np.ndarray, sites) -> np.ndarray:
        """``mask`` with the rows of ``sites`` cleared: ``mask`` itself
        when none of them is in it, else a new array."""
        row = self._site_row
        rows = [row[s] for s in sites if s in row]
        if not rows or not np.count_nonzero(mask[rows]):
            return mask
        mask = mask.copy()
        mask[rows] = False
        return mask

    def site_load_snapshot(self) -> dict:
        """Compact load digest of this server (the federation export).

        Only sites with nonzero active counters appear — on a large
        catalog the digest stays proportional to live load, not to
        catalog size.  ``inflight_dags`` is the load a meta-scheduler
        weighs when it re-homes a DAG off a dead shard.
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
            if prow["state"] == JOB_FINISHED and prow["site"] is not None:
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
            self._move(
                jobs, prow, JOB_CANCELLED,
                last_status="regenerate",
                site=None,
                finished_at=None,
                completion_time_s=None,
                # The lost output must be re-derived from scratch; any
                # old checkpoint predates the replica that is now gone.
                checkpoint_fraction=0.0,
            )
            self._count("regenerations")
            self._done_changed(dag_id)

    # -------------------------------------------------------------- bookkeeping
    def tally(self, name: str):
        """The whole-run tally ``name`` (one of :data:`TALLIES`)."""
        return self._tallies.get(name, copy=False)["value"]

    def _count(self, name: str, n=1) -> None:
        self._tallies.update(name, value=self.tally(name) + n)

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

    def _release_active(self, row: dict) -> None:
        """Drop an in-flight job from its site's active counters."""
        if row["state"] == JOB_SUBMITTED:
            self._count_transition(row["site"], running=-1)
        elif row["state"] == JOB_PLANNED:
            self._count_transition(row["site"], planned=-1)

    def _move(self, table, row: dict, new: str, **changes) -> None:
        """Every server state write: the automaton's edge check, the
        write, and the edge's transition counter."""
        old = move(table, row, new, self.env.now, **changes)
        self._m_transitions[table.name][old, new].inc()

    def _rebuild_site_counters(self) -> None:
        """Reconstruct counters from the jobs table (recovery path)."""
        self._stale.update(self._site_row)
        for counters in self._site_active.values():
            counters[0] = counters[1] = 0
        for row in self.warehouse.table("jobs").select(
            predicate=lambda r: r["state"] in (
                JOB_PLANNED, JOB_SUBMITTED
            ),
            copy=False,
        ):
            site = row["site"]
            if site not in self._site_active:
                continue
            if row["state"] == JOB_SUBMITTED:
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
        if drow["state"] == DAG_FINISHED:
            return
        self._move(dags, drow, DAG_FINISHED, finished_at=self.env.now)
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
        """Transactional push delivery: send each dirty client its rows.

        Called at the end of every enqueue scope (a control pass, a
        report handler), so a planning pass emitting many messages for
        one client costs a single ``deliver`` call.  Rows stay in the
        outbox until the batch's ack lands; a batch only carries rows
        not already in flight, and a faulted batch is redelivered after
        ``tick_s``.  A client whose delivery service is off the bus
        stays dirty and keeps its rows until it re-registers.
        Redelivery makes the channel at-least-once — the client's
        (job_id, attempt) guard makes it effectively exactly-once.
        """
        if not self._dirty_clients:
            return
        outbox = self.warehouse.table("outbox")
        inflight = self._delivery_inflight
        proxy = f"/CN={self.service_name}"
        keep: dict[str, None] = {}
        for client_id in self._dirty_clients:
            service = client_service_name(client_id)
            if not self.bus.has_service(service):
                keep[client_id] = None  # receiver down; retry later
                continue
            mine = [m for m in outbox.select(where={"client_id": client_id},
                                             copy=False)
                    if m["msg_id"] not in inflight]
            if not mine:
                continue
            msg_ids = [m["msg_id"] for m in mine]
            inflight.update(msg_ids)
            ev = self.bus.call(proxy, service, "deliver", [
                {"kind": m["kind"], "payload": m["payload"]} for m in mine
            ])
            ev.add_callback(
                lambda e, c=client_id, ids=msg_ids:
                    self._delivery_settled(e, c, ids)
            )
        self._dirty_clients = keep

    def _delivery_settled(self, ev, client_id: str,
                          msg_ids: list[str]) -> None:
        """Ack handler for one ``deliver`` batch: delete exactly its rows."""
        self._delivery_inflight.difference_update(msg_ids)
        if ev.ok:
            outbox = self.warehouse.table("outbox")
            for mid in msg_ids:
                outbox.delete(mid)
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
        not the site, dropped the ball.  A straggler report from the
        requeued attempt is stale, except a completion: that work is
        kept (the first completion wins).
        """
        window = self.config.presume_lost_after_s
        now = self.env.now
        oldest = self._nearest_planned_at()
        if oldest is None or now - oldest < window:
            return  # every in-flight plan is younger than the window
        for state in (JOB_PLANNED, JOB_SUBMITTED):
            for row in self.warehouse.table("jobs").select(
                where={"state": state}, copy=False
            ):
                planned_at = row["planned_at"]
                if planned_at is not None and now - planned_at >= window:
                    self._requeue_job(row, "presumed-lost")

    def _requeue_job(self, row: dict, reason: str, **changes) -> None:
        """Hand an in-flight job back to the planner.

        The one requeue path, shared by cancelled reports and the
        presumed-lost backstop: the site's slot and the quota charge
        come back, the job moves to CANCELLED with ``changes``, and its
        dag replans.  Feedback is the caller's call.
        """
        job_id, site, dag_id = row["job_id"], row["site"], row["dag_id"]
        self._release_active(row)
        self._move(self.warehouse.table("jobs"), row, JOB_CANCELLED,
                   last_status=reason, site=None, **changes)
        self._dirty_dags.add(dag_id)
        self._count("resubmissions")
        self.policy.refund(self._dag_user(dag_id), site,
                           self._dag(dag_id).job(job_id).requirements)
        if self.obs.enabled:
            self.obs.metrics.counter(
                "server.cancellations", server=self.config.name,
                reason=reason,
            ).inc()
            self._ready_since[job_id] = self.env.now
            if self._trace:
                span = self._job_spans.pop(job_id, None)
                if span is not None:
                    self.obs.tracer.end_span(span, "cancelled",
                                             reason=reason)

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
            where={"state": DAG_FINISHED}, copy=False
        ):
            out[row["dag_id"]] = row["finished_at"] - row["received_at"]
        return out

    def unfinished_dags(self) -> tuple[str, ...]:
        return tuple(
            r["dag_id"]
            for r in self.warehouse.table("dags").select(
                predicate=lambda r: r["state"] != DAG_FINISHED, copy=False
            )
        )

    def jobs_per_site(self) -> dict[str, int]:
        """site -> completed-job count (Fig. 6 series)."""
        counts: dict[str, int] = {}
        for row in self.warehouse.table("jobs").select(
            where={"state": JOB_FINISHED}, copy=False
        ):
            if row["site"] is not None:
                counts[row["site"]] = counts.get(row["site"], 0) + 1
        return counts
