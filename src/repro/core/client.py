"""The SPHINX client — the lightweight scheduling agent (paper §3.3).

The client:

1. receives an abstract DAG from the user (here: from the workflow
   package) and forwards it to the server with client information;
2. receives planning decisions from the server's message-handling
   module by push delivery: the client registers a tiny ``deliver``
   RPC service and the server sends each batch of outbox rows straight
   to it (a row lives until this call's ack), so an idle client
   schedules zero kernel events and a busy one costs one RPC per batch;
3. executes each plan: stages missing input files to the execution
   site via GridFTP, creates the submission and hands it to Condor-G;
4. runs the **job tracker** on every submission, reporting completions
   (with timing) and cancellations (with reason) back to the server,
   and requesting replanning simply by reporting — a cancelled job
   goes back to the server's planner.  Every report names its
   ``(job_id, attempt)``, so the server can tell a superseded
   attempt's report from the live one's;
5. on completion, materializes the job's output files at the execution
   site and registers them in the RLS, which is what makes downstream
   jobs ready and future DAG reductions possible.

Reports that matter retry while the server is unreachable (recovery
window) with capped jittered exponential backoff; a retry also fires
the instant the server re-registers on the bus.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.core.serialize import dag_to_payload
from repro.core.tracker import JobTracker
from repro.services.condorg import CondorG
from repro.services.gridftp import GridFtpService, TransferError
from repro.services.rls import ReplicaService
from repro.services.rpc import RpcBus, RpcFault
from repro.sim.engine import Environment, Interrupt
from repro.simgrid.local_scheduler import SiteJob, SiteJobStatus
from repro.simgrid.vo import User
from repro.workflow.dag import Dag

__all__ = ["SphinxClient", "client_service_name"]


def client_service_name(client_id: str) -> str:
    """The bus service a client listens on (shared naming
    convention — the server derives it from the client id alone)."""
    return f"sphinx-client-{client_id}"


class SphinxClient:
    """One scheduling agent bound to one server and one user."""

    #: base and ceiling of the exponential report-retry backoff
    #: (seconds).
    RETRY_BASE_S = 2.0
    RETRY_CAP_S = 60.0

    def __init__(
        self,
        env: Environment,
        bus: RpcBus,
        server_service: str,
        condorg: CondorG,
        gridftp: GridFtpService,
        rls: ReplicaService,
        user: User,
        client_id: str,
        rng=None,
        obs=None,
    ):
        self.env = env
        self.bus = bus
        self.server_service = server_service
        self.condorg = condorg
        self.gridftp = gridftp
        self.rls = rls
        self.user = user
        self.client_id = client_id
        #: numpy Generator for retry jitter (None = no jitter); the
        #: runner hands each client its own named stream so backoff is
        #: deterministic per seed and independent across clients.
        self._rng = rng
        self.tracker = JobTracker(env, condorg, obs=obs)

        #: dag_id -> (submitted_at, finished_at or None), measured here
        self.dag_times: dict[str, list[Optional[float]]] = {}
        #: how many of them have a finish instant
        self.finished_dag_count = 0
        self._grid_ids = itertools.count()
        self.submitted_dags = 0
        #: (job_id, attempt) pairs whose plan is already executing —
        #: the duplicate guard for at-least-once delivery (a redelivered
        #: outbox batch or a duplicated ``deliver`` call must not start
        #: a second execution of the same attempt).
        self._seen_plans: set[tuple[str, int]] = set()
        #: (job_id, attempt) -> its live plan-execution process, in
        #: start order; a process removes itself as it ends.  crash()
        #: kills the survivors so an interrupted client abandons its
        #: in-flight work.
        self._inflight: dict[tuple[str, int], object] = {}
        #: job_id -> attempt currently executing, and job_id -> the
        #: grid job Condor-G returned once that attempt is submitted —
        #: the lookup an "evict" message (server-driven migration off a
        #: draining site) uses to kill the right attempt.
        self._live_attempts: dict[str, int] = {}
        self._live_jobs: dict[str, SiteJob] = {}
        #: (job_id, attempt) pairs evicted before their submission went
        #: out; the plan execution cancels itself instead of submitting.
        self._evict_requested: set[tuple[str, int]] = set()
        #: True between crash() and restart(); silences this client's
        #: grid-job watchers (a dead client reports nothing).
        self.crashed = False
        #: settles (with the sim time) the moment the last submitted DAG
        #: is reported finished — what the runner waits on, so runs end
        #: at the true completion instant.
        self.done = env.event()
        bus.register(client_service_name(client_id), "deliver",
                     self._rpc_deliver)

    # -- user-facing API --------------------------------------------------------
    def submit_dag(self, dag: Dag):
        """A generator: sends the DAG to the server, resolves on ack.

        At-least-once: retries while the server is unreachable (with the
        same backoff/reconnect discipline as tracker reports).  A
        "duplicate dag" fault means an earlier attempt's *reply* was
        lost — the server already has the DAG, so it counts as an ack.
        """
        payload = dag_to_payload(dag)
        old = self.dag_times.get(dag.dag_id)
        if old is not None and old[1] is not None:
            self.finished_dag_count -= 1  # a finished id starts over
        self.dag_times[dag.dag_id] = [self.env.now, None]
        attempt = 0
        while True:
            try:
                ack = yield self.bus.call(
                    self.user.proxy,
                    self.server_service,
                    "submit_dag",
                    self.client_id,
                    self.user.proxy,
                    payload,
                    self.user.priority,
                )
                break
            except RpcFault as fault:
                text = str(fault)
                if "duplicate dag" in text:
                    ack = "accepted"
                    break
                if "unknown service" not in text:
                    raise
                yield from self.bus.await_service(
                    self.server_service, self._retry_delay(attempt))
                attempt += 1
        self.submitted_dags += 1
        return ack

    def stage_external_inputs(self, dag: Dag, home_site) -> None:
        """Materialize a DAG's pre-existing inputs at a home site.

        The experiments call this before submission so external files
        have live replicas the planner/GridFTP can find.
        """
        for f in dag.external_inputs:
            home_site.store_file(f.lfn, f.size_mb)
            self.rls.register_replica(f.lfn, home_site.name, f.size_mb)

    def all_dags_finished(self) -> bool:
        return self.submitted_dags > 0 and (
            self.finished_dag_count == len(self.dag_times)
        )

    # -- message pump -------------------------------------------------------------
    def _rpc_deliver(self, messages: list) -> str:
        """The server hands us a batch of its outbox rows.

        Delivery is at-least-once end to end: the server deletes a row
        only when this call's ack lands and redelivers a faulted batch,
        and a server that crashes first leaves the rows in its warehouse
        outbox, which the recovered server re-delivers.
        """
        self._dispatch(messages)
        return "ok"

    def _dispatch(self, messages: list) -> None:
        """Act on one batch of server messages.

        Idempotent, because delivery is at-least-once: a plan already
        executing (same job_id + attempt) is not started twice, and a
        repeated dag-finished keeps the *first* finish instant.
        """
        for msg in messages:
            if msg["kind"] == "plan":
                payload = msg["payload"]
                key = (payload["job_id"], payload["attempt"])
                if key in self._seen_plans:
                    continue  # redelivered batch / duplicated call
                self._seen_plans.add(key)
                # The body runs to its first wait right here; one that
                # already ended has left nothing to track.
                proc = self.env.process(self._execute_plan(payload))
                if proc.is_alive:
                    self._inflight[key] = proc
            elif msg["kind"] == "evict":
                payload = msg["payload"]
                self._evict(payload["job_id"], payload["attempt"])
            elif msg["kind"] == "dag-finished":
                times = self.dag_times.get(msg["payload"]["dag_id"])
                if times is not None and times[1] is None:
                    times[1] = self.env.now
                    self.finished_dag_count += 1
        if messages and not self.done.triggered and self.all_dags_finished():
            self.done.succeed(self.env.now)

    def _evict(self, job_id: str, attempt: int) -> None:
        """Server-driven migration: kill the named attempt's grid job.

        The site-side kill records checkpoint progress before the KILLED
        transition fires, the tracker resolves, and the ordinary
        cancelled report carries the preserved fraction back — the
        server replans the job onto a live site from there.  An attempt
        whose submission has not gone out yet (inputs still staging) is
        marked instead and cancels itself before submitting.
        """
        if self._live_attempts.get(job_id) != attempt:
            return  # stale notice for a finished or superseded attempt
        job = self._live_jobs.get(job_id)
        if job is None:
            self._evict_requested.add((job_id, attempt))
        elif not job.status.terminal:
            self.condorg.cancel(job.job_id)

    # -- crash drills ------------------------------------------------------------
    def crash(self) -> None:
        """Simulate a client crash: leave the bus, abandon all work.

        In-flight plan executions are interrupted mid-generator (their
        condor jobs keep running at the sites — a dead agent cannot
        cancel anything) and the duplicate-guard memory is wiped, as a
        real process death would.  Measurement state (``dag_times``,
        ``done``) survives on this object: it is the experiment's
        notebook, not the crashed process's memory.
        """
        if self.crashed:
            return
        self.crashed = True
        self.bus.unregister_service(client_service_name(self.client_id))
        for proc in self._inflight.values():
            proc.interrupt("client-crash")
        self._inflight.clear()
        self._seen_plans.clear()
        self._live_attempts.clear()
        self._live_jobs.clear()
        self._evict_requested.clear()

    def restart(self) -> None:
        """Bring a crashed client back under the same identity.

        Re-registers the delivery service; the server, which kept our
        outbox rows while we were off the bus, redelivers them within
        ``tick_s``.
        Abandoned attempts are *not* resumed — the server's
        presumed-lost requeue owns those.
        """
        if not self.crashed:
            return
        self.crashed = False
        self.bus.register(client_service_name(self.client_id),
                          "deliver", self._rpc_deliver)

    # -- plan execution --------------------------------------------------------------
    def _execute_plan(self, plan: dict):
        job_id = plan["job_id"]
        attempt = plan["attempt"]
        self._live_attempts[job_id] = attempt
        try:
            yield from self._run_plan(plan)
        except Interrupt:
            pass  # crash(): this attempt is abandoned where it stood
        finally:
            # A newer attempt may already have claimed the slots (its
            # plan can land while our last report is on the wire); only
            # the attempt that owns an entry may retire it.
            if self._live_attempts.get(job_id) == attempt:
                del self._live_attempts[job_id]
                self._live_jobs.pop(job_id, None)
            self._evict_requested.discard((job_id, attempt))
            self._inflight.pop((job_id, attempt), None)

    def _run_plan(self, plan: dict):
        job_id = plan["job_id"]
        site = plan["site"]
        started_at = self.env.now

        # 1. Stage missing inputs (planner step 3: optimal source chosen
        #    per file inside stage_in).  Transient source outages are
        #    retried with a backoff before giving the job back to the
        #    planner — replanning cannot fix a missing source replica,
        #    so bouncing plans at tick rate would only thrash.
        staged = yield from self._stage_inputs(plan["inputs"], site)
        if not staged:
            # Tell the server which inputs have no live replica at all:
            # the virtual-data model lets it re-derive them by
            # re-running their producer jobs.
            missing = [
                f["lfn"] for f in plan["inputs"]
                if not self.gridftp.has_live_replica(f["lfn"])
            ]
            yield from self._report_reliably(
                plan, "cancelled", reason="stage-in", missing=missing,
            )
            return

        # 2. Submit through Condor-G.  Grid ids are attempt-unique.
        if (job_id, plan["attempt"]) in self._evict_requested:
            # The server evicted this attempt while inputs were staging;
            # hand it straight back for replanning instead of submitting
            # to a site that is about to drain.
            yield from self._report_reliably(plan, "cancelled",
                                             reason="evicted")
            return
        grid_id = f"{self.client_id}.{next(self._grid_ids)}.{job_id}"
        job = self.condorg.submit(
            grid_id,
            site,
            runtime_s=plan["runtime_s"],
            owner=self.user.proxy,
            checkpoint_interval_s=plan.get("checkpoint_interval_s", 0.0),
            checkpoint_cost_s=plan.get("checkpoint_cost_s", 0.0),
        )
        self._live_jobs[job_id] = job
        # Relay the RUNNING transition to the server (fire-and-forget);
        # eq. 1's "unfinished_jobs" counter is fed by these reports.
        job.on_status_change(
            lambda _j, _old, new: (
                self._report(plan, "running")
                if new is SiteJobStatus.RUNNING and not self.crashed
                else None
            )
        )

        # 3. Track to a terminal state or timeout, inline: a Process
        # wrapper would only add a settle event per attempt.
        reason = yield from self.tracker.track(
            job, plan["timeout_s"], started_at
        )

        if reason is None:
            completion_time_s = self.env.now - started_at
            # 4. Outputs materialize at the execution site.
            exec_site = self.gridftp.grid.site(site)
            for f in plan["outputs"]:
                exec_site.store_file(f["lfn"], f["size_mb"])
                self.rls.register_replica(f["lfn"], site, f["size_mb"])
            yield from self._report_reliably(
                plan, "completed", completion_time_s=completion_time_s,
            )
        else:
            yield from self._report_reliably(
                plan, "cancelled", reason=reason,
                checkpointed_fraction=job.checkpointed_fraction,
                lost_work_s=job.lost_work_s,
            )

    def _stage_inputs(self, inputs: list, site: str,
                      attempts: int = 3, backoff_s: float = 120.0):
        """Stage every input to ``site``; True on success.

        Completed files stay staged across retries (stage_in is a no-op
        for files already local), so only the stuck transfer repeats.
        """
        for attempt in range(attempts):
            try:
                for f in inputs:
                    yield from self.gridftp.stage_in(
                        f["lfn"], site, self.user.proxy
                    )
                return True
            except TransferError:
                if attempt + 1 < attempts:
                    yield self.env.timeout(backoff_s)
        return False

    def _report(self, plan: dict, status: str,
                completion_time_s: Optional[float] = None,
                reason: Optional[str] = None,
                missing: Optional[list] = None,
                checkpointed_fraction: float = 0.0,
                lost_work_s: float = 0.0):
        """One fire-and-forget tracker report on ``plan``'s attempt
        (faults are defused).

        It goes to the plan's origin: under a federation the shard that
        planned the job owns its state, which may not be the meta
        service this client submits DAGs to.
        """
        return self.bus.call(
            self.user.proxy,
            plan["server"],
            "report_status",
            plan["job_id"],
            plan["attempt"],
            status,
            plan["site"],
            completion_time_s,
            reason,
            missing,
            checkpointed_fraction,
            lost_work_s,
        )

    def _report_reliably(self, plan: dict, status: str, **details):
        """At-least-once report: retries while the server is unreachable.

        A server being restarted (recovery) answers again under the same
        service name; non-transient faults (e.g. the restored server does
        not know this job) are given up on — the server's replanning path
        owns those.

        Retry pacing is capped jittered exponential backoff (base
        :attr:`RETRY_BASE_S`, cap :attr:`RETRY_CAP_S`): a fleet of
        trackers whose jobs all finished inside one server fault window
        must not hammer the recovering server in lockstep every
        :attr:`RETRY_BASE_S`.  A retry
        additionally fires the instant the service re-registers on the
        bus, whichever comes first.
        """
        retry = 0
        while True:
            try:
                return (yield self._report(plan, status, **details))
            except RpcFault as fault:
                if "unknown service" not in str(fault):
                    return None
                yield from self.bus.await_service(
                    plan["server"], self._retry_delay(retry))
                retry += 1

    def _retry_delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based), jittered."""
        base = min(self.RETRY_BASE_S * (2.0 ** attempt), self.RETRY_CAP_S)
        if self._rng is not None:
            return base * float(self._rng.uniform(0.5, 1.5))
        return base
