"""Experiment runner: the stack, and N servers competing on it.

:class:`Stack` is the one place a run is assembled, driven, exported
and reported; :func:`run_scenario` populates it with the paper's
topology (below), :func:`repro.federation.runner.run_federation` with
a meta-scheduler over shards.

Protocol (paper §4.2): every server variant gets its *own* SPHINX
server + client + workload, but all submit into the *same* simulated
grid at the same time, so they contend for CPUs, queues, and bandwidth
exactly like the paper's concurrently-started server instances.

Workloads are structurally identical across servers: each server's
generator is seeded with the same scenario seed, so DAG shapes, job
runtimes, and file sizes match; only the id prefix (and hence LFNs)
differ, keeping replica catalogs disjoint.

External input files are pre-staged round-robin across the grid's
sites, so most jobs must move at least one input — the paper's
"including the time to transfer remotely located input files onto the
site it is expected that each job will take about three or four
minutes".
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from repro import obs as obs_mod
from repro.core.client import SphinxClient
from repro.core.server import ServerConfig, SphinxServer
from repro.experiments.scenarios import Scenario, ServerSpec
from repro.services.condorg import CondorG
from repro.services.gridftp import GridFtpService
from repro.services.monitoring import MonitoringService
from repro.services.rls import ReplicaService
from repro.services.rpc import RpcBus
from repro.sim.engine import Environment
from repro.sim.rng import RngStreams
from repro.simgrid.grid import make_grid3
from repro.simgrid.vo import User, VirtualOrganization
from repro.workflow.generator import WorkloadGenerator

__all__ = ["Stack", "run_scenario", "ExperimentResult", "ServerResult"]


@dataclass(slots=True)
class ServerResult:
    """Everything the figures need from one server variant."""

    label: str
    algorithm: str
    use_feedback: bool
    finished_dags: int
    total_dags: int
    #: dag_id -> seconds (only finished DAGs)
    dag_completion_times: dict[str, float]
    #: elapsed seconds of dags still unfinished at run end (censored
    #: observations — a scheduler that cannot finish a DAG must not get
    #: a *better* average for it)
    censored_dag_times: list[float]
    job_completion_times: list[float]
    job_idle_times: list[float]
    job_execution_times: list[float]
    resubmissions: int
    timeouts: int
    jobs_per_site: dict[str, int]
    avg_completion_per_site: dict[str, float]
    feedback_snapshot: dict[str, tuple[int, int]]
    #: eviction tolerance: evict messages sent off draining sites,
    #: attempts planned with a checkpoint resume, and total CPU-seconds
    #: the kills discarded (zero on eviction-free runs).
    migrations: int = 0
    checkpoint_restores: int = 0
    preempted_work_s: float = 0.0

    @property
    def avg_dag_completion_s(self) -> float:
        """Mean over all DAGs; unfinished ones enter at their censored
        (run-end) elapsed time, a lower bound on their true cost."""
        values = list(self.dag_completion_times.values()) + \
            list(self.censored_dag_times)
        if not values:
            return float("nan")
        return float(np.mean(values))

    @property
    def avg_job_execution_s(self) -> float:
        if not self.job_execution_times:
            return float("nan")
        return float(np.mean(self.job_execution_times))

    @property
    def avg_job_idle_s(self) -> float:
        if not self.job_idle_times:
            return float("nan")
        return float(np.mean(self.job_idle_times))


@dataclass(slots=True)
class ExperimentResult:
    scenario_name: str
    horizon_reached: bool
    elapsed_sim_s: float
    #: kernel events processed over the whole run — the denominator for
    #: events/second throughput reporting (see BENCH_SUITE.json)
    event_count: int = 0
    #: RPC round trips dispatched on the bus over the whole run
    rpc_count: int = 0
    servers: dict[str, ServerResult] = field(default_factory=dict)

    def __getitem__(self, label: str) -> ServerResult:
        return self.servers[label]


class Stack:
    """One grid, one bus, one set of services — what every topology runs on.

    A topology function (:func:`run_scenario` for competing servers,
    :func:`repro.federation.runner.run_federation` for meta + shards)
    builds a stack, says *which* servers and clients go on it and *in
    which order*, then calls :meth:`run`.  The stack owns everything
    that is the same whichever way it is populated: env/obs binding,
    the grid and its fault script, the bus (the chaos controller's when
    one is armed), the grid services, ``ServerConfig`` and server
    construction, client construction with its workload and staging,
    the run itself and result assembly.

    Construction order *is* process-creation and bus-registration
    order, so the stack only offers steps — it never reorders them.
    """

    def __init__(self, scenario, env: Optional[Environment] = None,
                 obs=None, chaos=None, heartbeat=None):
        if env is None:
            env = Environment()
        obs = obs_mod.get(obs)
        if obs.enabled:
            obs.bind(env)
            if obs.tracer.enabled:
                # Span mode also tallies processed kernel events by type;
                # the tally only counts, so event_count (and everything
                # else) is unchanged.
                env.obs_tally = {}
        self.scenario = scenario
        self.env = env
        self.obs = obs
        self.chaos = chaos
        self.heartbeat = heartbeat
        self.rng = RngStreams(scenario.seed)
        grid = make_grid3(env, self.rng, sites=scenario.sites,
                          background=scenario.background,
                          background_batch_s=scenario.background_batch_s)
        grid.failures.schedule_windows(scenario.resolved_fault_windows())
        if obs.enabled:
            for site in grid:
                site.obs = obs
        self.grid = grid

        if chaos is not None:
            self.bus = chaos.make_bus(env, obs=obs)
        else:
            self.bus = RpcBus(env, obs=obs)
        self.rls = ReplicaService(env, grid.site_names)
        self.gridftp = GridFtpService(env, grid, self.rls)
        # The bus reference exposes the "condor-g" reservation RPCs to
        # reserve-ahead servers; registration is pure dict work, so
        # reservation-less runs stay bit-identical.
        self.condorg = CondorG(env, grid, bus=self.bus)
        self.monitoring = MonitoringService(
            env, grid, update_interval_s=scenario.monitoring_interval_s
        )
        if obs.enabled and obs.config.sample_sites:
            # The only obs mode that *does* schedule kernel events: the
            # omniscient telemetry sampler, opted into explicitly (trace
            # CLI), never by golden-metric or benchmark paths.
            from repro.experiments.telemetry import GridTelemetry

            GridTelemetry(env, grid,
                          sample_interval_s=obs.config.telemetry_interval_s,
                          metrics=obs.metrics)

        self.vo = VirtualOrganization("repro")
        #: label -> live server / client, and the spec each server was
        #: built from (result rows come out in this order)
        self.servers: dict[str, SphinxServer] = {}
        self.clients: dict[str, SphinxClient] = {}
        self.specs: list[ServerSpec] = []
        self._total_jobs = 0

    def add_server(self, spec: ServerSpec, name: Optional[str] = None,
                   server_cls: type[SphinxServer] = SphinxServer
                   ) -> SphinxServer:
        """Build one server from ``spec`` (config name ``name``, default
        the spec's label).

        The config is written once, in layers: experiment defaults,
        then what an armed chaos plan contributes for survivability
        (transactional delivery, presumed-lost requeue, eviction
        tolerance — nothing from an inactive plan, keeping
        chaos-disabled runs bit-identical), then the spec, whose fields
        are ``ServerConfig``'s by name; an eviction knob the spec left
        on auto (None) is left to the layers below, a set one wins.
        """
        scenario = self.scenario
        fields = {
            "tick_s": scenario.tick_s,
            "job_timeout_s": scenario.job_timeout_s,
        }
        if self.chaos is not None:
            fields.update(self.chaos.server_config(scenario.job_timeout_s))
        fields.update((k, v) for k, v in asdict(spec).items() if v is not None)
        label = fields.pop("label")
        config = ServerConfig(name=name if name is not None else label,
                              **fields)
        # Servers read the *advertised* catalog — the static information a
        # 2004 scheduler actually had, which may overstate usable capacity.
        server = server_cls(self.env, self.bus, config,
                            self.grid.advertised_catalog, self.monitoring,
                            self.rls, obs=self.obs)
        self.servers[label] = server
        self.specs.append(spec)
        return server

    def configure(self, label: str, reconfigure: Callable) -> None:
        """Apply the wiring that lives outside the warehouse (policy
        grants, like the paper's policy config file; a shard's peer
        links) to server ``label`` — now, and to every replacement a
        crash drill recovers under that label."""
        reconfigure(self.servers[label])
        if self.chaos is not None:
            self.chaos.register(label, server=self.servers[label],
                                reconfigure=reconfigure)

    def add_client(self, label: str, user: User,
                   service_name: str) -> tuple[SphinxClient, list]:
        """Build ``user``'s client against ``service_name``, generate its
        workload and stage the external inputs; the caller submits the
        returned DAGs.

        Workloads are structurally identical across clients: same seed,
        own id prefix (and hence disjoint LFNs).
        """
        scenario = self.scenario
        idx = len(self.clients)
        client = SphinxClient(
            self.env, self.bus, service_name, self.condorg, self.gridftp,
            self.rls, user, client_id=f"client-{label}",
            poll_s=scenario.poll_s,
            # Dedicated jitter stream per client: drawing backoff jitter
            # must never perturb workload/grid streams (and is only
            # drawn at all while a server is unreachable).
            rng=self.rng.stream(f"backoff-{label}"),
            obs=self.obs,
        )
        self.clients[label] = client
        if self.chaos is not None:
            self.chaos.register(label, client=client)
        gen = WorkloadGenerator(RngStreams(scenario.seed).stream("workload"))
        dags = gen.generate(scenario.workload_spec(), name_prefix=label)
        sites = self.grid.site_names
        for j, dag in enumerate(dags):
            # External inputs get TWO replicas at distinct sites — input
            # datasets lived on replicated storage elements; a single
            # site death must not erase a campaign's inputs.
            for k in (idx + j, idx + j + len(sites) // 2):
                client.stage_external_inputs(
                    dag, self.grid.site(sites[k % len(sites)])
                )
            self._total_jobs += len(dag)
        return client, dags

    def run(self) -> ExperimentResult:
        """Drive until every client's DAGs finish or the horizon hits,
        then export the run's metrics and assemble the result.

        Each client settles its ``done`` event the instant its last
        DAG-finished report lands, so the run stops at the true
        completion time (a polling watchdog would round it up to its
        next wakeup and bias every censored-DAG measurement by up to
        the poll period).
        """
        env, obs, scenario = self.env, self.obs, self.scenario
        if self.heartbeat is not None:
            self.heartbeat.bind(env, obs=obs,
                                total_jobs=self._total_jobs or None)
        if self.chaos is not None:
            self.chaos.install(env, self.grid)
        done_events = [c.done for c in self.clients.values()]
        env.run(until=env.any_of(
            [env.all_of(done_events), env.timeout(scenario.horizon_s)]
        ))
        all_done = all(ev.triggered for ev in done_events)
        elapsed_sim_s = env.now if all_done else scenario.horizon_s
        if self.heartbeat is not None:
            self.heartbeat.finalize(env.now, env.event_count)
        if self.chaos is not None:
            # Crash drills replace server objects; the controller's dict
            # tracks the live incarnation of each label.
            self.servers = self.chaos.servers

        if obs.enabled:
            if env.obs_tally is not None:
                for etype, n in sorted(env.obs_tally.items()):
                    obs.metrics.counter("kernel.events", type=etype).inc(n)
            obs.metrics.gauge("run.elapsed_sim_s").set(elapsed_sim_s)
            obs.tracer.close()

        result = ExperimentResult(
            scenario_name=scenario.name,
            horizon_reached=not all_done,
            elapsed_sim_s=elapsed_sim_s,
            event_count=env.event_count,
            rpc_count=self.bus.call_count,
        )
        for spec in self.specs:
            result.servers[spec.label] = self._server_result(
                spec, elapsed_sim_s
            )
        return result

    def _server_result(self, spec: ServerSpec,
                       elapsed_sim_s: float) -> ServerResult:
        server = self.servers[spec.label]
        dags_table = server.warehouse.table("dags")
        completion_times = server.dag_completion_times()
        # A server paired with the client of its own label (competing
        # servers) reports that client's view and its job timing series;
        # a shard's clients are per user and span shards, so its entry
        # reports the server-side series only.
        client = self.clients.get(spec.label)
        stats = client.tracker.stats if client is not None else None
        return ServerResult(
            label=spec.label,
            algorithm=spec.algorithm,
            use_feedback=spec.use_feedback,
            finished_dags=(client.finished_dag_count if client is not None
                           else len(completion_times)),
            total_dags=len(client.dag_times if client is not None
                           else dags_table),
            dag_completion_times=completion_times,
            censored_dag_times=[
                elapsed_sim_s - dags_table.get(dag_id)["received_at"]
                for dag_id in server.unfinished_dags()
            ],
            job_completion_times=list(stats.completion_times) if stats else [],
            job_idle_times=list(stats.idle_times) if stats else [],
            job_execution_times=list(stats.execution_times) if stats else [],
            resubmissions=server.resubmission_count,
            timeouts=server.timeout_count,
            jobs_per_site=server.jobs_per_site(),
            avg_completion_per_site=server.estimator.snapshot(),
            feedback_snapshot=server.feedback.snapshot(),
            migrations=server.migration_count,
            checkpoint_restores=server.checkpoint_restore_count,
            preempted_work_s=server.preempted_work_s,
        )


def run_scenario(scenario: Scenario,
                 env: Optional[Environment] = None,
                 obs=None,
                 chaos=None,
                 heartbeat=None) -> ExperimentResult:
    """Run one scenario to completion (or its horizon): the competing-
    servers topology — per spec, in order: server, its user's grants,
    client, submissions.

    ``obs`` is an optional :class:`repro.obs.Obs` facade.  When absent,
    every layer sees the shared no-op facade and the run is bit-identical
    to an uninstrumented one (no extra kernel events, no RNG draws).

    ``chaos`` is an optional :class:`repro.chaos.ChaosController` (duck-
    typed — this module never imports ``repro.chaos``).  It supplies the
    run's bus, contributes survivable ``ServerConfig`` fields, and arms
    its fault drills before the run starts.  With a no-op plan the
    controller is inert and the run is bit-identical to ``chaos=None``.

    ``heartbeat`` is an optional :class:`repro.obs.runtime.Heartbeat`:
    the kernel's event loop gives it a wall-clock cadence check
    every few thousand events and it emits live progress records
    (stderr + JSONL) plus stall flags.  Wall-clock only — a heartbeat
    run's scheduling output is bit-identical to a bare one.
    """
    stack = Stack(scenario, env=env, obs=obs, chaos=chaos,
                  heartbeat=heartbeat)
    for spec in scenario.servers:
        server = stack.add_server(spec)
        user = User(f"user-{spec.label}", stack.vo)
        stack.configure(
            spec.label,
            lambda srv, user=user: _configure_policy(srv, user, scenario),
        )
        client, dags = stack.add_client(spec.label, user, server.service_name)
        for dag in dags:
            stack.env.process(client.submit_dag(dag))
    return stack.run()


def _configure_policy(server: SphinxServer, user: User,
                      scenario: Scenario) -> None:
    if scenario.quota_per_site is None:
        server.policy.grant_unlimited(user.proxy)
        return
    for site in server.site_catalog:
        for resource, amount in scenario.quota_per_site.items():
            server.policy.grant(user.proxy, site, resource, amount)
