"""Experiment runner: the full stack, N servers competing, one grid.

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

import time
from dataclasses import dataclass, field
from typing import Optional

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
from repro.simgrid.grid import Grid, make_grid3
from repro.simgrid.vo import User, VirtualOrganization
from repro.workflow.generator import WorkloadGenerator

__all__ = ["run_scenario", "ExperimentResult", "ServerResult"]


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


def _build_server(
    env: Environment,
    bus: RpcBus,
    scenario: Scenario,
    spec: ServerSpec,
    grid: Grid,
    monitoring: MonitoringService,
    rls: ReplicaService,
    obs=None,
    chaos=None,
) -> SphinxServer:
    config = ServerConfig(
        name=spec.label,
        algorithm=spec.algorithm,
        algorithm_kwargs=dict(spec.algorithm_kwargs),
        use_feedback=spec.use_feedback,
        tick_s=scenario.tick_s,
        job_timeout_s=scenario.job_timeout_s,
        use_prediction_correction=spec.use_prediction_correction,
        estimator_mode=spec.estimator_mode,
        prediction_correction_strength=spec.prediction_correction_strength,
        reserve_ahead=spec.reserve_ahead,
        reservation_slack=spec.reservation_slack,
        checkpoint_interval_s=0.0,  # recovery is exercised separately
        migrate_on_drain=spec.migrate_on_drain,
        job_checkpoint_interval_s=spec.job_checkpoint_interval_s,
        job_checkpoint_cost_s=spec.job_checkpoint_cost_s,
    )
    if chaos is not None:
        # Chaos runs need survivable settings (checkpoints, transactional
        # delivery, presumed-lost requeue); an inactive plan changes
        # nothing, keeping chaos-disabled runs bit-identical.
        chaos.tune_server_config(config, scenario)
    # Servers read the *advertised* catalog — the static information a
    # 2004 scheduler actually had, which may overstate usable capacity.
    return SphinxServer(env, bus, config, grid.advertised_catalog,
                        monitoring, rls, obs=obs)


def run_scenario(scenario: Scenario,
                 env: Optional[Environment] = None,
                 obs=None,
                 chaos=None,
                 heartbeat=None) -> ExperimentResult:
    """Run one scenario to completion (or its horizon).

    ``obs`` is an optional :class:`repro.obs.Obs` facade.  When absent,
    every layer sees the shared no-op facade and the run is bit-identical
    to an uninstrumented one (no extra kernel events, no RNG draws).

    ``chaos`` is an optional :class:`repro.chaos.ChaosController` (duck-
    typed — this module never imports ``repro.chaos``).  It supplies the
    run's bus, tunes server configs for survivability, and arms its
    fault drills before the run starts.  With a no-op plan the
    controller is inert and the run is bit-identical to ``chaos=None``.

    ``heartbeat`` is an optional :class:`repro.obs.runtime.Heartbeat`:
    the kernel's instrumented loop gives it a wall-clock cadence check
    every few thousand events and it emits live progress records
    (stderr + JSONL) plus stall flags.  Wall-clock only — a heartbeat
    run's scheduling output is bit-identical to a bare one.
    """
    if env is None:
        env = Environment()
    obs = obs_mod.get(obs)
    if obs.enabled:
        obs.bind(env)
        if obs.tracer.enabled:
            # Span mode also tallies processed kernel events by type;
            # the instrumented loop replicates run() exactly, so
            # event_count (and everything else) is unchanged.
            env.obs_tally = {}
    if heartbeat is not None:
        spec = scenario.workload_spec()
        heartbeat.bind(
            env, obs=obs,
            total_jobs=(scenario.n_dags
                        * getattr(spec, "jobs_per_dag", 0)
                        * len(scenario.servers)) or None,
        )
    rng = RngStreams(scenario.seed)
    grid = make_grid3(env, rng, sites=scenario.sites,
                      background=scenario.background,
                      background_batch_s=scenario.background_batch_s)
    grid.failures.schedule_windows(scenario.resolved_fault_windows())
    if obs.enabled:
        for site in grid:
            site.obs = obs

    if chaos is not None:
        bus = chaos.make_bus(env, obs=obs)
    else:
        bus = RpcBus(env, obs=obs)
    rls = ReplicaService(env, grid.site_names)
    gridftp = GridFtpService(env, grid, rls)
    # The bus reference exposes the "condor-g" reservation RPCs to
    # reserve-ahead servers; registration is pure dict work, so
    # reservation-less runs stay bit-identical.
    condorg = CondorG(env, grid, bus=bus)
    monitoring = MonitoringService(
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

    vo = VirtualOrganization("repro")
    site_cycle = list(grid.site_names)
    clients: dict[str, SphinxClient] = {}
    servers: dict[str, SphinxServer] = {}

    for idx, spec in enumerate(scenario.servers):
        server = _build_server(env, bus, scenario, spec, grid, monitoring,
                               rls, obs=obs, chaos=chaos)
        user = User(f"user-{spec.label}", vo)
        _configure_policy(server, user, scenario, grid)
        client = SphinxClient(
            env, bus, server.service_name, condorg, gridftp, rls,
            user, client_id=f"client-{spec.label}", poll_s=scenario.poll_s,
            # Dedicated jitter stream per client: drawing backoff jitter
            # must never perturb workload/grid streams (and is only
            # drawn at all while a server is unreachable).
            rng=rng.stream(f"backoff-{spec.label}"),
            obs=obs,
        )
        servers[spec.label] = server
        clients[spec.label] = client
        if chaos is not None:
            # Grants live outside the warehouse (like the paper's policy
            # config file): a recovered server must have them re-applied.
            chaos.register(
                spec.label, server, client,
                reconfigure=lambda srv, user=user: _configure_policy(
                    srv, user, scenario, grid
                ),
            )

        # Identical workload structure per server: same seed, own prefix.
        gen = WorkloadGenerator(RngStreams(scenario.seed).stream("workload"))
        dags = gen.generate(scenario.workload_spec(), name_prefix=spec.label)
        for j, dag in enumerate(dags):
            # External inputs get TWO replicas at distinct sites — input
            # datasets lived on replicated storage elements; a single
            # site death must not erase a campaign's inputs.
            home = grid.site(site_cycle[(idx + j) % len(site_cycle)])
            backup = grid.site(
                site_cycle[(idx + j + len(site_cycle) // 2) % len(site_cycle)]
            )
            client.stage_external_inputs(dag, home)
            client.stage_external_inputs(dag, backup)
            env.process(client.submit_dag(dag))

    # Drive until every client's DAGs finish or the horizon hits.  Each
    # client settles its `done` event the instant its last DAG-finished
    # report lands, so the run stops at the true completion time (a
    # polling watchdog would round it up to its next wakeup and bias
    # every censored-DAG measurement by up to the poll period).
    if chaos is not None:
        chaos.install(env, grid, scenario)
    done_events = [c.done for c in clients.values()]
    run_t0 = time.perf_counter()
    env.run(until=env.any_of(
        [env.all_of(done_events), env.timeout(scenario.horizon_s)]
    ))
    run_wall_ms = (time.perf_counter() - run_t0) * 1e3
    all_done = all(ev.triggered for ev in done_events)
    if heartbeat is not None:
        heartbeat.finalize(env.now, env.event_count)
    if chaos is not None:
        # Crash drills replace server objects; the controller's dict
        # tracks the live incarnation of each label.
        servers = chaos.servers

    if obs.enabled:
        if env.obs_tally is not None:
            for etype, n in sorted(env.obs_tally.items()):
                obs.metrics.counter("kernel.events", type=etype).inc(n)
        obs.metrics.gauge("run.elapsed_sim_s").set(
            env.now if all_done else scenario.horizon_s
        )
        # Wall-clock attribution: per-phase totals from the exclusive
        # phase timers, with the unattributed remainder (event
        # dispatch, process switching, transfers...) booked to
        # "kernel" so the breakdown sums to the run's real wall time.
        phase_ms = obs.phases.wall_ms()
        for phase, ms in sorted(phase_ms.items()):
            obs.metrics.counter("server.wall_ms", phase=phase).inc(ms)
        obs.metrics.counter("server.wall_ms", phase="kernel").inc(
            max(0.0, run_wall_ms - sum(phase_ms.values()))
        )
        obs.tracer.close()

    result = ExperimentResult(
        scenario_name=scenario.name,
        horizon_reached=not all_done,
        elapsed_sim_s=env.now if all_done else scenario.horizon_s,
        event_count=env.event_count,
        rpc_count=bus.call_count,
    )
    for spec in scenario.servers:
        server = servers[spec.label]
        client = clients[spec.label]
        dags_table = server.warehouse.table("dags")
        censored = [
            result.elapsed_sim_s - dags_table.get(dag_id)["received_at"]
            for dag_id in server.unfinished_dags()
        ]
        result.servers[spec.label] = ServerResult(
            label=spec.label,
            algorithm=spec.algorithm,
            use_feedback=spec.use_feedback,
            finished_dags=client.finished_dag_count,
            total_dags=scenario.n_dags,
            dag_completion_times=server.dag_completion_times(),
            censored_dag_times=censored,
            job_completion_times=list(client.tracker.stats.completion_times),
            job_idle_times=list(client.tracker.stats.idle_times),
            job_execution_times=list(client.tracker.stats.execution_times),
            resubmissions=server.resubmission_count,
            timeouts=server.timeout_count,
            jobs_per_site=server.jobs_per_site(),
            avg_completion_per_site=server.estimator.snapshot(),
            feedback_snapshot=server.feedback.snapshot(),
            migrations=server.migration_count,
            checkpoint_restores=server.checkpoint_restore_count,
            preempted_work_s=server.preempted_work_s,
        )
    return result


def _configure_policy(server: SphinxServer, user: User,
                      scenario: Scenario, grid: Grid) -> None:
    if scenario.quota_per_site is None:
        server.policy.grant_unlimited(user.proxy)
        return
    for site in grid.site_names:
        for resource, amount in scenario.quota_per_site.items():
            server.policy.grant(user.proxy, site, resource, amount)
