"""Federated experiment runner: one grid, one meta, N shards, M users.

Mirrors :func:`repro.experiments.runner.run_scenario` but with the
federated topology: every user gets one client submitting to the
meta-scheduler; the meta routes each DAG to a shard; shards plan
independently against shared grid resources, exchanging load digests
and quota leases over the bus.  The single-server runner is untouched
— federation is a parallel entry point, never a default-path branch.

Determinism contract is the same as the base runner: everything is a
pure function of (scenario, seed); digests, lease transfers, and
submission staggering all ride the simulation clock, never wall time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro import obs as obs_mod
from repro.core.client import SphinxClient
from repro.core.server import ServerConfig, require_positive
from repro.experiments.runner import ExperimentResult, ServerResult
from repro.federation.config import FederationConfig
from repro.federation.meta import MetaScheduler
from repro.federation.server import FederatedSphinxServer
from repro.services.condorg import CondorG
from repro.services.gridftp import GridFtpService
from repro.services.monitoring import MonitoringService
from repro.services.rls import ReplicaService
from repro.services.rpc import RpcBus
from repro.sim.engine import Environment
from repro.sim.rng import RngStreams
from repro.simgrid.grid import GRID3_SITES, make_grid3
from repro.simgrid.vo import User, VirtualOrganization
from repro.workflow.generator import WorkloadGenerator, WorkloadSpec

__all__ = [
    "FederationScenario",
    "FederationRun",
    "ext_federation_scenario",
    "run_federation",
    "run_federation_chaos",
]


@dataclass(slots=True)
class FederationScenario:
    """One federated experiment configuration.

    Deliberately *not* a :class:`Scenario` subclass: the single-server
    scenario enumerates competing server variants, a federated one
    enumerates cooperating shards (one algorithm) and users.  The
    shared grid/timing fields keep the same names so chaos plumbing
    (``tune_server_config``, ``install``) works on either.
    """

    name: str
    federation: FederationConfig = field(default_factory=FederationConfig)
    n_users: int = 4
    dags_per_user: int = 5
    jobs_per_dag: int = 10
    seed: int = 42
    algorithm: str = "completion-time"
    sites: tuple = GRID3_SITES
    background: bool = True
    background_batch_s: float = 0.0
    #: federated runs default to fault-free sites; chaos plans supply
    #: their own shard/site faults.
    fault_windows: tuple = ()
    monitoring_interval_s: float = 300.0
    job_timeout_s: float = 1800.0
    tick_s: float = 5.0
    poll_s: float = 2.0
    horizon_s: float = 24 * 3600.0
    job_requirements: dict = field(default_factory=dict)
    #: resource -> amount granted per (user, site), split evenly into
    #: shard leases; None = quota-exempt users.
    quota_per_site: Optional[dict] = None
    workload_overrides: dict = field(default_factory=dict)
    #: > 0 staggers each user's DAG submissions on this period, so a
    #: run keeps admitting work across chaos windows (how the
    #: shard-outage drill gets DAGs to re-home); 0 submits all at once.
    submit_interval_s: float = 0.0

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ValueError("need at least one user")
        if self.dags_per_user < 1:
            raise ValueError("need at least one DAG per user")
        if self.submit_interval_s < 0:
            raise ValueError("submit_interval_s must be >= 0")
        require_positive(self, "tick_s", "poll_s", "job_timeout_s",
                         "monitoring_interval_s", "horizon_s")

    @property
    def n_dags(self) -> int:
        """Total DAGs across all users (chaos/report plumbing)."""
        return self.n_users * self.dags_per_user

    def user_labels(self) -> tuple[str, ...]:
        return tuple(f"u{i}" for i in range(self.n_users))

    def workload_spec(self) -> WorkloadSpec:
        kwargs = dict(
            n_dags=self.dags_per_user,
            jobs_per_dag=self.jobs_per_dag,
            requirements=dict(self.job_requirements),
        )
        kwargs.update(self.workload_overrides)
        return WorkloadSpec(**kwargs)

    def resolved_fault_windows(self) -> tuple:
        return self.fault_windows


def ext_federation_scenario(
    n_shards: int = 3,
    n_users: Optional[int] = None,
    dags_per_user: int = 5,
    jobs_per_dag: int = 10,
    seed: int = 42,
    n_sites: Optional[int] = None,
    horizon_s: float = 24 * 3600.0,
    spill_threshold: Optional[int] = None,
    with_quota: bool = True,
    submit_interval_s: float = 0.0,
) -> FederationScenario:
    """The ``ext-federation`` scenario family.

    ``n_sites`` switches from the Grid3 testbed to the synthetic
    catalog (the ext-scale fabric), which is how the acceptance run
    drives 10 shards over 250 sites.  ``with_quota`` makes quota
    genuinely scarce: jobs need 1.0 ``slots`` and the per-(user, site)
    grant is 1.5x a user's *fair share per site* (never below 1.5), so
    the grid can absorb the workload with ~50% headroom, but a single
    shard's 1/N lease slice starves as soon as a user's jobs
    concentrate — lease transfers sit on the planning critical path,
    not decoration.
    """
    if n_users is None:
        n_users = 2 * n_shards
    sites = GRID3_SITES
    background = True
    background_batch_s = 0.0
    monitoring_interval_s = 300.0
    if n_sites is not None:
        from repro.simgrid.grid import synthetic_sites

        sites = synthetic_sites(n_sites)
        background_batch_s = 300.0
        monitoring_interval_s = 600.0
    quota = None
    requirements = {}
    if with_quota:
        requirements = {"slots": 1.0}
        jobs_per_user = dags_per_user * jobs_per_dag
        quota = {"slots": max(1.5, 1.5 * jobs_per_user / len(sites))}
    fed = FederationConfig(
        name=f"fed{n_shards}",
        n_shards=n_shards,
        spill_threshold=spill_threshold,
    )
    return FederationScenario(
        name=f"ext-federation-{n_shards}shards",
        federation=fed,
        n_users=n_users,
        dags_per_user=dags_per_user,
        jobs_per_dag=jobs_per_dag,
        seed=seed,
        sites=sites,
        background=background,
        background_batch_s=background_batch_s,
        monitoring_interval_s=monitoring_interval_s,
        horizon_s=horizon_s,
        job_requirements=requirements,
        quota_per_site=quota,
        submit_interval_s=submit_interval_s,
    )


class _FederationRuntime:
    """The wiring a recovered shard needs re-attached.

    Grants and peer links live outside the warehouse (like the paper's
    policy config file), so the chaos drill's ``reconfigure`` closure
    calls :meth:`reattach` on every replacement incarnation.
    """

    def __init__(self, scenario: FederationScenario, services: dict,
                 meta: MetaScheduler, users: list):
        self.scenario = scenario
        self.services = services  # shard label -> bus service name
        self.meta = meta
        self.users = users

    def reattach(self, label: str, server: FederatedSphinxServer) -> None:
        server.enable_federation(
            self.scenario.federation, label, self.services,
            meta_service=self.meta.service_name,
        )
        scenario = self.scenario
        if scenario.quota_per_site is None:
            for user in self.users:
                server.policy.grant_unlimited(user.proxy)
            return
        # Lease rows normally ride in on the checkpoint (the ledger
        # re-applied them as grants already).  A shard that lost its
        # whole warehouse (crash before any checkpoint) re-inits its
        # original 1/N split — the only defensible reconstruction, at
        # the documented cost that transfers since t=0 are forgotten.
        if len(server.ledger.leases) == 0:
            _init_leases(server, scenario)


def _init_leases(server: FederatedSphinxServer,
                 scenario: FederationScenario) -> None:
    n = scenario.federation.n_shards
    for i in range(scenario.n_users):
        proxy = _user_proxy(i)
        for spec in scenario.sites:
            for resource, amount in scenario.quota_per_site.items():
                server.ledger.init_lease(
                    proxy, spec.name, resource, amount / n
                )


def _user_proxy(i: int) -> str:
    # User(name, vo) derives proxy from the name; keep in one place.
    return User(f"user-{i:03d}", VirtualOrganization("repro")).proxy


@dataclass
class FederationRun:
    """Everything a federated run produced, live objects included."""

    scenario: FederationScenario
    result: ExperimentResult
    #: shard label -> final server incarnation
    servers: dict
    #: user label -> client
    clients: dict
    users: list
    meta: MetaScheduler
    grid: object
    bus: RpcBus
    env: Environment
    runtime: _FederationRuntime


def run_federation(scenario: FederationScenario,
                   env: Optional[Environment] = None,
                   obs=None,
                   chaos=None,
                   heartbeat=None) -> FederationRun:
    """Run one federated scenario to completion (or its horizon)."""
    fed = scenario.federation
    if env is None:
        env = Environment()
    obs = obs_mod.get(obs)
    if obs.enabled:
        obs.bind(env)
        if obs.tracer.enabled:
            env.obs_tally = {}
    if heartbeat is not None:
        heartbeat.bind(
            env, obs=obs,
            total_jobs=scenario.n_dags * scenario.jobs_per_dag or None,
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
    condorg = CondorG(env, grid, bus=bus)
    monitoring = MonitoringService(
        env, grid, update_interval_s=scenario.monitoring_interval_s
    )

    # -- shards -----------------------------------------------------------
    servers: dict[str, FederatedSphinxServer] = {}
    for label in fed.shard_labels():
        config = ServerConfig(
            name=fed.shard_server_name(label),
            algorithm=scenario.algorithm,
            tick_s=scenario.tick_s,
            job_timeout_s=scenario.job_timeout_s,
            checkpoint_interval_s=0.0,
        )
        if chaos is not None:
            chaos.tune_server_config(config, scenario)
        servers[label] = FederatedSphinxServer(
            env, bus, config, grid.advertised_catalog, monitoring, rls,
            obs=obs,
        )
    services = {lbl: srv.service_name for lbl, srv in servers.items()}

    meta = MetaScheduler(env, bus, fed, services, obs=obs)

    vo = VirtualOrganization("repro")
    users = [User(f"user-{i:03d}", vo) for i in range(scenario.n_users)]
    runtime = _FederationRuntime(scenario, services, meta, users)

    for label, server in servers.items():
        runtime.reattach(label, server)
        if chaos is not None:
            chaos.register(
                label, server=server,
                reconfigure=lambda srv, label=label: runtime.reattach(
                    label, srv
                ),
            )

    # -- users ------------------------------------------------------------
    clients: dict[str, SphinxClient] = {}
    site_cycle = list(grid.site_names)
    for idx, user in enumerate(users):
        ulabel = f"u{idx}"
        client = SphinxClient(
            env, bus, meta.service_name, condorg, gridftp, rls,
            user, client_id=f"client-{ulabel}", poll_s=scenario.poll_s,
            rng=rng.stream(f"backoff-{ulabel}"),
            obs=obs,
        )
        clients[ulabel] = client
        if chaos is not None:
            chaos.register(ulabel, client=client)

        # Identical workload structure per user: same seed, own prefix
        # (the same discipline the base runner applies per server).
        gen = WorkloadGenerator(RngStreams(scenario.seed).stream("workload"))
        dags = gen.generate(scenario.workload_spec(), name_prefix=ulabel)
        for j, dag in enumerate(dags):
            home = grid.site(site_cycle[(idx + j) % len(site_cycle)])
            backup = grid.site(
                site_cycle[(idx + j + len(site_cycle) // 2)
                           % len(site_cycle)]
            )
            client.stage_external_inputs(dag, home)
            client.stage_external_inputs(dag, backup)
        if scenario.submit_interval_s > 0:
            # Pre-register every DAG's measurement slot: the client's
            # done latch compares finished against len(dag_times), and
            # with staggered submission it must count DAGs still *to
            # be* submitted or the run would stop at the first lull.
            for dag in dags:
                client.dag_times[dag.dag_id] = [env.now, None]
            env.process(
                _staggered_submit(env, client, dags,
                                  scenario.submit_interval_s)
            )
        else:
            for dag in dags:
                env.process(client.submit_dag(dag))

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
        # Crash drills replace shard objects; the controller's dict
        # tracks the live incarnation of each label.
        servers = dict(chaos.servers)

    if obs.enabled:
        if env.obs_tally is not None:
            for etype, n in sorted(env.obs_tally.items()):
                obs.metrics.counter("kernel.events", type=etype).inc(n)
        obs.metrics.gauge("run.elapsed_sim_s").set(
            env.now if all_done else scenario.horizon_s
        )
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
    for label in fed.shard_labels():
        server = servers[label]
        dags_table = server.warehouse.table("dags")
        unfinished = server.unfinished_dags()
        censored = [
            result.elapsed_sim_s - dags_table.get(dag_id)["received_at"]
            for dag_id in unfinished
        ]
        completion_times = server.dag_completion_times()
        # Job timing series live on the per-user clients, which span
        # shards; the shard entries report the server-side series only.
        result.servers[label] = ServerResult(
            label=label,
            algorithm=scenario.algorithm,
            use_feedback=True,
            finished_dags=len(completion_times),
            total_dags=len(dags_table),
            dag_completion_times=completion_times,
            censored_dag_times=censored,
            job_completion_times=[],
            job_idle_times=[],
            job_execution_times=[],
            resubmissions=server.resubmission_count,
            timeouts=server.timeout_count,
            jobs_per_site=server.jobs_per_site(),
            avg_completion_per_site=server.estimator.snapshot(),
            feedback_snapshot=server.feedback.snapshot(),
        )
    return FederationRun(
        scenario=scenario,
        result=result,
        servers=servers,
        clients=clients,
        users=users,
        meta=meta,
        grid=grid,
        bus=bus,
        env=env,
        runtime=runtime,
    )


def _staggered_submit(env, client, dags, interval_s):
    """Submit one user's DAGs on a fixed period (keeps admissions
    flowing across chaos windows)."""
    for j, dag in enumerate(dags):
        if j:
            yield env.timeout(interval_s)
        env.process(client.submit_dag(dag))


def run_federation_chaos(scenario: FederationScenario, plan, obs=None):
    """Run a federated scenario under a chaos plan and audit it.

    The federated twin of :func:`repro.chaos.run.run_chaos`: same
    drain grace, same invariant checker — extended with the federation
    audit (no DAG lost between meta and shards, placed exactly once,
    cross-shard lease conservation).  Transport faults are fair game:
    the meta's two-phase offer/confirm forward keeps placement
    exactly-once under dropped requests, dropped replies, and
    duplicated dispatches alike.
    """
    from repro.chaos.run import drain_and_audit

    def _run(env, chaos):
        run = run_federation(scenario, env=env, obs=obs, chaos=chaos)
        return run.result, run

    return drain_and_audit(scenario, plan, obs, _run)
