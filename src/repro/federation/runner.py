"""The federated scenario family and topology: one meta, N shards, M users.

:func:`run_federation` populates the same
:class:`repro.experiments.runner.Stack` that ``run_scenario`` does,
with the federated topology: every user gets one client submitting to
the meta-scheduler; the meta routes each DAG to a shard; shards plan
independently against shared grid resources, exchanging load digests
and quota leases over the bus.  :func:`run_topology` picks between the
two from the scenario's type.

Determinism contract is the stack's: everything is a pure function of
(scenario, seed); digests, lease transfers, and submission staggering
all ride the simulation clock, never wall time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.core.server import require_non_negative, require_positive
from repro.experiments.runner import ExperimentResult, Stack, run_scenario
from repro.experiments.scenarios import ServerSpec
from repro.federation.config import FederationConfig
from repro.federation.meta import MetaScheduler
from repro.federation.server import FederatedSphinxServer
from repro.sim.engine import Environment
from repro.simgrid.grid import GRID3_SITES
from repro.simgrid.vo import User
from repro.workflow.generator import WorkloadSpec

__all__ = [
    "FederationScenario",
    "FederationRun",
    "ext_federation_scenario",
    "run_federation",
    "run_topology",
]


@dataclass(slots=True)
class FederationScenario:
    """One federated experiment configuration.

    Deliberately *not* a :class:`Scenario` subclass: the single-server
    scenario enumerates competing server variants, a federated one
    enumerates cooperating shards (one algorithm) and users.  The
    shared grid/timing fields keep the same names so the stack and the
    chaos controller read either.
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
        require_non_negative(self, "background_batch_s", "submit_interval_s")
        require_positive(self, "tick_s", "poll_s", "job_timeout_s",
                         "monitoring_interval_s", "horizon_s")

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
    grant is 1.5x a user's *fair share per site*, never below 1.5 and
    never below the share rounded up to whole jobs (a job takes a
    whole slot, so a 1.8 grant places one), so the grid can always
    absorb the workload, but a single shard's 1/N lease slice starves
    as soon as a user's jobs concentrate — lease transfers sit on the
    planning critical path, not decoration.
    """
    if n_users is None:
        n_users = 2 * n_shards
    sites = GRID3_SITES
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
        quota = {"slots": max(1.5, 1.5 * jobs_per_user / len(sites),
                              math.ceil(jobs_per_user / len(sites)))}
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
        background_batch_s=background_batch_s,
        monitoring_interval_s=monitoring_interval_s,
        horizon_s=horizon_s,
        job_requirements=requirements,
        quota_per_site=quota,
        submit_interval_s=submit_interval_s,
    )


def _init_leases(server: FederatedSphinxServer,
                 scenario: FederationScenario, users: list) -> None:
    n = scenario.federation.n_shards
    for user in users:
        for spec in scenario.sites:
            for resource, amount in scenario.quota_per_site.items():
                server.ledger.init_lease(
                    user.proxy, spec.name, resource, amount / n
                )


@dataclass
class FederationRun:
    """Everything a federated run produced, live objects included."""

    scenario: FederationScenario
    result: ExperimentResult
    #: env, grid, bus, shard label -> final server incarnation, user
    #: label -> client
    stack: Stack
    users: list
    meta: MetaScheduler


def run_federation(scenario: FederationScenario,
                   env: Optional[Environment] = None,
                   obs=None,
                   chaos=None,
                   heartbeat=None) -> FederationRun:
    """Run one federated scenario to completion (or its horizon): the
    meta + shards topology — all shards, then the meta, then each
    shard's peer links and leases, then the users (optionally
    submitting on a stagger).  Arguments as for ``run_scenario``."""
    fed = scenario.federation
    stack = Stack(scenario, env=env, obs=obs, chaos=chaos,
                  heartbeat=heartbeat)
    for label in fed.shard_labels():
        stack.add_server(ServerSpec(label, scenario.algorithm),
                         name=fed.shard_server_name(label),
                         server_cls=FederatedSphinxServer)
    #: shard label -> bus service name
    services = {lbl: srv.service_name for lbl, srv in stack.servers.items()}
    meta = MetaScheduler(stack.env, stack.bus, fed, services, obs=stack.obs)
    users = [User(f"user-{i:03d}", stack.vo)
             for i in range(scenario.n_users)]

    def reattach(label: str, server: FederatedSphinxServer) -> None:
        server.enable_federation(fed, label, services,
                                 meta_service=meta.service_name)
        if scenario.quota_per_site is None:
            for user in users:
                server.policy.grant_unlimited(user.proxy)
            return
        # A recovered shard's lease rows ride in on its warehouse (the
        # ledger re-applied them as grants already); only the first
        # configure finds none and sets the original 1/N split.
        if len(server.ledger.leases) == 0:
            _init_leases(server, scenario, users)

    for label in services:
        stack.configure(label,
                        lambda srv, label=label: reattach(label, srv))

    for idx, user in enumerate(users):
        client, dags = stack.add_client(f"u{idx}", user, meta.service_name)
        if scenario.submit_interval_s > 0:
            # Pre-register every DAG's measurement slot: the client's
            # done latch compares finished against len(dag_times), and
            # with staggered submission it must count DAGs still *to
            # be* submitted or the run would stop at the first lull.
            for dag in dags:
                client.dag_times[dag.dag_id] = [stack.env.now, None]
            stack.env.process(
                _staggered_submit(stack.env, client, dags,
                                  scenario.submit_interval_s)
            )
        else:
            for dag in dags:
                stack.env.process(client.submit_dag(dag))

    return FederationRun(scenario, stack.run(), stack, users, meta)


def _staggered_submit(env, client, dags, interval_s):
    """Submit one user's DAGs on a fixed period (keeps admissions
    flowing across chaos windows)."""
    for j, dag in enumerate(dags):
        if j:
            yield env.timeout(interval_s)
        env.process(client.submit_dag(dag))


def run_topology(scenario, env: Optional[Environment] = None, obs=None,
                 chaos=None, heartbeat=None
                 ) -> tuple[ExperimentResult, Optional[FederationRun]]:
    """Run ``scenario`` on the topology its type names — the one place
    that decides competing servers vs meta + shards.  Returns the
    result and the federated run (None for competing servers)."""
    if isinstance(scenario, FederationScenario):
        run = run_federation(scenario, env=env, obs=obs, chaos=chaos,
                             heartbeat=heartbeat)
        return run.result, run
    return run_scenario(scenario, env=env, obs=obs, chaos=chaos,
                        heartbeat=heartbeat), None
