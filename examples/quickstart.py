#!/usr/bin/env python
"""Quickstart: schedule one workflow on a small grid with SPHINX.

Builds a 3-site grid, starts a SPHINX server and client, submits one
10-job random workflow, and prints what happened.  Everything runs in
simulated time — the whole script finishes in well under a second of
wall clock.

Run:  python examples/quickstart.py
"""

from repro.core import ServerConfig, SphinxClient, SphinxServer
from repro.services import (
    CondorG,
    GridFtpService,
    MonitoringService,
    ReplicaService,
    RpcBus,
)
from repro.sim import Environment
from repro.sim.rng import RngStreams
from repro.simgrid import Grid
from repro.simgrid.grid import SiteSpec
from repro.simgrid.vo import User, VirtualOrganization
from repro.workflow import WorkloadGenerator, WorkloadSpec


def main():
    # --- the world: a simulation clock and a small grid -----------------
    env = Environment()
    rng = RngStreams(seed=2026)
    grid = Grid(env, rng)
    for spec in (
        SiteSpec("fast", n_cpus=32, perf_factor=0.8, uplink_mbps=40.0,
                 background_utilization=0.3),
        SiteSpec("medium", n_cpus=16, perf_factor=1.2, uplink_mbps=20.0,
                 background_utilization=0.5),
        SiteSpec("slow", n_cpus=8, perf_factor=2.0, uplink_mbps=5.0,
                 background_utilization=0.2),
    ):
        grid.add_site(spec)
    grid.start_background()

    # --- the middleware services SPHINX talks to ------------------------
    bus = RpcBus(env)
    rls = ReplicaService(grid.site_names)
    gridftp = GridFtpService(env, grid, rls)
    condorg = CondorG(env, grid)
    monitoring = MonitoringService(env, grid, update_interval_s=120.0)

    # --- SPHINX server + client ----------------------------------------
    config = ServerConfig(name="quickstart", algorithm="completion-time",
                          job_timeout_s=900.0)
    server = SphinxServer(env, bus, config,
                          {s.name: s.n_cpus for s in grid},
                          monitoring, rls)
    user = User("alice", VirtualOrganization("demo"))
    server.policy.grant_unlimited(user.proxy)
    client = SphinxClient(env, bus, server.service_name, condorg, gridftp,
                          rls, user, client_id="quickstart")

    # --- a workload: one 10-job random-structure DAG --------------------
    generator = WorkloadGenerator(rng.stream("workload"))
    dag = generator.generate_dag(WorkloadSpec(), "demo")
    print(f"submitting {dag.dag_id}: {len(dag)} jobs, "
          f"critical path {dag.critical_path_s:.0f}s of compute")
    client.stage_external_inputs(dag, grid.site("medium"))
    env.process(client.submit_dag(dag))

    # --- run the simulated grid -----------------------------------------
    env.run(until=4 * 3600.0)

    # --- what happened ----------------------------------------------------
    times = server.dag_completion_times()
    print(f"\ndag finished in {times[dag.dag_id]:.0f}s simulated time")
    print(f"jobs completed: {len(client.tracker.stats.completion_times)}, "
          f"resubmissions: {server.tally('resubmissions')}")
    print("\nper-site placement (completed jobs / avg completion):")
    per_site = server.jobs_per_site()
    averages = server.estimator.snapshot()
    for site in sorted(per_site):
        print(f"  {site:8s} {per_site[site]:3d} jobs   "
              f"avg {averages[site]:6.0f}s")


if __name__ == "__main__":
    main()
