#!/usr/bin/env python
"""Policy-constrained scheduling — per-user resource quotas (eq. 4).

Two users of the same VO share one SPHINX server.  The production
manager holds generous CPU-second quotas everywhere and outranks the
student (priority 1 against the default 10: the planner serves its
ready jobs first); the student holds quota at only two small sites.
The same workload is submitted for both: the policy engine confines
the student's jobs to the granted sites while the production
manager's spread freely, each user's mean DAG time shows what that
costs — and the usage accounting shows exactly who consumed what, the
bookkeeping the paper notes "no such accounting exists currently in
the grid".

Run:  python examples/policy_quotas.py
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
from repro.simgrid import make_grid3
from repro.simgrid.vo import User, VirtualOrganization
from repro.workflow import WorkloadGenerator, WorkloadSpec

STUDENT_SITES = ("citgrid3", "spike")


def main():
    env = Environment()
    rng = RngStreams(seed=11)
    grid = make_grid3(env, rng)
    bus = RpcBus(env)
    rls = ReplicaService(grid.site_names)
    gridftp = GridFtpService(env, grid, rls)
    condorg = CondorG(env, grid)
    monitoring = MonitoringService(env, grid, update_interval_s=300.0)

    server = SphinxServer(
        env, bus,
        ServerConfig(name="policy", algorithm="completion-time",
                     job_timeout_s=900.0),
        grid.advertised_catalog, monitoring, rls,
    )

    vo = VirtualOrganization("uscms")
    prodmgr = User("prodmgr", vo, priority=1)
    student = User("student", vo)

    # Quota policy: CPU-seconds per (user, site).
    for site in grid.site_names:
        server.policy.grant(prodmgr.proxy, site, "cpu_seconds", 50_000.0)
    for site in STUDENT_SITES:
        server.policy.grant(student.proxy, site, "cpu_seconds", 3_000.0)

    clients = {}
    for user in (prodmgr, student):
        clients[user.name] = SphinxClient(
            env, bus, server.service_name, condorg, gridftp, rls, user,
            client_id=f"client-{user.name}",
        )

    # Same workload shape for both users (each job demands its
    # CPU-seconds under the quota).
    for user in (prodmgr, student):
        gen = WorkloadGenerator(RngStreams(11).stream("workload"))
        dags = gen.generate(
            WorkloadSpec(n_dags=3, requirements={"cpu_seconds": 60.0}),
            name_prefix=user.name,
        )
        for dag in dags:
            clients[user.name].stage_external_inputs(dag, grid.site("acdc"))
            env.process(clients[user.name].submit_dag(dag))

    env.run(until=8 * 3600.0)

    jobs = server.warehouse.table("jobs")
    print("placement by user:")
    for user in (prodmgr, student):
        sites = {}
        for row in jobs.select(predicate=lambda r: r["job_id"].startswith(user.name)
                               and r["site"] is not None):
            sites[row["site"]] = sites.get(row["site"], 0) + 1
        client = clients[user.name]
        spans = [done - sent for sent, done in client.dag_times.values()
                 if done is not None]
        mean = f"{sum(spans) / len(spans):.0f} s" if spans else "n/a"
        print(f"\n  {user.name} (priority {user.priority}, "
              f"{client.finished_dag_count}/3 dags done, "
              f"mean DAG time {mean}): {sites}")
        if user is student:
            outside = set(sites) - set(STUDENT_SITES)
            print(f"  jobs outside the student's quota sites: "
                  f"{sorted(outside) or 'none'}")

    print("\nusage accounting (cpu-seconds charged):")
    for user in (prodmgr, student):
        for site in grid.site_names:
            used = server.policy.used(user.proxy, site, "cpu_seconds")
            if used:
                granted = server.policy.granted(user.proxy, site,
                                                "cpu_seconds")
                print(f"  {user.name:8s} @ {site:12s} {used:8.0f} "
                      f"of {granted:8.0f}")


if __name__ == "__main__":
    main()
