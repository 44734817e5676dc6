#!/usr/bin/env python
"""Fault tolerance end to end: blackholes, outages, and a server crash.

The scenario stacks every failure mode the paper's SPHINX had to
survive:

1. a **blackhole site** that silently swallows jobs (caught by the
   job tracker's timeout + feedback),
2. a **mid-run site outage** that kills running jobs (caught by the
   killed-status report + replanning),
3. a **SPHINX server crash** halfway through, recovered from the
   warehouse as it stood at the crash (every write is durable) under
   the same service name (clients retry their reports until the
   recovered server answers).

Every DAG still finishes.

Run:  python examples/fault_tolerance.py
"""

from repro.core import ServerConfig, SphinxClient, SphinxServer, recover_server
from repro.services import (
    CondorG,
    GridFtpService,
    MonitoringService,
    ReplicaService,
    RpcBus,
)
from repro.sim import Environment
from repro.sim.rng import RngStreams
from repro.simgrid import Grid, SiteState
from repro.simgrid.grid import SiteSpec
from repro.simgrid.vo import User, VirtualOrganization
from repro.workflow import WorkloadGenerator, WorkloadSpec

N_DAGS = 5


def main():
    env = Environment()
    rng = RngStreams(seed=3)
    grid = Grid(env, rng)
    for spec in (
        SiteSpec("stable", n_cpus=24, perf_factor=1.0, uplink_mbps=30.0,
                 background_utilization=0.4),
        SiteSpec("flaky", n_cpus=16, perf_factor=1.2, uplink_mbps=15.0,
                 background_utilization=0.3),
        SiteSpec("blackhole", n_cpus=32, perf_factor=0.9, uplink_mbps=20.0,
                 background_utilization=0.2),
    ):
        grid.add_site(spec)
    grid.start_background()
    grid.site("blackhole").set_state(SiteState.BLACKHOLE)

    bus = RpcBus(env)
    rls = ReplicaService(env, grid.site_names)
    gridftp = GridFtpService(env, grid, rls)
    condorg = CondorG(env, grid)
    monitoring = MonitoringService(env, grid, update_interval_s=120.0)
    catalog = {s.name: s.n_cpus for s in grid}
    config = ServerConfig(name="ft", algorithm="completion-time",
                          job_timeout_s=300.0)
    server = SphinxServer(env, bus, config, catalog, monitoring, rls)
    user = User("alice", VirtualOrganization("demo"))
    server.policy.grant_unlimited(user.proxy)
    client = SphinxClient(env, bus, server.service_name, condorg, gridftp,
                          rls, user, client_id="ft")

    gen = WorkloadGenerator(rng.stream("workload"))
    for dag in gen.generate(WorkloadSpec(n_dags=N_DAGS)):
        client.stage_external_inputs(dag, grid.site("stable"))
        env.process(client.submit_dag(dag))

    state = {"server": server}

    def chaos(env):
        # 2. flaky site dies mid-run, killing whatever it was running...
        yield env.timeout(400.0)
        print(f"[t={env.now:5.0f}] site 'flaky' goes DOWN "
              f"(killing {grid.site('flaky').running_jobs} running jobs)")
        grid.site("flaky").set_state(SiteState.DOWN)
        yield env.timeout(900.0)
        grid.site("flaky").set_state(SiteState.UP)
        print(f"[t={env.now:5.0f}] site 'flaky' back UP")

        # 3. ...and then the SPHINX server itself crashes.
        yield env.timeout(300.0)
        checkpoint = state["server"].checkpoint()
        state["server"].shutdown()
        print(f"[t={env.now:5.0f}] SPHINX server CRASHED "
              f"(its warehouse survives the crash)")
        yield env.timeout(120.0)
        state["server"] = recover_server(env, bus, config, catalog,
                                         monitoring, rls, checkpoint)
        state["server"].policy.grant_unlimited(user.proxy)
        print(f"[t={env.now:5.0f}] SPHINX server RECOVERED from its warehouse")

    env.process(chaos(env))
    env.run(until=6 * 3600.0)

    final = state["server"]
    times = final.dag_completion_times()
    print(f"\nfinished {client.finished_dag_count}/{N_DAGS} dags "
          f"despite a blackhole, an outage, and a server crash")
    print(f"timeouts: {final.timeout_count + server.timeout_count}, "
          f"resubmissions: {final.resubmission_count + server.resubmission_count}")
    print(f"blackhole flagged unreliable: "
          f"{not final.feedback.is_reliable('blackhole')}")
    for dag_id in sorted(times):
        print(f"  {dag_id}: {times[dag_id]:6.0f}s")


if __name__ == "__main__":
    main()
