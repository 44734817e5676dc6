#!/usr/bin/env python
"""HEP production on Grid3 — the paper's motivating workload.

Builds a CMS-style generate -> simulate -> digitize -> reconstruct
pipeline as one abstract DAG per run of a campaign (the shape Chimera's
virtual-data front end produced), and schedules the campaign on the
full 15-site Grid3 testbed with the completion-time hybrid — including the standard fault script (a
permanent blackhole site, periodic outages, a degradation window).

Run:  python examples/hep_pipeline.py
"""

from repro.core import ServerConfig, SphinxClient, SphinxServer
from repro.experiments import default_fault_windows
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
from repro.workflow import Dag, Job, LogicalFile

N_RUNS = 8
HORIZON_S = 12 * 3600.0


#: the CMS production chain: (executable, runtime_s, input, output)
STAGES = (
    ("cmkin", 45.0, None, "evt"),
    ("cmsim", 180.0, "evt", "fz"),
    ("writeHits", 60.0, "fz", "hits"),
    ("writeDigis", 90.0, "hits", "digis"),
    ("reco", 120.0, "digis", "dst"),
)
#: file size per suffix (MB): GB-scale intermediates
SIZES_MB = {"evt": 20.0, "fz": 250.0, "hits": 120.0, "digis": 150.0,
            "dst": 60.0}


def build_campaign_dag(run_number: int) -> Dag:
    """One production run: each stage reads the file the previous one
    wrote, so the DAG's edges follow from the shared logical files."""
    prefix = f"run{run_number:03d}"

    def lfn(suffix):
        return LogicalFile(f"{prefix}.{suffix}", SIZES_MB[suffix])

    return Dag(prefix, [
        Job(f"{prefix}.{executable}",
            inputs=(lfn(src),) if src else (),
            outputs=(lfn(dst),),
            runtime_s=runtime_s, executable=executable)
        for executable, runtime_s, src, dst in STAGES
    ])


def main():
    env = Environment()
    rng = RngStreams(seed=7)
    grid = make_grid3(env, rng)
    grid.failures.schedule_windows(default_fault_windows(HORIZON_S))

    bus = RpcBus(env)
    rls = ReplicaService(env, grid.site_names)
    gridftp = GridFtpService(env, grid, rls)
    condorg = CondorG(env, grid)
    monitoring = MonitoringService(env, grid, update_interval_s=300.0)

    server = SphinxServer(
        env, bus,
        ServerConfig(name="hep", algorithm="completion-time",
                     job_timeout_s=900.0),
        grid.advertised_catalog, monitoring, rls,
    )
    user = User("prodmgr", VirtualOrganization("uscms"))
    server.policy.grant_unlimited(user.proxy)
    client = SphinxClient(env, bus, server.service_name, condorg, gridftp,
                          rls, user, client_id="hep-prod")

    print(f"Grid3: {len(grid)} sites, {grid.total_cpus} CPUs "
          f"(mcfarm is a blackhole; nest has periodic outages)")
    for run in range(N_RUNS):
        dag = build_campaign_dag(run)
        env.process(client.submit_dag(dag))
    print(f"submitted {N_RUNS} production runs "
          f"({N_RUNS * 5} jobs, GB-scale intermediates)\n")

    env.run(until=HORIZON_S)

    times = server.dag_completion_times()
    print(f"finished {len(times)}/{N_RUNS} runs; "
          f"timeouts {server.timeout_count}, "
          f"resubmissions {server.resubmission_count}")
    for dag_id in sorted(times):
        print(f"  {dag_id}: {times[dag_id]:6.0f}s")
    print("\nsites the scheduler learned to trust (jobs / avg time):")
    per_site = server.jobs_per_site()
    averages = server.estimator.snapshot()
    for site, n in sorted(per_site.items(), key=lambda kv: -kv[1]):
        print(f"  {site:12s} {n:3d} jobs   avg {averages[site]:6.0f}s")
    unreliable = [s for s in grid.site_names
                  if not server.feedback.is_reliable(s)]
    print(f"\nsites flagged unreliable by feedback: {unreliable}")


if __name__ == "__main__":
    main()
