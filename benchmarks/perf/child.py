"""One repeat of one workload, in a process of its own.

``run.py`` starts this file once per repeat so that ``setup_s`` (first
line to just before the runner call: imports, scenario construction,
one warm-up run) and ``peak_rss_mb`` belong to exactly one run of one
workload.  Prints one JSON object as the last line of stdout.

``--mode bare`` is the measured run (``obs=None``, no tracing), ``traced``
installs :mod:`trace` around the runner call, ``obs`` passes the
metrics-only ``Obs`` facade (the ``obs.metrics_overhead_frac`` probe).
"""

import time

_T0 = time.perf_counter()  # setup_s is counted from here

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro.experiments.figures import fig2_scenario  # noqa: E402
from repro.experiments.runner import run_scenario  # noqa: E402

import workloads  # noqa: E402


#: the paper's four algorithms (Figs. 3-5), reported per algorithm
PAPER_ALGORITHMS = ("completion-time", "queue-length", "num-cpus",
                    "round-robin")


def sim_digest(result) -> str:
    """sha256 over everything modelled: a host-only optimisation must
    leave it unchanged."""
    h = hashlib.sha256()
    h.update(repr((result.event_count, result.rpc_count,
                   repr(result.elapsed_sim_s))).encode())
    for label in sorted(result.servers):
        s = result.servers[label]
        h.update(repr((
            label,
            sorted(s.dag_completion_times.items()),
            sorted(s.jobs_per_site.items()),
            s.resubmissions, s.timeouts, s.migrations, s.checkpoint_restores,
        )).encode())
    return h.hexdigest()


def nearest_rank(sorted_values: list, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def summarize(result, scenario, violations: int) -> dict:
    """The modelled-grid (sim clock) outputs of one run."""
    servers = result.servers.values()
    dag_times = sorted(
        t for s in servers
        for t in (*s.dag_completion_times.values(), *s.censored_dag_times)
    )
    attempted = sum(s.total_dags for s in servers)
    finished = sum(s.finished_dags for s in servers)
    jobs = attempted * scenario.jobs_per_dag
    out = {
        "dags_attempted": attempted,
        "dags_finished": finished,
        "jobs_finished": finished * scenario.jobs_per_dag,
        "horizon_reached": result.horizon_reached,
        "violations": violations,
        "events": result.event_count,
        "rpcs": result.rpc_count,
        "sim_digest": sim_digest(result),
        "sim_dag_mean_s": sum(dag_times) / len(dag_times),
        "sim_dag_p90_s": nearest_rank(dag_times, 0.90),
        "sim_makespan_s": result.elapsed_sim_s,
        "sim_resubmit_frac": sum(s.resubmissions for s in servers) / jobs,
    }
    for field in ("resubmissions", "timeouts", "migrations",
                  "checkpoint_restores", "preempted_work_s"):
        out[f"core.server.{field}"] = sum(getattr(s, field) for s in servers)
    for algo in PAPER_ALGORITHMS:  # 0 = the algorithm is not in this workload
        means = [s.avg_dag_completion_s for s in servers if s.algorithm == algo]
        out[f"core.algorithms.{algo}.dag_mean_s"] = (
            sum(means) / len(means) if means else 0.0)
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--base-seed", type=int, default=workloads.BASE_SEED)
    ap.add_argument("--mode", choices=("bare", "traced", "obs"), default="bare")
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args()

    scenario, run = workloads.prepare(args.workload, args.seed,
                                      args.base_seed, args.toy)
    obs = None
    tracer = None
    if args.mode == "obs":
        from repro.obs import Obs, ObsConfig

        obs = Obs(ObsConfig(spans=False))
    elif args.mode == "traced":
        import trace

        tracer = trace.Tracer()
    run_scenario(fig2_scenario(n_dags=4))  # warm-up: lazy imports, caches
    setup_s = time.perf_counter() - _T0

    if tracer is not None:
        tracer.install()
        root = tracer.enter("host.runner")
    gc_before = sum(g["collections"] for g in gc.get_stats())
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result, violations = run(scenario, obs)
    finally:
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        if tracer is not None:
            tracer.exit(root, 1)
            tracer.uninstall()

    out = summarize(result, scenario, violations)
    out.update(
        workload=args.workload, seed=args.seed, base_seed=args.base_seed,
        mode=args.mode, setup_s=setup_s, wall_s=wall_s, cpu_s=cpu_s,
        gc_collections=sum(g["collections"] for g in gc.get_stats()) - gc_before,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["edges"] = tracer.edge_table()
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"{args.workload}.spans.jsonl")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
