"""Figure 5 — algorithm comparison at 120 DAGs (scalability).

Paper: "The results follow the trend same as the 30 and 60 jobs
experiments, thus exhibiting scalability."  The paper ran its
comparisons "in the pair-wise or group-wise approach"; at 120 DAGs we
use the pair-wise protocol — a four-way group run doubles the
SPHINX-side load and saturates the simulated testbed, drowning the
scheduling signal (see EXPERIMENTS.md).  Each rival meets the
completion-time hybrid head-to-head under identical conditions.
"""

from repro.experiments import format_table
from repro.experiments.metrics import improvement_pct

from benchmarks.common import emit, full_scale, run_cases

RIVALS = ("queue-length", "num-cpus", "round-robin")
CASES = {f"fig5-pair-{rival}": ("completion-time", rival) for rival in RIVALS}


def test_fig5_algorithms_120(benchmark):
    runs = run_cases(benchmark, CASES)
    results = {rival: runs[f"fig5-pair-{rival}"].result for rival in RIVALS}
    n_dags = results["round-robin"]["completion-time"].total_dags
    rows_a, rows_b = [], []
    margins = {}
    for rival in RIVALS:
        ct = results[rival]["completion-time"]
        rv = results[rival][rival]
        margins[rival] = improvement_pct(ct.avg_dag_completion_s,
                                         rv.avg_dag_completion_s)
        rows_a.append([f"completion-time (vs {rival})",
                       f"{ct.finished_dags}/{ct.total_dags}",
                       ct.avg_dag_completion_s])
        rows_a.append([rival, f"{rv.finished_dags}/{rv.total_dags}",
                       rv.avg_dag_completion_s])
        rows_b.append([rival, rv.avg_job_execution_s, rv.avg_job_idle_s,
                       ct.avg_job_execution_s, ct.avg_job_idle_s])
    margin_txt = ", ".join(f"{k} {v:.0f}%" for k, v in margins.items())
    emit("5a_dag_completion", format_table(
        ["pairing", "dags", "avg dag completion (s)"], rows_a,
        title=(f"Fig 5(a): pair-wise at {n_dags} dags x 10 jobs "
               f"(paper: same trend as 30/60)\n"
               f"completion-time margin per pairing: {margin_txt}"),
    ))
    emit("5b_exec_idle", format_table(
        ["rival", "rival exec (s)", "rival idle (s)",
         "ct exec (s)", "ct idle (s)"], rows_b,
        title=f"Fig 5(b): job execution/idle per pairing, {n_dags} dags",
    ))
    if full_scale():
        # Shape at full load (see EXPERIMENTS.md for the full story):
        # every pairing finishes its whole workload (the scalability
        # claim), the hybrid clearly beats round-robin and at least
        # ties queue-length; against our num-cpus implementation — a
        # live planned/unfinished load balancer, stronger than the
        # static baseline the paper measured — it concedes a bounded
        # gap at this job density.
        for rival in RIVALS:
            assert results[rival]["completion-time"].finished_dags == n_dags
            assert results[rival][rival].finished_dags == n_dags
        assert margins["round-robin"] > 15.0
        assert margins["queue-length"] > -10.0
        assert margins["num-cpus"] > -40.0
