"""Extension — heterogeneous workloads (paper §6 future work).

The paper's experiments used identical jobs; §6 plans "different types
of workload to reflect general and real applications".  This bench
mixes short (30 s) and long (300 s) job classes and checks that the
completion-time hybrid still beats round-robin — the feedback signal
survives runtime heterogeneity.
"""

from repro.experiments import format_table

from benchmarks.common import emit, full_scale, run_cases

CASES = {"ext-heterogeneous": ("completion-time", "round-robin")}


def test_ext_heterogeneous_workload(benchmark):
    result = run_cases(benchmark, CASES)["ext-heterogeneous"].result
    n_dags = result["completion-time"].total_dags
    rows = [
        [label, f"{result[label].finished_dags}/{n_dags}",
         result[label].avg_dag_completion_s, result[label].resubmissions]
        for label in CASES["ext-heterogeneous"]
    ]
    emit("ext_heterogeneous", format_table(
        ["algorithm", "dags", "avg dag completion (s)", "resubmissions"],
        rows,
        title=(f"Extension: heterogeneous workload (30s/300s mix), "
               f"{n_dags} dags"),
    ))
    if full_scale():
        assert result["completion-time"].avg_dag_completion_s < \
            result["round-robin"].avg_dag_completion_s
