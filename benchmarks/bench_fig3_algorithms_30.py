"""Figure 3 — four-way algorithm comparison at 30 DAGs.

Paper: (a) average DAG completion time — completion-time hybrid wins by
about 17%; (b) average job execution and idle time — hybrid jobs
execute ~5% faster and idle ~6% less.
"""

from repro.experiments import format_table
from repro.experiments.figures import ALGORITHM_LINEUP
from repro.experiments.metrics import improvement_pct

from benchmarks.common import emit, full_scale, run_cases

LABELS = tuple(s.label for s in ALGORITHM_LINEUP)
CASES = {"fig3": LABELS}


def _emit_tables(result, fig, expectation):
    n_dags = result["completion-time"].total_dags
    rows_a = []
    rows_b = []
    for label in LABELS:
        s = result[label]
        rows_a.append([label, f"{s.finished_dags}/{s.total_dags}",
                       s.avg_dag_completion_s])
        rows_b.append([label, s.avg_job_execution_s, s.avg_job_idle_s])
    ct = result["completion-time"].avg_dag_completion_s
    margins = {
        label: improvement_pct(ct, result[label].avg_dag_completion_s)
        for label in LABELS if label != "completion-time"
    }
    margin_txt = ", ".join(f"{k} {v:.0f}%" for k, v in margins.items())
    emit(f"{fig}a_dag_completion", format_table(
        ["algorithm", "dags", "avg dag completion (s)"], rows_a,
        title=(f"Fig {fig}(a): avg DAG completion, {n_dags} dags x 10 jobs "
               f"({expectation})\ncompletion-time vs others: {margin_txt}"),
    ))
    emit(f"{fig}b_exec_idle", format_table(
        ["algorithm", "avg exec (s)", "avg idle (s)"], rows_b,
        title=f"Fig {fig}(b): avg job execution and idle time, {n_dags} dags",
    ))
    return margins


def test_fig3_algorithms_30(benchmark):
    result = run_cases(benchmark, CASES)["fig3"].result
    margins = _emit_tables(result, "3", "paper: completion-time ~17% better")
    if full_scale():
        # Shape: the hybrid beats every other strategy at 30 dags.
        assert all(m > 0 for m in margins.values()), margins
        # And its jobs run on faster sites.
        ct = result["completion-time"]
        rr = result["round-robin"]
        assert ct.avg_job_execution_s < rr.avg_job_execution_s
