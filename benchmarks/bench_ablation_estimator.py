"""Ablation — estimator recency (EWMA) and planned-load correction.

Two design choices DESIGN.md calls out on top of eq. 3:

* **EWMA vs plain mean** — the paper's text says the approach estimates
  the "near future execution environment"; the EWMA operationalizes
  that.  A plain all-history mean is the literal reading of eq. 3.
* **Planned-load correction** — `avg * (1 + planned/CPUs)` keeps one
  planning pass from herding every ready job onto the momentarily-best
  site.

Both variants are run head-to-head against the default.
"""

from repro.experiments import format_table

from benchmarks.common import emit, full_scale, run_cases

CASES = {"ablation-estimator": ("default(ewma+corr)", "mean-estimator",
                                "no-correction")}


def test_ablation_estimator(benchmark):
    result = run_cases(benchmark, CASES)["ablation-estimator"].result
    n_dags = result["default(ewma+corr)"].total_dags
    rows = []
    for label in CASES["ablation-estimator"]:
        s = result[label]
        rows.append([label, f"{s.finished_dags}/{s.total_dags}",
                     s.avg_dag_completion_s, s.resubmissions])
    emit("ablation_estimator", format_table(
        ["variant", "dags", "avg dag completion (s)", "resubmissions"],
        rows,
        title=f"Ablation: completion-time estimator variants, {n_dags} dags",
    ))
    if full_scale():
        # All variants must complete the workload; the default should not
        # be dominated (>25% worse) by either ablated variant.
        base = result["default(ewma+corr)"].avg_dag_completion_s
        for label in CASES["ablation-estimator"]:
            assert result[label].finished_dags == n_dags
            assert base < 1.25 * result[label].avg_dag_completion_s
