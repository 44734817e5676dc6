"""Figure 6 — site-wise job distribution vs average completion time.

Paper: with the completion-time approach (6a) "the number of jobs
scheduled on a site is inversely proportional to its average job
completion time"; the #CPUs algorithm (6b) "does not follow the trend".
We quantify "inversely proportional" as a Spearman rank correlation:
strongly negative for completion-time, weaker for num-cpus.
"""

from repro.experiments import format_table
from repro.experiments.figures import fig6_tables

from benchmarks.common import emit, full_scale, run_cases

CASES = {"fig6": ("completion-time", "num-cpus")}


def test_fig6_site_distribution(benchmark):
    result = run_cases(benchmark, CASES)["fig6"].result
    tables, correlations = fig6_tables(result)
    n_dags = result["completion-time"].total_dags
    for label in CASES["fig6"]:
        rows = [[site, jobs, avg] for site, jobs, avg in tables[label]]
        sub = "a" if label == "completion-time" else "b"
        emit(f"fig6{sub}_{label.replace('-', '_')}", format_table(
            ["site", "# completed jobs", "avg completion (s)"], rows,
            title=(f"Fig 6({sub}): {label}, {n_dags} dags — "
                   f"jobs-vs-avg-completion Spearman r = "
                   f"{correlations[label]:+.2f}"),
        ))
    if full_scale():
        # Shape: strong inverse proportionality for the hybrid (Fig 6a).
        assert correlations["completion-time"] < -0.5
        # num-cpus must not show a *stronger* inverse trend than the
        # algorithm that schedules by completion time.  (In our testbed
        # num-cpus also trends negative — feedback filtering shapes all
        # algorithms' completion counts — so the paper's "no trend" is
        # asserted only relatively; see EXPERIMENTS.md.)
        assert correlations["completion-time"] <= \
            correlations["num-cpus"] + 0.1
