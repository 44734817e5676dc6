"""Ablation — monitoring staleness vs queue-length scheduling quality.

The paper blames "stale information" from immature monitoring systems
for the queue-length algorithm's weakness.  This ablation sweeps the
monitoring update interval: with fresh data (30 s) the queue-length
strategy should close much of its gap to the completion-time hybrid;
at 2004-realistic staleness (300-900 s) it degrades.
"""

from repro.experiments import format_table

from benchmarks.common import emit, full_scale, run_cases

CASES = {f"ablation-staleness-{interval}s": ("queue-length", "completion-time")
         for interval in (30, 300, 900)}


def test_ablation_monitoring_staleness(benchmark):
    runs = run_cases(benchmark, CASES)
    rows = []
    for name in CASES:
        ql = runs[name].result["queue-length"]
        ct = runs[name].result["completion-time"]
        rows.append([name.removeprefix("ablation-staleness-"),
                     ql.avg_dag_completion_s, ct.avg_dag_completion_s,
                     ql.avg_dag_completion_s / ct.avg_dag_completion_s])
    emit("ablation_staleness", format_table(
        ["monitor interval", "queue-length (s)", "completion-time (s)",
         "ratio"],
        rows,
        title=(f"Ablation: monitoring staleness, {ct.total_dags} dags "
               f"(paper: stale monitoring is why queue-length loses)"),
    ))
    if full_scale():
        # At the 2004-realistic staleness (300 s) queue-length clearly
        # loses to the hybrid.  (Staleness is not monotone in our
        # testbed — very stale data dampens herding — so the paper's
        # blame on staleness is only part of the story; the rest is
        # queue-length's blindness to site speed.)
        at_300s = next(r for r in rows if r[0] == "300s")
        assert at_300s[3] > 1.2
