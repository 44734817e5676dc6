"""Extension — work preserved under spot-style eviction storms.

Two completion-time servers face the same per-site eviction schedule
(drain notice, then slot reclaim).  The ``resubmit`` variant pins the
kill-and-resubmit baseline: every evicted job restarts from zero.  The
``migrate`` variant checkpoints running jobs and live-migrates work off
draining sites inside the notice window.  Sweeping the per-site MTBF
downward, the expected shape is that both variants finish the workload
(evictions are transient; the DAGs must survive at any rate) while the
checkpoint+migrate policy loses measurably less attempt progress —
the paper's fault-tolerance argument extended from site crashes to
advertised preemption.  Each case is a chaos drill, so a violated
invariant fails the run.
"""

from repro.experiments import format_table

from benchmarks.common import emit, full_scale, run_cases

#: per-site mean time between evictions on 10 sites, calm -> aggressive
CASES = {f"ext-eviction-mtbf{mtbf}": ("resubmit", "migrate")
         for mtbf in (3600, 900)}


def test_ext_eviction(benchmark):
    runs = run_cases(benchmark, CASES)
    servers = [(name, label, runs[name].result[label])
               for name, labels in CASES.items() for label in labels]
    rows = [[name.removeprefix("ext-eviction-mtbf"), label,
             f"{s.finished_dags}/{s.total_dags}",
             s.avg_dag_completion_s, s.preempted_work_s,
             s.migrations, s.checkpoint_restores]
            for name, label, s in servers]
    emit("ext_eviction", format_table(
        ["MTBF (s)", "policy", "dags", "avg dag (s)",
         "lost work (s)", "migrations", "restores"],
        rows,
        title=(f"Extension: eviction tolerance, 10 sites, "
               f"{servers[0][2].total_dags} dags per server"),
    ))
    for name, label, s in servers:
        assert s.finished_dags == s.total_dags, f"{label} lost DAGs in {name}"
    if full_scale():
        # The point of the extension: at the aggressive eviction rate,
        # checkpoint+migrate must preserve strictly more attempt
        # progress than kill-and-resubmit.
        aggressive = runs["ext-eviction-mtbf900"].result
        assert (aggressive["migrate"].preempted_work_s
                < aggressive["resubmit"].preempted_work_s), \
            "checkpoint+migrate did not reduce preemption loss"
