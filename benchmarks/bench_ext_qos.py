"""Extension — deadline-aware QoS scheduling (paper §6 future work).

Run on a fault-free grid (the extension demonstrates deadline
awareness, not fault tolerance).  ``qos-deadline`` now plans whole
DAGs against an absolute deadline: the remaining budget is re-split
across the stages still ahead as sim-time elapses, so early slack is
spent where it helps and late stages get the strictest placement.
The hybrid shows the light-load baseline (it meets deadlines for free
by being fast); round-robin anchors the naive end.
"""

from repro.experiments import format_table

from benchmarks.common import emit, full_scale, run_cases, suite_cases

CASES = {"ext-qos": ("qos-deadline", "completion-time", "round-robin")}


def dag_deadline_hits(server_result, deadline_s):
    """% of finished DAGs that completed within the absolute deadline."""
    times = server_result.dag_completion_times
    if not times:
        return 0.0
    hit = sum(1 for t in times.values() if t <= deadline_s)
    return 100.0 * hit / server_result.total_dags


def test_ext_qos_deadline(benchmark):
    # the absolute per-DAG deadline (submission -> last job done)
    specs = {s.label: s for s in suite_cases()["ext-qos"].scenario.servers}
    deadline_s = specs["qos-deadline"].algorithm_kwargs["deadline_s"]
    result = run_cases(benchmark, CASES)["ext-qos"].result
    rows = []
    for label in CASES["ext-qos"]:
        s = result[label]
        rows.append([label, s.avg_dag_completion_s,
                     dag_deadline_hits(s, deadline_s)])
    emit("ext_qos", format_table(
        ["algorithm", "avg dag completion (s)",
         f"% dags <= {deadline_s:.0f}s"],
        rows,
        title=f"Extension: QoS DAG-deadline scheduling (fault-free), "
              f"{result['qos-deadline'].total_dags} dags",
    ))
    if full_scale():
        # Within a couple of points of round-robin's DAG hit rate while
        # deliberately spreading load (not racing to the fastest site).
        assert dag_deadline_hits(result["qos-deadline"], deadline_s) >= \
            dag_deadline_hits(result["round-robin"], deadline_s) - 3.0
        assert result["qos-deadline"].finished_dags == \
            result["qos-deadline"].total_dags
