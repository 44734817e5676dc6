"""Extension — reactive feedback vs proactive advance reservations.

Two completion-time servers compete under the standard Grid3 fault
script.  The ``reservation`` variant books site slots ahead for
downstream DAG stages over the Condor-G reservation RPC (the site
schedulers EASY-backfill short jobs into the resulting holes); the
``reactive`` variant is the plain feedback loop.  Expected shape:
proactivity never costs completions (site-side expiry releases every
slot a dead or slow plan strands), and the reservation variant's DAG
completion average is no worse than the reactive baseline's.
"""

from repro.experiments import format_table
from repro.experiments.parallel import project

from benchmarks.common import emit, full_scale, run_cases

CASES = {"ext-reservation": ("reactive", "reservation")}


def test_ext_reservation(benchmark):
    run = run_cases(benchmark, CASES)["ext-reservation"]
    result = run.result
    counts = project(run.metrics)["reservations"]
    rows = []
    for label in CASES["ext-reservation"]:
        s = result[label]
        rows.append([label, s.finished_dags, s.avg_dag_completion_s,
                     s.avg_job_idle_s, s.resubmissions])
    emit("ext_reservation", format_table(
        ["variant", "finished dags", "avg dag completion (s)",
         "avg job idle (s)", "resubmissions"],
        rows,
        title=(f"Extension: reactive vs advance reservations, "
               f"{result['reactive'].total_dags} dags"
               f" | reservations: "
               + " ".join(f"{k}={v}" for k, v in counts.items())),
    ))
    assert counts["confirmed"] > 0, "reserve-ahead server never reserved"
    if full_scale():
        # Proactive reservations must not cost completions: site-side
        # expiry frees stranded slots, and unplanned jobs fall back to
        # the normal queue, so at worst it ties the reactive baseline
        # (small slack for fault-script timing interactions).
        assert result["reservation"].finished_dags >= \
            result["reactive"].finished_dags - 2
