"""Figure 8 — rescheduling (timeout) counts per strategy.

Paper: completion-time 125 resubmissions, round-robin (with feedback)
154, while #CPUs *without feedback* resubmitted 2258 times — "without
any feedback information, the number of resubmissions is very high".
The shape to reproduce: the no-feedback variant resubmits an order of
magnitude more than the feedback-driven strategies.
"""

from repro.experiments import format_table

from benchmarks.common import emit, full_scale, run_cases

CASES = {"fig8": ("completion-time", "queue-length", "num-cpus",
                  "round-robin", "num-cpus-nofb")}


def test_fig8_timeouts(benchmark):
    result = run_cases(benchmark, CASES)["fig8"].result
    rows = []
    for label in CASES["fig8"]:
        s = result[label]
        rows.append([label, s.resubmissions, s.timeouts,
                     f"{s.finished_dags}/{s.total_dags}"])
    emit("fig8_timeouts", format_table(
        ["strategy", "resubmissions", "timeouts", "dags"], rows,
        title=(f"Fig 8: rescheduling counts, "
               f"{result['completion-time'].total_dags} dags x 10 jobs "
               f"(paper: 125 completion-time ... 2258 without feedback)"),
    ))
    if full_scale():
        nofb = result["num-cpus-nofb"].resubmissions
        withfb = result["num-cpus"].resubmissions
        ct = result["completion-time"].resubmissions
        # Shape: feedback slashes resubmissions — the no-feedback
        # variant keeps feeding the blackholes every timeout cycle —
        # and completion-time is the least wasteful strategy by far.
        assert nofb > 1.5 * max(withfb, 1)
        assert nofb > 10 * max(ct, 1)
        assert ct <= result["round-robin"].resubmissions
