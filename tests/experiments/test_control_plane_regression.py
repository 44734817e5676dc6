"""Golden regression tests for the control-plane modes (fig2 scenario).

Two guarantees this PR's event-driven control plane makes:

1. **Poll mode is frozen.**  The legacy fixed-period mode must produce
   bit-identical headline metrics to its pinned values — same event
   count, same completion times, same resubmission/timeout tallies,
   same per-site job distribution.  Any drift means a change leaked
   into the legacy path.  The pins are tied to the network model's
   event accounting and tie-break (share changes cost no kernel events;
   same-instant transfer completions resume in flow-start order): a
   change to either re-captures them and lists old and new values in
   CHANGES.md.

2. **Push does the same work, no worse.**  Push-mode planning happens
   at the causing instant instead of the next poll boundary, so its
   decision *trajectory* legitimately diverges from poll's at the
   first replanning point — individual DAGs may finish earlier or
   later.  The invariants that are well-posed across diverging
   trajectories: every DAG poll finishes within the horizon, push also
   finishes; no variant finishes fewer DAGs; and the aggregate DAG
   completion metric, pooled over seeds 7-10, is no worse than poll's
   by more than 5 % (a single seed is luck: at seed 8 push has always
   been behind poll, at seed 9 ahead).

These run the fig2 scenario at smoke scale (4 DAGs, 6 h horizon,
seed 7) so the whole module stays in tier-1 time budgets.
"""

import pytest

from repro.experiments import fig2_feedback

N_DAGS = 4
SEED = 7
HORIZON_S = 6 * 3600.0

#: seeds pooled by the push-vs-poll completion comparison
POOL_SEEDS = (7, 8, 9, 10)
#: push may trail poll by this much on the pooled completion metric
PUSH_TOLERANCE = 0.05

#: Pinned poll-mode headline metrics for the configuration above.
#: The event count was 250757 while every batch-queue job ran as its own
#: kernel Process; its boot and process-settle events are gone (DESIGN.md
#: §5l).  Every float and count in GOLDEN_POLL below predates that change.
GOLDEN_POLL_EVENT_COUNT = 224583
GOLDEN_POLL = {
    "round-robin+fb": {
        "finished": (4, 4),
        "avg_completion_s": 2943.2086822860656,
        "resubmissions": 7,
        "timeouts": 5,
        "jobs_per_site": {
            "acdc": 3, "citgrid3": 3, "cluster28": 4, "grid3": 4,
            "ll03": 4, "nest": 2, "spider": 4, "spike": 3,
            "tier2-01": 3, "tier2b": 2, "ufgrid01": 2,
            "ufloridapg": 3, "uscmstb": 3,
        },
    },
    "round-robin-nofb": {
        "finished": (4, 4),
        "avg_completion_s": 3683.4933229525036,
        "resubmissions": 10,
        "timeouts": 9,
        "jobs_per_site": {
            "acdc": 3, "citgrid3": 4, "cluster28": 4, "grid3": 4,
            "ll03": 3, "nest": 2, "spider": 3, "spike": 2,
            "tier2-01": 3, "tier2b": 3, "ufgrid01": 3,
            "ufloridapg": 3, "uscmstb": 3,
        },
    },
    "num-cpus+fb": {
        "finished": (4, 4),
        "avg_completion_s": 4664.266814253009,
        "resubmissions": 7,
        "timeouts": 7,
        "jobs_per_site": {
            "acdc": 10, "citgrid3": 13, "cluster28": 5, "grid3": 6,
            "ll03": 5, "nest": 1,
        },
    },
    "num-cpus-nofb": {
        "finished": (3, 4),
        "avg_completion_s": 9421.233603186709,
        "resubmissions": 17,
        "timeouts": 17,
        "jobs_per_site": {
            "acdc": 10, "citgrid3": 9, "cluster28": 3, "grid3": 5,
            "ll03": 4, "nest": 1,
        },
    },
}


def _run(seed):
    return {
        mode: fig2_feedback(n_dags=N_DAGS, seed=seed, horizon_s=HORIZON_S,
                            control_plane=mode)
        for mode in ("poll", "push")
    }


@pytest.fixture(scope="module")
def results():
    return _run(SEED)


@pytest.fixture(scope="module")
def pooled(results):
    return [results if seed == SEED else _run(seed) for seed in POOL_SEEDS]


def test_poll_mode_headline_metrics_are_bit_identical(results):
    poll = results["poll"]
    assert poll.event_count == GOLDEN_POLL_EVENT_COUNT
    for label, golden in GOLDEN_POLL.items():
        s = poll[label]
        assert (s.finished_dags, s.total_dags) == golden["finished"], label
        assert s.avg_dag_completion_s == golden["avg_completion_s"], label
        assert s.resubmissions == golden["resubmissions"], label
        assert s.timeouts == golden["timeouts"], label
        assert dict(sorted(s.jobs_per_site.items())) == \
            golden["jobs_per_site"], label


def test_push_mode_slashes_event_count(results):
    assert results["push"].event_count * 3 < results["poll"].event_count


def test_push_finishes_every_dag_poll_finishes(results):
    for label in GOLDEN_POLL:
        poll_done = set(results["poll"][label].dag_completion_times)
        push_done = set(results["push"][label].dag_completion_times)
        assert poll_done <= push_done, (label, poll_done - push_done)


def test_push_completion_metrics_equal_or_better(pooled):
    # Aggregate over all variants and seeds (individual trajectories
    # diverge; the scenario-level completion cost must not regress).
    # Sum of the four-variant means over POOL_SEEDS: push 18,106 s vs
    # poll 17,733 s (+2.1 %).
    total = {"poll": 0.0, "push": 0.0}
    for results in pooled:
        for label in GOLDEN_POLL:
            assert (results["push"][label].finished_dags
                    >= results["poll"][label].finished_dags), label
        for mode in total:
            total[mode] += sum(results[mode][lb].avg_dag_completion_s
                               for lb in GOLDEN_POLL) / len(GOLDEN_POLL)
    assert total["push"] <= total["poll"] * (1.0 + PUSH_TOLERANCE)
