"""Golden regression for the control plane (fig2 scenario, smoke scale).

Headline metrics of ``fig2_feedback(4 DAGs, seed 7, 6 h)`` are pinned
bit-for-bit: kernel event count, RPC count, and per variant the
finished DAGs, average DAG completion, resubmission/timeout tallies and
per-site job distribution.  The pins are tied to the kernel's event
accounting (only subscribed events reach the heap), the network
model's tie-break and the single-leg RPC; a change to any of those
re-captures them and lists old and new values in CHANGES.md.
"""

import pytest

from repro.experiments import fig2_feedback

GOLDEN_EVENT_COUNT = 35407
GOLDEN_RPC_COUNT = 511
GOLDEN = {
    "round-robin+fb": {
        "finished": (4, 4),
        "avg_completion_s": 2854.2414323414027,
        "resubmissions": 7,
        "timeouts": 5,
        "jobs_per_site": {
            "acdc": 4, "citgrid3": 4, "cluster28": 4, "grid3": 4,
            "ll03": 4, "nest": 2, "spider": 4, "spike": 2,
            "tier2-01": 2, "tier2b": 3, "ufgrid01": 2,
            "ufloridapg": 2, "uscmstb": 3,
        },
    },
    "round-robin-nofb": {
        "finished": (4, 4),
        "avg_completion_s": 4707.2097092367985,
        "resubmissions": 11,
        "timeouts": 9,
        "jobs_per_site": {
            "acdc": 3, "citgrid3": 4, "cluster28": 4, "grid3": 4,
            "ll03": 4, "nest": 2, "spider": 3, "spike": 2,
            "tier2-01": 3, "tier2b": 3, "ufgrid01": 3,
            "ufloridapg": 2, "uscmstb": 3,
        },
    },
    "num-cpus+fb": {
        "finished": (4, 4),
        "avg_completion_s": 4648.2454760362,
        "resubmissions": 7,
        "timeouts": 7,
        "jobs_per_site": {
            "acdc": 11, "citgrid3": 12, "cluster28": 5, "grid3": 5,
            "ll03": 6, "nest": 1,
        },
    },
    "num-cpus-nofb": {
        "finished": (3, 4),
        "avg_completion_s": 9305.42209025015,
        "resubmissions": 17,
        "timeouts": 17,
        "jobs_per_site": {
            "acdc": 9, "citgrid3": 9, "cluster28": 4, "grid3": 5,
            "ll03": 4, "nest": 1,
        },
    },
}


@pytest.fixture(scope="module")
def result():
    return fig2_feedback(n_dags=4, seed=7, horizon_s=6 * 3600.0)


def test_event_and_rpc_counts_are_bit_identical(result):
    assert result.event_count == GOLDEN_EVENT_COUNT
    assert result.rpc_count == GOLDEN_RPC_COUNT


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_headline_metrics_are_bit_identical(result, label):
    golden, s = GOLDEN[label], result[label]
    assert (s.finished_dags, s.total_dags) == golden["finished"]
    assert s.avg_dag_completion_s == golden["avg_completion_s"]
    assert s.resubmissions == golden["resubmissions"]
    assert s.timeouts == golden["timeouts"]
    assert dict(sorted(s.jobs_per_site.items())) == golden["jobs_per_site"]
