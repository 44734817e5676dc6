"""Unit tests for the four scheduling algorithms + extensions.

Each case states its candidates as ``SiteView`` records and hands them
to the algorithm as a site table (``pool_of``).
"""

import numpy as np
import pytest

from repro.core.algorithms import (
    SiteColumns,
    available_algorithms,
    make_algorithm,
)
from repro.core.algorithms.qos import _SAFETY_MARGIN

from tests.core.reference_algorithms import SiteView, candidate_views, pool_of


def view(name, cpus=10, planned=0, unfinished=0, queued=None, running=None,
         avg=None, predicted=None):
    return SiteView(
        name=name,
        n_cpus=cpus,
        planned_jobs=planned,
        unfinished_jobs=unfinished,
        monitored_queued=queued,
        monitored_running=running,
        avg_completion_s=avg,
        predicted_completion_s=predicted,
    )


def test_site_view_validation():
    """Every row of the site table needs at least one CPU."""
    with pytest.raises(ValueError, match="s1 must have >= 1 CPU"):
        SiteColumns(["s0", "s1"], [4, 0])


class TestColumns:
    def test_view_round_trip(self):
        sites = [view("a", cpus=4, planned=1, unfinished=2, queued=3,
                      running=0, avg=90.0, predicted=120.0),
                 view("b")]
        assert candidate_views(pool_of(sites)) == sites

    def test_argmin_first_wins_and_skips_nan(self):
        pool = pool_of([view("a"), view("b"), view("c"), view("d")],
                       mask=[False, True, True, True])
        nan = float("nan")
        # a scores lowest but is not a candidate; b has no score; c and d
        # tie and the earlier wins.
        assert pool.argmin(np.array([0.0, nan, 2.0, 2.0])) == "c"
        assert pool.argmin(np.array([0.0, nan, nan, nan])) is None

    def test_nth_rotates_over_the_true_rows(self):
        pool = pool_of([view("a"), view("b"), view("c")])
        rows = np.array([True, False, True])
        assert [pool.nth(rows, k) for k in range(3)] == ["a", "c", "a"]
        assert pool.nth(np.zeros(3, dtype=bool), 5) is None


class TestScores:
    """What the job span records: the score each algorithm chose by."""

    def test_num_cpus_scores_eq1(self):
        sites = [view("a", cpus=4, planned=1, unfinished=1), view("b")]
        alg = make_algorithm("num-cpus")
        assert list(alg.score(pool_of(sites))) == [0.5, 0.0]

    def test_queue_length_scores_eq2_with_missing_snapshot_as_empty(self):
        sites = [view("a", cpus=10, queued=4, running=4, planned=2),
                 view("b", cpus=10, planned=1)]
        alg = make_algorithm("queue-length")
        assert list(alg.score(pool_of(sites))) == [1.0, 0.1]

    def test_completion_time_scores_the_prediction(self):
        sites = [view("a", avg=100.0, predicted=130.0), view("b")]
        score = make_algorithm("completion-time").score(pool_of(sites))
        assert score[0] == 130.0 and np.isnan(score[1])

    def test_round_robin_scores_its_rotation_index(self):
        """No score: each candidate's distance from the cursor, so the
        site the next call picks scores 0."""
        rr = make_algorithm("round-robin")
        pool = pool_of([view("a"), view("b"), view("c"), view("d")],
                       mask=[True, False, True, True])
        rr.choose_site("j0", pool)  # a
        score = rr.score(pool)
        assert [score[i] for i in (0, 2, 3)] == [2, 0, 1]
        assert rr.choose_site("j1", pool) == "c"


class TestRegistry:
    def test_all_algorithms_available(self):
        assert set(available_algorithms()) == {
            "round-robin", "num-cpus", "queue-length", "completion-time",
            "qos-deadline",
        }

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            make_algorithm("ghost")

    def test_instances_are_independent(self):
        a = make_algorithm("round-robin")
        b = make_algorithm("round-robin")
        sites = [view("x"), view("y")]
        assert a.choose_site("j", pool_of(sites)) == "x"
        assert b.choose_site("j", pool_of(sites)) == "x"  # own cursor

    def test_kwargs_forwarded(self):
        qos = make_algorithm("qos-deadline", deadline_s=42.0)
        assert qos.deadline_s == 42.0


class TestRoundRobin:
    def test_cycles(self):
        rr = make_algorithm("round-robin")
        sites = [view("a"), view("b"), view("c")]
        picks = [rr.choose_site(f"j{i}", pool_of(sites)) for i in range(6)]
        assert picks == ["a", "b", "c", "a", "b", "c"]

    def test_empty_pool(self):
        algorithm = make_algorithm("round-robin")
        assert algorithm.choose_site("j", pool_of([])) is None

    def test_shrunk_pool_keeps_rotating(self):
        rr = make_algorithm("round-robin")
        rr.choose_site("j0", pool_of([view("a"), view("b"), view("c")]))
        # "b" now filtered out (unreliable): rotation continues over rest.
        picks = [rr.choose_site(f"j{i}", pool_of([view("a"), view("c")]))
                 for i in range(1, 4)]
        assert picks == ["c", "a", "c"]


class TestNumCpus:
    def test_least_load_rate_wins(self):
        alg = make_algorithm("num-cpus")
        sites = [
            view("busy", cpus=10, planned=8, unfinished=2),   # rate 1.0
            view("idle", cpus=10, planned=1),                  # rate 0.1
        ]
        assert alg.choose_site("j", pool_of(sites)) == "idle"

    def test_big_site_attracts_despite_hidden_load(self):
        """The paper's flaw: static CPU counts cannot see external load."""
        alg = make_algorithm("num-cpus")
        sites = [
            view("big", cpus=100),    # overloaded by others, invisible here
            view("small", cpus=4),
        ]
        # ties at 0.0: first wins
        assert alg.choose_site("j", pool_of(sites)) == "big"

    def test_rate_formula_eq1(self):
        alg = make_algorithm("num-cpus")
        sites = [
            view("a", cpus=4, planned=1, unfinished=1),   # 0.5
            view("b", cpus=10, planned=2, unfinished=2),  # 0.4
        ]
        assert alg.choose_site("j", pool_of(sites)) == "b"

    def test_empty_pool(self):
        algorithm = make_algorithm("num-cpus")
        assert algorithm.choose_site("j", pool_of([])) is None


class TestQueueLength:
    def test_uses_monitored_queue(self):
        alg = make_algorithm("queue-length")
        sites = [
            view("loaded", cpus=10, queued=20, running=10),  # 3.0
            view("free", cpus=10, queued=0, running=2),      # 0.2
        ]
        assert alg.choose_site("j", pool_of(sites)) == "free"

    def test_eq2_includes_planned(self):
        alg = make_algorithm("queue-length")
        sites = [
            view("a", cpus=10, queued=0, running=0, planned=9),  # 0.9
            view("b", cpus=10, queued=4, running=4, planned=0),  # 0.8
        ]
        assert alg.choose_site("j", pool_of(sites)) == "b"

    def test_missing_snapshot_is_optimistic(self):
        """The blackhole trap: an unpollable site looks empty."""
        alg = make_algorithm("queue-length")
        sites = [
            view("healthy", cpus=10, queued=10, running=10),
            view("blackhole", cpus=10, queued=None, running=None),
        ]
        assert alg.choose_site("j", pool_of(sites)) == "blackhole"

    def test_empty_pool(self):
        algorithm = make_algorithm("queue-length")
        assert algorithm.choose_site("j", pool_of([])) is None


class TestCompletionTime:
    def test_bootstrap_round_robin_over_unsampled(self):
        alg = make_algorithm("completion-time")
        sites = [view("a"), view("b", avg=100.0), view("c")]
        picks = [alg.choose_site(f"j{i}", pool_of(sites)) for i in range(4)]
        # a and c lack data: bootstrap cycles over them only.
        assert picks == ["a", "c", "a", "c"]

    def test_argmin_when_all_sampled(self):
        alg = make_algorithm("completion-time")
        sites = [
            view("slow", avg=300.0),
            view("fast", avg=90.0),
            view("mid", avg=150.0),
        ]
        assert alg.choose_site("j", pool_of(sites)) == "fast"

    def test_prefers_predicted_over_avg(self):
        alg = make_algorithm("completion-time")
        sites = [
            view("a", avg=100.0, predicted=500.0),  # corrected for backlog
            view("b", avg=200.0, predicted=200.0),
        ]
        assert alg.choose_site("j", pool_of(sites)) == "b"

    def test_eq3_normalization_is_argmin_invariant(self):
        """Dividing all Avg_comp by their sum never changes the winner."""
        alg = make_algorithm("completion-time")
        raw = [view("a", avg=120.0), view("b", avg=60.0), view("c", avg=240.0)]
        total = sum(v.avg_completion_s for v in raw)
        normalized = [
            view(v.name, avg=v.avg_completion_s / total) for v in raw
        ]
        assert alg.choose_site("j", pool_of(raw)) == make_algorithm(
            "completion-time"
        ).choose_site("j", pool_of(normalized)) == "b"

    def test_empty_pool(self):
        algorithm = make_algorithm("completion-time")
        assert algorithm.choose_site("j", pool_of([])) is None


class TestQosDeadline:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_algorithm("qos-deadline", deadline_s=0)

    def test_nan_deadline_rejected(self):
        """A NaN deadline would turn every budget into 0 and degrade
        every job to the finish-ASAP argmin without a word."""
        with pytest.raises(ValueError):
            make_algorithm("qos-deadline", deadline_s=float("nan"))

    def test_bootstrap_like_hybrid(self):
        alg = make_algorithm("qos-deadline", deadline_s=100.0)
        sites = [view("a"), view("b")]
        assert alg.choose_site("j0", pool_of(sites)) == "a"
        assert alg.choose_site("j1", pool_of(sites)) == "b"

    def test_spreads_over_deadline_safe_sites(self):
        alg = make_algorithm("qos-deadline", deadline_s=400.0)
        # Budget = 0.6 * 400 = 240: both fit; the rotation covers both
        # instead of racing everything to the fastest.
        sites = [view("fast", avg=50.0), view("ok", avg=180.0)]
        picks = {alg.choose_site(f"j{i}", pool_of(sites)) for i in range(4)}
        assert picks == {"fast", "ok"}

    def test_safety_margin_guards_stale_estimates(self):
        alg = make_algorithm("qos-deadline", deadline_s=200.0)
        # 180 <= 200 but > the safety margin's share: too risky, use
        # the fast site.
        assert _SAFETY_MARGIN * 200.0 < 180.0
        sites = [view("fast", avg=50.0), view("risky", avg=180.0)]
        assert alg.choose_site("j", pool_of(sites)) == "fast"

    def test_falls_back_to_fastest_when_deadline_unmeetable(self):
        alg = make_algorithm("qos-deadline", deadline_s=10.0)
        sites = [view("slow", avg=300.0), view("less-slow", avg=200.0)]
        assert alg.choose_site("j", pool_of(sites)) == "less-slow"

    def test_empty_pool(self):
        algorithm = make_algorithm("qos-deadline")
        assert algorithm.choose_site("j", pool_of([])) is None

    def test_ctx_splits_budget_across_remaining_levels(self):
        alg = make_algorithm("qos-deadline", deadline_s=400.0)
        sites = [view("fast", avg=100.0), view("slow", avg=180.0)]
        # Full budget 0.6*400=240: both feasible.  With 2 levels still
        # ahead this stage gets 120: only the fast site fits.
        ctx = {"now": 0.0, "received_at": 0.0, "remaining_levels": 2}
        picks = {alg.choose_site_ctx(f"j{i}", pool_of(sites), ctx)
                 for i in range(4)}
        assert picks == {"fast"}

    def test_ctx_budget_shrinks_as_time_elapses(self):
        alg = make_algorithm("qos-deadline", deadline_s=400.0)
        sites = [view("fast", avg=100.0), view("slow", avg=180.0)]
        early = {"now": 0.0, "received_at": 0.0, "remaining_levels": 1}
        picks = {alg.choose_site_ctx(f"j{i}", pool_of(sites), early)
                 for i in range(4)}
        assert picks == {"fast", "slow"}  # 240s budget: spread
        late = {"now": 300.0, "received_at": 0.0, "remaining_levels": 1}
        picks = {alg.choose_site_ctx(f"k{i}", pool_of(sites), late)
                 for i in range(4)}
        assert picks == {"fast"}  # 60s budget left: only the fast site

    def test_ctx_blown_deadline_degrades_to_argmin(self):
        alg = make_algorithm("qos-deadline", deadline_s=400.0)
        sites = [view("slow", avg=300.0), view("less-slow", avg=200.0)]
        ctx = {"now": 900.0, "received_at": 0.0, "remaining_levels": 3}
        assert alg.choose_site_ctx("j", pool_of(sites), ctx) == "less-slow"

    def test_ctx_disabled_uses_static_semantics(self):
        alg = make_algorithm("qos-deadline", deadline_s=400.0,
                             dag_deadline=False)
        sites = [view("fast", avg=100.0), view("slow", avg=180.0)]
        ctx = {"now": 399.0, "received_at": 0.0, "remaining_levels": 5}
        picks = {alg.choose_site_ctx(f"j{i}", pool_of(sites), ctx)
                 for i in range(4)}
        assert picks == {"fast", "slow"}  # static 240s budget, no shrink

    def test_cursors_persist_across_warehouse_round_trip(self):
        from repro.core.warehouse import Warehouse

        w = Warehouse()
        alg = make_algorithm("qos-deadline", deadline_s=400.0)
        alg.bind_state(w)
        sites = [view("a", avg=50.0), view("b", avg=60.0)]
        first = [alg.choose_site(f"j{i}", pool_of(sites)) for i in range(3)]
        # crash-restart: a new instance bound to the restored warehouse
        # continues the rotation instead of rewinding to "a".
        w2 = Warehouse()
        w2.restore(w.snapshot())
        alg2 = make_algorithm("qos-deadline", deadline_s=400.0)
        alg2.bind_state(w2)
        cont = [alg2.choose_site(f"k{i}", pool_of(sites)) for i in range(3)]
        assert (first + cont)[:6] == ["a", "b", "a", "b", "a", "b"]
