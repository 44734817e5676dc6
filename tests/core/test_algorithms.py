"""Unit tests for the four scheduling algorithms + extensions."""

import pytest

from repro.core.algorithms import (
    SiteView,
    available_algorithms,
    make_algorithm,
)
from repro.core.algorithms.qos import _SAFETY_MARGIN


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
    with pytest.raises(ValueError):
        view("s", cpus=0)


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
        assert a.choose_site("j", sites) == "x"
        assert b.choose_site("j", sites) == "x"  # own cursor

    def test_kwargs_forwarded(self):
        qos = make_algorithm("qos-deadline", deadline_s=42.0)
        assert qos.deadline_s == 42.0


class TestRoundRobin:
    def test_cycles(self):
        rr = make_algorithm("round-robin")
        sites = [view("a"), view("b"), view("c")]
        picks = [rr.choose_site(f"j{i}", sites) for i in range(6)]
        assert picks == ["a", "b", "c", "a", "b", "c"]

    def test_empty_pool(self):
        assert make_algorithm("round-robin").choose_site("j", []) is None

    def test_shrunk_pool_keeps_rotating(self):
        rr = make_algorithm("round-robin")
        rr.choose_site("j0", [view("a"), view("b"), view("c")])
        # "b" now filtered out (unreliable): rotation continues over rest.
        picks = [rr.choose_site(f"j{i}", [view("a"), view("c")])
                 for i in range(1, 4)]
        assert picks == ["c", "a", "c"]


class TestNumCpus:
    def test_least_load_rate_wins(self):
        alg = make_algorithm("num-cpus")
        sites = [
            view("busy", cpus=10, planned=8, unfinished=2),   # rate 1.0
            view("idle", cpus=10, planned=1),                  # rate 0.1
        ]
        assert alg.choose_site("j", sites) == "idle"

    def test_big_site_attracts_despite_hidden_load(self):
        """The paper's flaw: static CPU counts cannot see external load."""
        alg = make_algorithm("num-cpus")
        sites = [
            view("big", cpus=100),    # overloaded by others, invisible here
            view("small", cpus=4),
        ]
        assert alg.choose_site("j", sites) == "big"  # ties at 0.0: first wins

    def test_rate_formula_eq1(self):
        alg = make_algorithm("num-cpus")
        sites = [
            view("a", cpus=4, planned=1, unfinished=1),   # 0.5
            view("b", cpus=10, planned=2, unfinished=2),  # 0.4
        ]
        assert alg.choose_site("j", sites) == "b"

    def test_empty_pool(self):
        assert make_algorithm("num-cpus").choose_site("j", []) is None


class TestQueueLength:
    def test_uses_monitored_queue(self):
        alg = make_algorithm("queue-length")
        sites = [
            view("loaded", cpus=10, queued=20, running=10),  # 3.0
            view("free", cpus=10, queued=0, running=2),      # 0.2
        ]
        assert alg.choose_site("j", sites) == "free"

    def test_eq2_includes_planned(self):
        alg = make_algorithm("queue-length")
        sites = [
            view("a", cpus=10, queued=0, running=0, planned=9),  # 0.9
            view("b", cpus=10, queued=4, running=4, planned=0),  # 0.8
        ]
        assert alg.choose_site("j", sites) == "b"

    def test_missing_snapshot_is_optimistic(self):
        """The blackhole trap: an unpollable site looks empty."""
        alg = make_algorithm("queue-length")
        sites = [
            view("healthy", cpus=10, queued=10, running=10),
            view("blackhole", cpus=10, queued=None, running=None),
        ]
        assert alg.choose_site("j", sites) == "blackhole"

    def test_empty_pool(self):
        assert make_algorithm("queue-length").choose_site("j", []) is None


class TestCompletionTime:
    def test_bootstrap_round_robin_over_unsampled(self):
        alg = make_algorithm("completion-time")
        sites = [view("a"), view("b", avg=100.0), view("c")]
        picks = [alg.choose_site(f"j{i}", sites) for i in range(4)]
        # a and c lack data: bootstrap cycles over them only.
        assert picks == ["a", "c", "a", "c"]

    def test_argmin_when_all_sampled(self):
        alg = make_algorithm("completion-time")
        sites = [
            view("slow", avg=300.0),
            view("fast", avg=90.0),
            view("mid", avg=150.0),
        ]
        assert alg.choose_site("j", sites) == "fast"

    def test_prefers_predicted_over_avg(self):
        alg = make_algorithm("completion-time")
        sites = [
            view("a", avg=100.0, predicted=500.0),  # corrected for backlog
            view("b", avg=200.0, predicted=200.0),
        ]
        assert alg.choose_site("j", sites) == "b"

    def test_eq3_normalization_is_argmin_invariant(self):
        """Dividing all Avg_comp by their sum never changes the winner."""
        alg = make_algorithm("completion-time")
        raw = [view("a", avg=120.0), view("b", avg=60.0), view("c", avg=240.0)]
        total = sum(v.avg_completion_s for v in raw)
        normalized = [
            view(v.name, avg=v.avg_completion_s / total) for v in raw
        ]
        assert alg.choose_site("j", raw) == make_algorithm(
            "completion-time"
        ).choose_site("j", normalized) == "b"

    def test_empty_pool(self):
        assert make_algorithm("completion-time").choose_site("j", []) is None


class TestQosDeadline:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_algorithm("qos-deadline", deadline_s=0)

    def test_bootstrap_like_hybrid(self):
        alg = make_algorithm("qos-deadline", deadline_s=100.0)
        sites = [view("a"), view("b")]
        assert alg.choose_site("j0", sites) == "a"
        assert alg.choose_site("j1", sites) == "b"

    def test_spreads_over_deadline_safe_sites(self):
        alg = make_algorithm("qos-deadline", deadline_s=400.0)
        # Budget = 0.6 * 400 = 240: both fit; the rotation covers both
        # instead of racing everything to the fastest.
        sites = [view("fast", avg=50.0), view("ok", avg=180.0)]
        picks = {alg.choose_site(f"j{i}", sites) for i in range(4)}
        assert picks == {"fast", "ok"}

    def test_safety_margin_guards_stale_estimates(self):
        alg = make_algorithm("qos-deadline", deadline_s=200.0)
        # 180 <= 200 but > the safety margin's share: too risky, use
        # the fast site.
        assert _SAFETY_MARGIN * 200.0 < 180.0
        sites = [view("fast", avg=50.0), view("risky", avg=180.0)]
        assert alg.choose_site("j", sites) == "fast"

    def test_falls_back_to_fastest_when_deadline_unmeetable(self):
        alg = make_algorithm("qos-deadline", deadline_s=10.0)
        sites = [view("slow", avg=300.0), view("less-slow", avg=200.0)]
        assert alg.choose_site("j", sites) == "less-slow"

    def test_empty_pool(self):
        assert make_algorithm("qos-deadline").choose_site("j", []) is None

    def test_ctx_splits_budget_across_remaining_levels(self):
        alg = make_algorithm("qos-deadline", deadline_s=400.0)
        sites = [view("fast", avg=100.0), view("slow", avg=180.0)]
        # Full budget 0.6*400=240: both feasible.  With 2 levels still
        # ahead this stage gets 120: only the fast site fits.
        ctx = {"now": 0.0, "received_at": 0.0, "remaining_levels": 2}
        picks = {alg.choose_site_ctx(f"j{i}", sites, ctx) for i in range(4)}
        assert picks == {"fast"}

    def test_ctx_budget_shrinks_as_time_elapses(self):
        alg = make_algorithm("qos-deadline", deadline_s=400.0)
        sites = [view("fast", avg=100.0), view("slow", avg=180.0)]
        early = {"now": 0.0, "received_at": 0.0, "remaining_levels": 1}
        picks = {alg.choose_site_ctx(f"j{i}", sites, early)
                 for i in range(4)}
        assert picks == {"fast", "slow"}  # 240s budget: spread
        late = {"now": 300.0, "received_at": 0.0, "remaining_levels": 1}
        picks = {alg.choose_site_ctx(f"k{i}", sites, late)
                 for i in range(4)}
        assert picks == {"fast"}  # 60s budget left: only the fast site

    def test_ctx_blown_deadline_degrades_to_argmin(self):
        alg = make_algorithm("qos-deadline", deadline_s=400.0)
        sites = [view("slow", avg=300.0), view("less-slow", avg=200.0)]
        ctx = {"now": 900.0, "received_at": 0.0, "remaining_levels": 3}
        assert alg.choose_site_ctx("j", sites, ctx) == "less-slow"

    def test_ctx_disabled_uses_static_semantics(self):
        alg = make_algorithm("qos-deadline", deadline_s=400.0,
                             dag_deadline=False)
        sites = [view("fast", avg=100.0), view("slow", avg=180.0)]
        ctx = {"now": 399.0, "received_at": 0.0, "remaining_levels": 5}
        picks = {alg.choose_site_ctx(f"j{i}", sites, ctx) for i in range(4)}
        assert picks == {"fast", "slow"}  # static 240s budget, no shrink

    def test_cursors_persist_across_warehouse_round_trip(self):
        from repro.core.warehouse import Warehouse

        w = Warehouse()
        alg = make_algorithm("qos-deadline", deadline_s=400.0)
        alg.bind_state(w)
        sites = [view("a", avg=50.0), view("b", avg=60.0)]
        first = [alg.choose_site(f"j{i}", sites) for i in range(3)]
        # crash-restart: a new instance bound to the restored warehouse
        # continues the rotation instead of rewinding to "a".
        w2 = Warehouse()
        w2.restore(w.snapshot())
        alg2 = make_algorithm("qos-deadline", deadline_s=400.0)
        alg2.bind_state(w2)
        cont = [alg2.choose_site(f"k{i}", sites) for i in range(3)]
        assert (first + cont)[:6] == ["a", "b", "a", "b", "a", "b"]
