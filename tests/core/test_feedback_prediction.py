"""Unit tests for the reliability tracker and completion-time estimator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.feedback import ReliabilityTracker
from repro.core.prediction import _EWMA_ALPHA, CompletionTimeEstimator
from repro.core.warehouse import Warehouse


class TestReliability:
    def test_unknown_site_is_reliable(self):
        fb = ReliabilityTracker(Warehouse())
        assert fb.is_reliable("fresh")

    def test_papers_rule_cancelled_exceeds_completed(self):
        fb = ReliabilityTracker(Warehouse())
        fb.record_completion("s")
        fb.record_cancellation("s")
        assert fb.is_reliable("s")  # equal counts: still reliable
        fb.record_cancellation("s")
        assert not fb.is_reliable("s")  # cancelled > completed

    def test_site_can_regain_reliability(self):
        fb = ReliabilityTracker(Warehouse())
        fb.record_cancellation("s")
        assert not fb.is_reliable("s")
        fb.record_completion("s")
        assert fb.is_reliable("s")

    def test_counters(self):
        fb = ReliabilityTracker(Warehouse())
        for _ in range(3):
            fb.record_completion("s")
        fb.record_cancellation("s")
        assert fb.completed("s") == 3
        assert fb.cancelled("s") == 1
        assert fb.completed("other") == 0

    def test_reliable_sites_filter_preserves_order(self):
        fb = ReliabilityTracker(Warehouse())
        fb.record_cancellation("bad")
        assert fb.reliable_sites(["a", "bad", "b"]) == ("a", "b")

    def test_snapshot(self):
        fb = ReliabilityTracker(Warehouse())
        fb.record_completion("s")
        fb.record_cancellation("t")
        assert fb.snapshot() == {"s": (1, 0), "t": (0, 1)}

    def test_state_survives_warehouse_round_trip(self):
        w = Warehouse()
        fb = ReliabilityTracker(w)
        fb.record_cancellation("bad")
        fb.record_cancellation("bad")
        fb.record_completion("bad")
        w2 = Warehouse()
        w2.restore(w.snapshot())
        fb2 = ReliabilityTracker(w2)
        assert not fb2.is_reliable("bad")
        assert fb2.cancelled("bad") == 2

    @given(events=st.lists(st.tuples(st.booleans(), st.integers(0, 3)),
                           max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_property_rule_matches_counts(self, events):
        fb = ReliabilityTracker(Warehouse())
        completed = {}
        cancelled = {}
        for is_completion, site_idx in events:
            site = f"s{site_idx}"
            if is_completion:
                fb.record_completion(site)
                completed[site] = completed.get(site, 0) + 1
            else:
                fb.record_cancellation(site)
                cancelled[site] = cancelled.get(site, 0) + 1
        for i in range(4):
            site = f"s{i}"
            expect = cancelled.get(site, 0) <= completed.get(site, 0)
            assert fb.is_reliable(site) == expect


class TestEstimator:
    def test_no_data(self):
        est = CompletionTimeEstimator(Warehouse())
        assert est.average_s("s") is None
        assert est.predicted_s("s") is None
        assert est.snapshot() == {}

    def test_running_mean(self):
        est = CompletionTimeEstimator(Warehouse())
        est.record("s", 100.0)
        est.record("s", 200.0)
        assert est.mean_s("s") == 150.0

    def test_ewma_weights_recent_samples(self):
        a = _EWMA_ALPHA
        est = CompletionTimeEstimator(Warehouse())
        for _ in range(10):
            est.record("s", 100.0)
        assert est.ewma_s("s") == pytest.approx(100.0)
        est.record("s", 400.0)
        assert est.ewma_s("s") == pytest.approx((1 - a) * 100.0 + a * 400.0)
        assert est.mean_s("s") == pytest.approx(1400.0 / 11)
        # one recent sample outweighs a long history
        assert est.ewma_s("s") > est.mean_s("s")

    def test_mode_selects_estimate(self):
        w = Warehouse()
        est = CompletionTimeEstimator(w, mode="mean")
        est.record("s", 100.0)
        est.record("s", 300.0)
        assert est.average_s("s") == est.mean_s("s") == 200.0
        est2 = CompletionTimeEstimator(Warehouse(), mode="ewma")
        est2.record("s", 100.0)
        est2.record("s", 300.0)
        assert est2.average_s("s") == est2.ewma_s("s") == pytest.approx(
            (1 - _EWMA_ALPHA) * 100.0 + _EWMA_ALPHA * 300.0)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            CompletionTimeEstimator(Warehouse(), mode="median")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            CompletionTimeEstimator(Warehouse()).record("s", -1.0)

    def test_planned_load_correction(self):
        est = CompletionTimeEstimator(Warehouse())
        est.record("s", 100.0)
        assert est.predicted_s("s", planned_jobs=0, n_cpus=10) == 100.0
        # each planned job counts as 4 CPU-equivalents: 100 * (1 + 4 * 5/10)
        assert est.predicted_s("s", planned_jobs=5, n_cpus=10) == 300.0

    def test_zero_cpus_returns_uncorrected_average(self):
        # A frozen/outage site advertises 0 live CPUs mid-planning; the
        # estimator must degrade to the plain average, not abort the
        # whole planning pass.
        est = CompletionTimeEstimator(Warehouse())
        est.record("s", 100.0)
        assert est.predicted_s("s", planned_jobs=5, n_cpus=0) == 100.0

    def test_negative_planned_clamped(self):
        est = CompletionTimeEstimator(Warehouse())
        est.record("s", 100.0)
        assert est.predicted_s("s", planned_jobs=-3, n_cpus=10) == 100.0

    def test_snapshot(self):
        est = CompletionTimeEstimator(Warehouse())
        est.record("a", 10.0)
        est.record("a", 20.0)
        est.record("b", 5.0)
        assert est.snapshot() == {"a": 15.0, "b": 5.0}

    def test_state_survives_warehouse_round_trip(self):
        w = Warehouse()
        est = CompletionTimeEstimator(w)
        est.record("s", 42.0)
        w2 = Warehouse()
        w2.restore(w.snapshot())
        assert CompletionTimeEstimator(w2).average_s("s") == 42.0

    @given(times=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_property_mean_matches_numpy(self, times):
        import numpy as np

        est = CompletionTimeEstimator(Warehouse())
        for t in times:
            est.record("s", t)
        assert est.mean_s("s") == pytest.approx(np.mean(times), rel=1e-9)

    @given(times=st.lists(st.floats(1.0, 1e5), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_property_ewma_bounded_by_extremes(self, times):
        est = CompletionTimeEstimator(Warehouse())
        for t in times:
            est.record("s", t)
        eps = 1e-9 * max(times)
        assert min(times) - eps <= est.ewma_s("s") <= max(times) + eps
