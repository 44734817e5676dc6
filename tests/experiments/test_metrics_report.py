"""Unit tests for metrics helpers and table formatting."""

import numpy as np
import pytest

from repro.experiments.metrics import (
    improvement_pct,
    rank_correlation,
    site_distribution_table,
)
from repro.experiments.report import format_table


class TestImprovement:
    def test_basic(self):
        assert improvement_pct(80.0, 100.0) == pytest.approx(20.0)

    def test_negative_when_worse(self):
        assert improvement_pct(120.0, 100.0) == pytest.approx(-20.0)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            improvement_pct(1.0, 0.0)


class TestRankCorrelation:
    def test_perfect_negative(self):
        x = [1, 2, 3, 4, 5]
        y = [10, 8, 6, 4, 2]
        assert rank_correlation(x, y) == pytest.approx(-1.0)

    def test_perfect_positive(self):
        x = [1, 2, 3]
        assert rank_correlation(x, x) == pytest.approx(1.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            rank_correlation([1], [1, 2])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            rank_correlation([1], [1])

    def test_constant_series_is_zero(self):
        assert rank_correlation([1, 1, 1], [1, 2, 3]) == 0.0

    def test_matches_scipy(self):
        from scipy.stats import spearmanr

        rng = np.random.default_rng(0)
        x = rng.random(30)
        y = rng.random(30)
        assert rank_correlation(x, y) == pytest.approx(
            spearmanr(x, y).statistic, abs=1e-9
        )


class TestSiteDistribution:
    def test_rows_sorted_by_site(self):
        rows = site_distribution_table(
            {"b": 3, "a": 5}, {"a": 100.0, "b": 200.0}
        )
        assert rows == [("a", 5, 100.0), ("b", 3, 200.0)]

    def test_missing_avg_is_nan(self):
        rows = site_distribution_table({"a": 1}, {})
        assert rows[0][2] != rows[0][2]  # NaN


class TestFormatting:
    def test_format_table_alignment(self):
        out = format_table(["name", "value"],
                           [["a", 1.0], ["longer", 23.456]],
                           title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert "longer" in lines[4]
        assert "23.5" in lines[4]  # floats formatted to 1 decimal

    def test_format_table_nan_cell(self):
        out = format_table(["x"], [[float("nan")]])
        assert "n/a" in out

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])
