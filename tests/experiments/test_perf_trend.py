"""The CI perf-trajectory gate (benchmarks/perf_trend.py)."""

import json

from benchmarks.perf_trend import SCHEMA, append_run, compare, main


def suite(wall_s, scale=0.1, control_plane="push", name="fig2",
          event_count=10_000):
    return {
        "schema": "repro-bench-suite/v1",
        "scale": scale,
        "workers": 2,
        "control_plane": control_plane,
        "figures": {
            name: {
                "events_per_s": event_count / wall_s,
                "wall_s": wall_s,
                "event_count": event_count,
            },
        },
    }


class TestAppendRun:
    def test_first_run_never_regresses(self):
        trend, lines, regressions = append_run(suite(1.0), None,
                                               timestamp=0.0)
        assert trend["schema"] == SCHEMA
        assert len(trend["entries"]) == 1
        assert regressions == []
        assert any("new" in line for line in lines)

    def test_steady_throughput_passes(self):
        trend, _, _ = append_run(suite(1.0), None, timestamp=0.0)
        trend, lines, regressions = append_run(suite(1.1), trend,
                                               timestamp=1.0)
        assert regressions == []  # +10% is inside the 20% threshold
        assert len(trend["entries"]) == 2

    def test_large_drop_fails(self):
        trend, _, _ = append_run(suite(1.0), None, timestamp=0.0)
        _, lines, regressions = append_run(suite(1.3), trend,
                                           timestamp=1.0)
        assert len(regressions) == 1
        assert "fig2" in regressions[0]
        assert any(":warning:" in line for line in lines)

    def test_improvement_passes(self):
        trend, _, _ = append_run(suite(1.0), None, timestamp=0.0)
        _, _, regressions = append_run(suite(0.25), trend, timestamp=1.0)
        assert regressions == []

    def test_fewer_events_in_less_time_is_not_a_regression(self):
        # An optimisation that removes kernel events: events/s halves
        # while the case gets 60 % faster.  Shown, not gated.
        trend, _, _ = append_run(suite(2.4, event_count=200_000), None,
                                 timestamp=0.0)
        _, lines, regressions = append_run(
            suite(0.9, event_count=36_000), trend, timestamp=1.0)
        assert regressions == []
        assert any("| 40000 | 36000 |" in line for line in lines)

    def test_same_events_per_s_but_slower_fails(self):
        # More events at the same rate is still a slower case.
        trend, _, _ = append_run(suite(1.0, event_count=10_000), None,
                                 timestamp=0.0)
        _, _, regressions = append_run(
            suite(1.5, event_count=15_000), trend, timestamp=1.0)
        assert len(regressions) == 1 and "wall" in regressions[0]

    def test_incomparable_scale_not_compared(self):
        trend, _, _ = append_run(suite(1.0, scale=1.0), None,
                                 timestamp=0.0)
        _, lines, regressions = append_run(suite(10.0, scale=0.1), trend,
                                           timestamp=1.0)
        assert regressions == []  # different scale: no baseline
        assert any("new" in line for line in lines)

    def test_compares_latest_comparable_entry(self):
        trend, _, _ = append_run(suite(1.0, scale=0.1), None,
                                 timestamp=0.0)
        trend, _, _ = append_run(suite(99.0, scale=1.0), trend,
                                 timestamp=1.0)
        # Previous comparable run is the 0.1-scale one, two entries back.
        _, _, regressions = append_run(suite(2.0, scale=0.1), trend,
                                       timestamp=2.0)
        assert len(regressions) == 1

    def test_history_trimmed(self):
        trend = None
        for i in range(7):
            trend, _, _ = append_run(suite(1.0), trend,
                                     max_entries=5, timestamp=float(i))
        assert len(trend["entries"]) == 5
        assert trend["entries"][-1]["timestamp"] == 6.0

    def test_malformed_trend_restarts_history(self):
        trend, _, regressions = append_run(
            suite(1.0), {"something": "else"}, timestamp=0.0)
        assert len(trend["entries"]) == 1
        assert regressions == []


def test_compare_missing_throughput_is_new():
    entry = {"cases": {"fig2": {"wall_s": None}}}
    lines, regressions = compare(entry, None)
    assert regressions == []


class TestMain:
    def _write(self, path, payload):
        path.write_text(json.dumps(payload))

    def test_end_to_end_pass_then_fail(self, tmp_path, capsys):
        suite_path = tmp_path / "BENCH_SUITE.json"
        trend_path = tmp_path / "BENCH_TREND.json"
        self._write(suite_path, suite(1.0))
        argv = ["--suite", str(suite_path), "--trend", str(trend_path)]
        assert main(argv) == 0
        assert trend_path.exists()
        self._write(suite_path, suite(2.0))
        assert main(argv) == 1
        assert "regressed" in capsys.readouterr().err
        # The failing run is still recorded: recovery is judged against
        # the regressed value, not the forgotten good one.
        assert len(json.loads(trend_path.read_text())["entries"]) == 2

    def test_bad_threshold(self, tmp_path):
        assert main(["--suite", "x", "--trend", "y",
                     "--threshold", "0"]) == 2
