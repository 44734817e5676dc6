"""Unit tests for the client-side job tracker."""

import pytest

from repro.core.tracker import JobTracker
from repro.services import CondorG
from repro.sim import Environment
from repro.sim.rng import RngStreams
from repro.simgrid import Grid, SiteState
from repro.simgrid.grid import SiteSpec


def make(n_cpus=2):
    env = Environment()
    grid = Grid(env, RngStreams(0))
    grid.add_site(SiteSpec("s0", n_cpus=n_cpus, background_utilization=0.0,
                           service_noise_sigma=0.0))
    cg = CondorG(env, grid)
    return env, grid, cg, JobTracker(env, cg)


def run_track(env, tracker, handle, timeout_s, started_at=None):
    out = {}

    def proc(env):
        out["result"] = yield env.process(
            tracker.track(handle, timeout_s, started_at=started_at)
        )

    env.process(proc(env))
    env.run()
    return out["result"]


def test_timeout_validation():
    env, grid, cg, tracker = make()
    h = cg.submit("j", "s0", runtime_s=1.0)
    with pytest.raises(ValueError):
        next(tracker.track(h, 0.0))


def test_completion_tracked_with_timing():
    env, grid, cg, tracker = make()
    h = cg.submit("j", "s0", runtime_s=10.0)
    r = run_track(env, tracker, h, timeout_s=1000.0)
    assert r.outcome == "completed"
    assert r.reason is None
    assert r.completion_time_s == 10.0
    assert r.execution_time_s == 10.0
    assert tracker.stats.completed == 1
    assert tracker.stats.by_site["s0"] == [1, 0]


def test_started_at_anchors_completion_time():
    """Completion time includes staging when anchored earlier."""
    env, grid, cg, tracker = make()

    def proc(env):
        t0 = env.now
        yield env.timeout(30.0)  # pretend staging took 30 s
        h = cg.submit("j", "s0", runtime_s=10.0)
        r = yield env.process(tracker.track(h, 1000.0, started_at=t0))
        assert r.completion_time_s == 40.0

    env.process(proc(env))
    env.run()


def test_timeout_cancels_and_reports():
    env, grid, cg, tracker = make()
    grid.site("s0").set_state(SiteState.BLACKHOLE)
    h = cg.submit("j", "s0", runtime_s=10.0)
    r = run_track(env, tracker, h, timeout_s=300.0)
    assert r.outcome == "cancelled"
    assert r.reason == "timeout"
    assert tracker.stats.timeouts == 1
    # The cancellation reached the site: nothing left queued.
    assert grid.site("s0").queued_jobs == 0


def test_kill_reported_as_cancelled_killed():
    env, grid, cg, tracker = make()
    h = cg.submit("j", "s0", runtime_s=1000.0)

    def killer(env):
        yield env.timeout(5.0)
        grid.site("s0").set_state(SiteState.DOWN)

    env.process(killer(env))
    r = run_track(env, tracker, h, timeout_s=10_000.0)
    assert r.outcome == "cancelled"
    assert r.reason == "killed"
    assert tracker.stats.by_site["s0"] == [0, 1]


def test_failed_submission_tracked_immediately():
    env, grid, cg, tracker = make()
    grid.site("s0").set_state(SiteState.DOWN)
    h = cg.submit("j", "s0", runtime_s=1.0)
    assert h.status.terminal
    resolved_at = {}

    def proc(env):
        r = yield env.process(tracker.track(h, 100.0))
        resolved_at["t"] = env.now
        resolved_at["r"] = r

    env.process(proc(env))
    env.run()
    assert resolved_at["r"].outcome == "cancelled"
    assert resolved_at["r"].reason == "failed"
    assert resolved_at["t"] < 100.0  # did not wait for the timeout


def test_completion_wins_same_instant_as_timeout():
    env, grid, cg, tracker = make()
    h = cg.submit("j", "s0", runtime_s=50.0)
    r = run_track(env, tracker, h, timeout_s=50.0)
    assert r.outcome == "completed"


def test_timeout_deregisters_watcher():
    """An abandoned tracking attempt must not leave its watcher behind.

    Regression: the timeout path never removed ``_watch`` from the
    handle, so the handle pinned one closure per attempt for its whole
    life, and the cancellation's KILLED transition settled the orphaned
    ``terminal`` event."""
    env, grid, cg, tracker = make()
    grid.site("s0").set_state(SiteState.BLACKHOLE)
    h = cg.submit("j", "s0", runtime_s=10.0)
    r = run_track(env, tracker, h, timeout_s=300.0)
    assert r.reason == "timeout"
    assert h._watchers == []


def test_completion_clears_watchers():
    """Terminal transitions drop all watchers — nothing can fire again."""
    env, grid, cg, tracker = make()
    h = cg.submit("j", "s0", runtime_s=10.0)
    r = run_track(env, tracker, h, timeout_s=1000.0)
    assert r.outcome == "completed"
    assert h._watchers == []


def test_off_status_change_unregistered_is_noop():
    env, grid, cg, tracker = make()
    h = cg.submit("j", "s0", runtime_s=10.0)
    h.off_status_change(lambda _h, _s: None)  # never registered: no raise


def test_off_status_change_stops_callbacks():
    env, grid, cg, tracker = make()
    h = cg.submit("j", "s0", runtime_s=10.0)
    seen = []
    cb = lambda _h, status: seen.append(status)
    h.on_status_change(cb)
    h.off_status_change(cb)
    env.run()
    assert h.status.terminal
    assert seen == []


def test_stats_accumulate_across_jobs():
    env, grid, cg, tracker = make(n_cpus=4)
    handles = [cg.submit(f"j{i}", "s0", runtime_s=5.0) for i in range(3)]
    results = []

    def proc(env, h):
        r = yield env.process(tracker.track(h, 1000.0))
        results.append(r)

    for h in handles:
        env.process(proc(env, h))
    env.run()
    assert tracker.stats.completed == 3
    assert len(results) == 3
