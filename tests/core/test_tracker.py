"""Unit tests for the client-side job tracker."""

import pytest

from repro.core.tracker import JobTracker
from repro.obs import Obs, ObsConfig
from repro.services import CondorG
from repro.sim import Environment
from repro.sim.rng import RngStreams
from repro.simgrid import Grid, SiteState
from repro.simgrid.grid import SiteSpec
from repro.simgrid.local_scheduler import SiteJobStatus


def make(n_cpus=2):
    env = Environment()
    grid = Grid(env, RngStreams(0))
    grid.add_site(SiteSpec("s0", n_cpus=n_cpus, background_utilization=0.0,
                           service_noise_sigma=0.0))
    cg = CondorG(env, grid)
    return env, grid, cg, JobTracker(env, cg, obs=Obs(ObsConfig(spans=False)))


def count(tracker, outcome):
    """The tracker's ``tracker.<outcome>`` count (the registry keeps it)."""
    return tracker.obs.metrics.counter(f"tracker.{outcome}").value


def run_track(env, tracker, job, timeout_s, started_at=0.0):
    """The cancel reason ``track`` resolves to, and when it resolved."""
    out = {}

    def proc(env):
        out["reason"] = yield env.process(
            tracker.track(job, timeout_s, started_at)
        )
        out["at"] = env.now

    env.process(proc(env))
    env.run()
    return out["reason"], out["at"]


def test_timeout_validation():
    env, grid, cg, tracker = make()
    job = cg.submit("j", "s0", runtime_s=1.0)
    with pytest.raises(ValueError):
        next(tracker.track(job, 0.0, 0.0))


def test_completion_tracked_with_timing():
    env, grid, cg, tracker = make()
    job = cg.submit("j", "s0", runtime_s=10.0)
    reason, at = run_track(env, tracker, job, timeout_s=1000.0)
    assert reason is None
    assert job.status is SiteJobStatus.COMPLETED
    assert at == 10.0
    assert tracker.stats.completion_times == [10.0]
    assert tracker.stats.execution_times == [10.0]
    assert count(tracker, "completed") == 1
    assert count(tracker, "cancelled") == 0


def test_started_at_anchors_completion_time():
    """Completion time includes staging when anchored earlier."""
    env, grid, cg, tracker = make()

    def proc(env):
        t0 = env.now
        yield env.timeout(30.0)  # pretend staging took 30 s
        job = cg.submit("j", "s0", runtime_s=10.0)
        reason = yield env.process(tracker.track(job, 1000.0, t0))
        assert reason is None

    env.process(proc(env))
    env.run()
    assert tracker.stats.completion_times == [40.0]


def test_timeout_cancels_and_reports():
    env, grid, cg, tracker = make()
    grid.site("s0").set_state(SiteState.BLACKHOLE)
    job = cg.submit("j", "s0", runtime_s=10.0)
    reason, at = run_track(env, tracker, job, timeout_s=300.0)
    assert reason == "timeout"
    assert at == 300.0
    assert job.status is SiteJobStatus.KILLED
    assert count(tracker, "timeouts") == 1
    assert count(tracker, "cancelled") == 1
    # The cancellation reached the site: nothing left queued.
    assert grid.site("s0").queued_jobs == 0


def test_kill_reported_as_cancelled_killed():
    env, grid, cg, tracker = make()
    job = cg.submit("j", "s0", runtime_s=1000.0)

    def killer(env):
        yield env.timeout(5.0)
        grid.site("s0").set_state(SiteState.DOWN)

    env.process(killer(env))
    reason, at = run_track(env, tracker, job, timeout_s=10_000.0)
    assert reason == "killed"
    assert at == 5.0
    assert count(tracker, "cancelled") == 1
    assert count(tracker, "completed") == 0


def test_failed_submission_tracked_immediately():
    env, grid, cg, tracker = make()
    grid.site("s0").set_state(SiteState.DOWN)
    job = cg.submit("j", "s0", runtime_s=1.0)
    assert job.status is SiteJobStatus.FAILED
    reason, at = run_track(env, tracker, job, timeout_s=100.0)
    assert reason == "failed"
    assert at < 100.0  # did not wait for the timeout
    assert job.status is SiteJobStatus.FAILED


def test_completion_wins_same_instant_as_timeout():
    env, grid, cg, tracker = make()
    job = cg.submit("j", "s0", runtime_s=50.0)
    reason, at = run_track(env, tracker, job, timeout_s=50.0)
    assert reason is None
    assert at == 50.0
    assert count(tracker, "timeouts") == 0


def test_timeout_deregisters_watcher():
    """An abandoned tracking attempt must not leave its watcher behind.

    Regression: the timeout path never removed ``_watch`` from the
    job, so the job pinned one closure per attempt for its whole life,
    and the cancellation's KILLED transition settled the orphaned
    ``terminal`` event."""
    env, grid, cg, tracker = make()
    grid.site("s0").set_state(SiteState.BLACKHOLE)
    job = cg.submit("j", "s0", runtime_s=10.0)
    seen = []
    # registered before the tracker's: it sees who is still watching
    # when the cancellation's KILLED transition fires
    job.on_status_change(
        lambda j, _old, new: seen.append((new, len(j._watchers))))
    reason, _at = run_track(env, tracker, job, timeout_s=300.0)
    assert reason == "timeout"
    assert seen == [(SiteJobStatus.KILLED, 1)]
    assert job._watchers is None


def test_completion_clears_watchers():
    """Terminal transitions drop all watchers — nothing can fire again."""
    env, grid, cg, tracker = make()
    job = cg.submit("j", "s0", runtime_s=10.0)
    reason, _at = run_track(env, tracker, job, timeout_s=1000.0)
    assert reason is None
    assert job.status.terminal
    assert job._watchers is None


def test_off_status_change_unregistered_is_noop():
    env, grid, cg, tracker = make()
    job = cg.submit("j", "s0", runtime_s=10.0)
    job.off_status_change(lambda _j, _old, _new: None)  # never registered
    job.on_status_change(lambda _j, _old, _new: None)
    job.off_status_change(lambda _j, _old, _new: None)  # another one
    assert len(job._watchers) == 1


def test_off_status_change_stops_callbacks():
    env, grid, cg, tracker = make()
    job = cg.submit("j", "s0", runtime_s=10.0)
    seen = []
    cb = lambda _j, _old, new: seen.append(new)
    job.on_status_change(cb)
    job.off_status_change(cb)
    env.run()
    assert job.status.terminal
    assert seen == []


def test_stats_accumulate_across_jobs():
    env, grid, cg, tracker = make(n_cpus=4)
    jobs = [cg.submit(f"j{i}", "s0", runtime_s=5.0) for i in range(3)]
    reasons = []

    def proc(env, job):
        reasons.append((yield env.process(
            tracker.track(job, 1000.0, 0.0))))

    for job in jobs:
        env.process(proc(env, job))
    env.run()
    assert count(tracker, "completed") == 3
    assert reasons == [None, None, None]
    assert tracker.stats.completion_times == [5.0, 5.0, 5.0]
