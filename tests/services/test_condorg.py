"""Unit tests for the Condor-G submission layer."""

import pytest

from repro.sim import Environment
from repro.sim.rng import RngStreams
from repro.services import CondorG
from repro.simgrid import Grid, SiteState
from repro.simgrid.grid import SiteSpec
from repro.simgrid.local_scheduler import SiteJobStatus


def make(n_sites=2, n_cpus=2):
    env = Environment()
    grid = Grid(env, RngStreams(0))
    for i in range(n_sites):
        grid.add_site(SiteSpec(f"s{i}", n_cpus=n_cpus,
                               background_utilization=0.0,
                               service_noise_sigma=0.0))
    return env, grid, CondorG(env, grid)


def test_successful_job_lifecycle():
    env, grid, cg = make()
    statuses = []
    job = cg.submit("j1", "s0", runtime_s=10.0, owner="/VO=cms/CN=u")
    assert job is grid.site("s0").scheduler.job("j1")  # the site's record
    job.on_status_change(lambda _j, _old, new: statuses.append((env.now, new)))
    env.run()
    assert job.status is SiteJobStatus.COMPLETED
    assert statuses == [
        (0.0, SiteJobStatus.RUNNING),
        (10.0, SiteJobStatus.COMPLETED),
    ]
    assert job.completion_time_s == 10.0
    assert job.execution_time_s == 10.0
    assert job.idle_time_s == 0.0
    assert job._watchers is None  # a terminal record holds no watchers


def test_submit_to_down_site_fails_promptly():
    env, grid, cg = make()
    grid.site("s0").set_state(SiteState.DOWN)
    job = cg.submit("j1", "s0", runtime_s=10.0)
    assert job.status is SiteJobStatus.FAILED
    assert cg.failed_submissions == 1
    assert "j1" not in grid.site("s0").scheduler  # never reached the queue
    env.run()
    assert job.status is SiteJobStatus.FAILED  # stays terminal
    assert cg.cancel("j1") is False


def test_site_crash_kills_job():
    env, grid, cg = make()
    job = cg.submit("j1", "s0", runtime_s=1000.0)
    env.run(until=5.0)
    grid.site("s0").set_state(SiteState.DOWN)
    env.run(until=10.0)
    assert job.status is SiteJobStatus.KILLED
    assert job.finished_at == 5.0


def test_blackhole_job_stays_idle():
    env, grid, cg = make()
    grid.site("s0").set_state(SiteState.BLACKHOLE)
    job = cg.submit("j1", "s0", runtime_s=10.0)
    env.run(until=10_000.0)
    assert job.status is SiteJobStatus.PENDING  # the silent failure mode


def test_cancel_running_job():
    env, grid, cg = make()
    job = cg.submit("j1", "s0", runtime_s=1000.0)
    env.run(until=5.0)
    assert cg.cancel("j1") is True
    env.run(until=6.0)
    assert job.status is SiteJobStatus.KILLED


def test_cancel_terminal_job_returns_false():
    env, grid, cg = make()
    cg.submit("j1", "s0", runtime_s=1.0)
    env.run()
    assert cg.cancel("j1") is False


def test_cancel_unknown_raises():
    env, grid, cg = make()
    with pytest.raises(KeyError):
        cg.cancel("ghost")


def test_duplicate_job_id_rejected():
    env, grid, cg = make()
    cg.submit("j1", "s0", runtime_s=1.0)
    with pytest.raises(ValueError):
        cg.submit("j1", "s1", runtime_s=1.0)
    grid.site("s0").set_state(SiteState.DOWN)
    cg.submit("j2", "s0", runtime_s=1.0)  # FAILED, but the id is taken
    with pytest.raises(ValueError):
        cg.submit("j2", "s1", runtime_s=1.0)


def test_unknown_site_rejected():
    env, grid, cg = make()
    with pytest.raises(KeyError):
        cg.submit("j1", "ghost", runtime_s=1.0)


def test_cancel_reaches_the_site_the_job_went_to():
    env, grid, cg = make()
    job = cg.submit("j1", "s1", runtime_s=1000.0)
    env.run(until=5.0)
    assert cg.cancel("j1") is True
    assert job.status is SiteJobStatus.KILLED
    assert grid.site("s1").scheduler.killed_count == 1
    assert grid.site("s0").scheduler.killed_count == 0


def test_idle_time_reflects_queueing():
    env, grid, cg = make(n_cpus=1)
    cg.submit("first", "s0", runtime_s=10.0)
    job = cg.submit("second", "s0", runtime_s=10.0)
    env.run()
    assert job.idle_time_s == 10.0
    assert job.completion_time_s == 20.0
