"""Unit tests for the Condor-G submission layer."""

import pytest

from repro.sim import Environment
from repro.sim.rng import RngStreams
from repro.services import CondorG, GridJobStatus, RpcBus
from repro.simgrid import Grid, SiteState
from repro.simgrid.grid import SiteSpec


def make(n_sites=2, n_cpus=2):
    env = Environment()
    grid = Grid(env, RngStreams(0))
    for i in range(n_sites):
        grid.add_site(SiteSpec(f"s{i}", n_cpus=n_cpus,
                               background_utilization=0.0,
                               service_noise_sigma=0.0))
    return env, grid, CondorG(env, grid)


def test_reserve_rpc_answers_false_for_a_bad_cpu_count():
    """A CPU count the site cannot book is a "rejected" answer, not an
    RPC fault (``int(nan)`` used to raise inside the handler)."""
    env = Environment()
    grid = Grid(env, RngStreams(0))
    grid.add_site(SiteSpec("s0", n_cpus=4, background_utilization=0.0,
                           service_noise_sigma=0.0))
    bus = RpcBus(env)
    cg = CondorG(env, grid, bus)
    answers = []

    def caller():
        for cpus in (float("nan"), 1.7):
            answers.append((yield bus.call("p", "condor-g", "reserve",
                                           f"r{len(answers)}", "s0", 0.0,
                                           10.0, cpus)))

    env.run(until=env.process(caller()))
    assert answers == [False, False]
    assert cg.reservations_rejected == 2
    assert grid.site("s0").scheduler.reservations == ()


def test_successful_job_lifecycle():
    env, grid, cg = make()
    statuses = []
    h = cg.submit("j1", "s0", runtime_s=10.0, owner="/VO=cms/CN=u")
    h.on_status_change(lambda handle, s: statuses.append((env.now, s)))
    env.run()
    assert h.status is GridJobStatus.COMPLETED
    assert statuses == [
        (0.0, GridJobStatus.RUNNING),
        (10.0, GridJobStatus.COMPLETED),
    ]
    assert h.completion_time_s == 10.0
    assert h.execution_time_s == 10.0
    assert h.idle_time_s == 0.0


def test_submit_to_down_site_fails_promptly():
    env, grid, cg = make()
    grid.site("s0").set_state(SiteState.DOWN)
    h = cg.submit("j1", "s0", runtime_s=10.0)
    assert h.status is GridJobStatus.FAILED
    assert cg.failed_submissions == 1
    env.run()
    assert h.status is GridJobStatus.FAILED  # stays terminal


def test_site_crash_kills_job():
    env, grid, cg = make()
    h = cg.submit("j1", "s0", runtime_s=1000.0)
    env.run(until=5.0)
    grid.site("s0").set_state(SiteState.DOWN)
    env.run(until=10.0)
    assert h.status is GridJobStatus.KILLED
    assert h.finished_at == 5.0


def test_blackhole_job_stays_idle():
    env, grid, cg = make()
    grid.site("s0").set_state(SiteState.BLACKHOLE)
    h = cg.submit("j1", "s0", runtime_s=10.0)
    env.run(until=10_000.0)
    assert h.status is GridJobStatus.IDLE  # the silent failure mode


def test_cancel_running_job():
    env, grid, cg = make()
    h = cg.submit("j1", "s0", runtime_s=1000.0)
    env.run(until=5.0)
    assert cg.cancel("j1") is True
    env.run(until=6.0)
    assert h.status is GridJobStatus.KILLED


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


def test_unknown_site_rejected():
    env, grid, cg = make()
    with pytest.raises(KeyError):
        cg.submit("j1", "ghost", runtime_s=1.0)


def test_active_jobs_listing():
    env, grid, cg = make(n_cpus=1)
    cg.submit("a", "s0", runtime_s=5.0)
    cg.submit("b", "s0", runtime_s=5.0)
    env.run(until=1.0)
    assert {h.job_id for h in cg.active_jobs} == {"a", "b"}
    env.run()
    assert cg.active_jobs == ()


def test_handle_lookup_and_contains():
    env, grid, cg = make()
    cg.submit("j1", "s0", runtime_s=1.0)
    assert "j1" in cg and "x" not in cg
    assert cg.handle("j1").site == "s0"


def test_idle_time_reflects_queueing():
    env, grid, cg = make(n_cpus=1)
    cg.submit("first", "s0", runtime_s=10.0)
    h = cg.submit("second", "s0", runtime_s=10.0)
    env.run()
    assert h.idle_time_s == 10.0
    assert h.completion_time_s == 20.0


def test_held_status_propagates():
    env, grid, cg = make()
    h = cg.submit("j1", "s0", runtime_s=1000.0)
    env.run(until=5.0)
    grid.site("s0").scheduler.hold("j1")
    env.run(until=6.0)
    assert h.status is GridJobStatus.HELD
