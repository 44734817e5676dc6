"""Unit tests for the monitoring service."""

import pytest

from repro.sim import Environment
from repro.sim.rng import RngStreams
from repro.services import MonitoringService
from repro.simgrid import Grid, SiteState
from repro.simgrid.grid import SiteSpec


def make_grid(env, n_sites=2, n_cpus=4):
    grid = Grid(env, RngStreams(0))
    for i in range(n_sites):
        grid.add_site(SiteSpec(f"s{i}", n_cpus=n_cpus,
                               background_utilization=0.0,
                               service_noise_sigma=0.0))
    return grid


def test_validation():
    env = Environment()
    grid = make_grid(env)
    with pytest.raises(ValueError):
        MonitoringService(env, grid, update_interval_s=0)
    with pytest.raises(ValueError):
        MonitoringService(env, grid, noise_sigma=-1)


@pytest.mark.parametrize("setting", ["update_interval_s", "noise_sigma"])
def test_nan_setting_rejected_at_construction(setting):
    """NaN passes a ``<= 0`` / ``< 0`` check: a NaN interval would end
    the run at the first poll, inside the kernel, and a NaN sigma would
    silently turn the noise off."""
    env = Environment()
    grid = make_grid(env)
    with pytest.raises(ValueError):
        MonitoringService(env, grid, **{setting: float("nan")})


def test_initial_snapshot_at_t0():
    env = Environment()
    grid = make_grid(env)
    mon = MonitoringService(env, grid, update_interval_s=100.0)
    env.run(until=1.0)
    snap = mon.snapshot("s0")
    assert snap is not None
    assert snap.taken_at == 0.0
    assert snap.n_cpus == 4
    assert snap.queued_jobs == 0


def test_staleness_between_polls():
    env = Environment()
    grid = make_grid(env, n_cpus=1)
    mon = MonitoringService(env, grid, update_interval_s=100.0)
    env.run(until=1.0)
    # Load the site after the poll: invisible until the next refresh.
    for i in range(5):
        grid.site("s0").submit(f"j{i}", runtime_s=1000.0)
    env.run(until=50.0)
    assert mon.snapshot("s0").queued_jobs == 0   # stale!
    assert env.now - mon.snapshot("s0").taken_at == pytest.approx(50.0)
    env.run(until=150.0)
    assert mon.snapshot("s0").queued_jobs == 4   # refreshed at t=100


def test_down_site_keeps_last_snapshot():
    env = Environment()
    grid = make_grid(env)
    mon = MonitoringService(env, grid, update_interval_s=10.0)
    env.run(until=1.0)
    grid.site("s0").set_state(SiteState.DOWN)
    env.run(until=100.0)
    snap = mon.snapshot("s0")
    assert snap.taken_at == 0.0  # never updated since the site died


def test_blackhole_site_keeps_last_snapshot():
    env = Environment()
    grid = make_grid(env)
    mon = MonitoringService(env, grid, update_interval_s=10.0)
    env.run(until=1.0)
    grid.site("s0").set_state(SiteState.BLACKHOLE)
    env.run(until=100.0)
    assert mon.snapshot("s0").taken_at == 0.0
    # The healthy site keeps refreshing.
    assert mon.snapshot("s1").taken_at == 100.0


def test_recovered_site_polls_again():
    env = Environment()
    grid = make_grid(env)
    grid.site("s0").set_state(SiteState.DOWN)  # before the first poll,
    mon = MonitoringService(env, grid, update_interval_s=10.0)  # run here
    env.run(until=5.0)
    assert mon.snapshot("s0") is None  # dead from t=0: never observed
    grid.site("s0").set_state(SiteState.UP)
    env.run(until=25.0)
    assert mon.snapshot("s0") is not None


def test_noise_perturbs_counts():
    env = Environment()
    grid = make_grid(env, n_cpus=2)
    mon = MonitoringService(env, grid, update_interval_s=10.0,
                            noise_sigma=0.5)
    for i in range(20):
        grid.site("s0").submit(f"j{i}", runtime_s=10_000.0)
    seen = set()
    for t in range(15, 200, 10):  # one look between each pair of polls
        env.run(until=float(t))
        snap = mon.snapshot("s0")
        seen.add(snap.queued_jobs)
        assert snap.running_jobs <= snap.n_cpus
    # True queued count is 18 throughout; noise should have moved it.
    assert seen - {18}


def test_all_snapshots():
    env = Environment()
    grid = make_grid(env, n_sites=3)
    mon = MonitoringService(env, grid, update_interval_s=10.0)
    env.run(until=1.0)
    assert all(mon.snapshot(s) is not None for s in ("s0", "s1", "s2"))


def test_staleness_none_for_unknown_site():
    env = Environment()
    grid = make_grid(env)
    mon = MonitoringService(env, grid, update_interval_s=10.0)
    assert mon.snapshot("ghost") is None


def test_poll_count():
    env = Environment()
    grid = make_grid(env)
    mon = MonitoringService(env, grid, update_interval_s=10.0)
    env.run(until=35.0)
    assert mon.poll_count == 4  # t = 0, 10, 20, 30
