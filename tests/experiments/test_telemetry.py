"""Unit tests for the experiment telemetry probe."""

import pytest

from repro.experiments.telemetry import GridTelemetry
from repro.obs import MetricsRegistry
from repro.sim import Environment
from repro.sim.rng import RngStreams
from repro.simgrid import Grid
from repro.simgrid.grid import SiteSpec


def make(env, n_cpus=4):
    grid = Grid(env, RngStreams(0))
    grid.add_site(SiteSpec("s0", n_cpus=n_cpus, background_utilization=0.0,
                           service_noise_sigma=0.0))
    return grid


def test_interval_validation():
    env = Environment()
    with pytest.raises(ValueError):
        GridTelemetry(env, make(env), MetricsRegistry(), sample_interval_s=0)
    with pytest.raises(ValueError):
        GridTelemetry(env, make(env), MetricsRegistry(),
                      sample_interval_s=-5.0)


def test_samples_on_period():
    env = Environment()
    metrics = MetricsRegistry()
    GridTelemetry(env, make(env), metrics, sample_interval_s=10.0)
    env.run(until=35.0)
    for name in ("site.queue_depth", "site.running", "site.utilization"):
        assert metrics.series(name, site="s0").times == [0.0, 10.0, 20.0,
                                                         30.0]


def test_series_tracks_queue_and_running():
    env = Environment()
    grid = make(env, n_cpus=1)
    grid.site("s0").submit("a", runtime_s=25.0)
    grid.site("s0").submit("b", runtime_s=25.0)
    metrics = MetricsRegistry()
    GridTelemetry(env, grid, metrics, sample_interval_s=10.0)
    env.run(until=45.0)
    queued = metrics.series("site.queue_depth", site="s0").values
    running = metrics.series("site.running", site="s0").values
    util = metrics.series("site.utilization", site="s0").values
    assert running[1] == 1       # t=10: a running
    assert queued[1] == 1        # t=10: b queued
    assert running[3] == 1       # t=30: b running
    assert queued[3] == 0
    # The t=0 sample is taken at construction, before the CPU grant
    # event, so both jobs are momentarily queued — the probe sees the
    # true instant state.
    assert max(queued) == 2
    assert 0 < sum(util) / len(util) <= 1.0


def test_empty_series():
    env = Environment()
    metrics = MetricsRegistry()
    GridTelemetry(env, make(env), metrics, sample_interval_s=10.0)
    # No env.run: only the idle t=0 sample.
    assert metrics.series("site.queue_depth", site="s0").values == [0.0]
    assert metrics.series("site.utilization", site="s0").values == [0.0]


def test_registry_holds_the_construction_sample_before_any_run():
    env = Environment()
    metrics = MetricsRegistry()
    GridTelemetry(env, make(env), metrics, sample_interval_s=10.0)
    # No env.run: only the t=0 sample taken at construction (an instant
    # horizon must not crash export).
    assert len(metrics.series("site.queue_depth", site="s0")) == 1
    assert len(metrics.series("site.running", site="s0")) == 1


def test_every_site_gets_its_series():
    env = Environment()
    grid = Grid(env, RngStreams(0))
    for i in range(3):
        grid.add_site(SiteSpec(f"s{i}", n_cpus=2,
                               background_utilization=0.0))
    metrics = MetricsRegistry()
    GridTelemetry(env, grid, metrics, sample_interval_s=10.0)
    env.run(until=30.0)
    for i in range(3):
        assert len(metrics.series("site.queue_depth", site=f"s{i}")) == 4
