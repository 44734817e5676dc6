"""Unit tests for the experiment telemetry probe."""

import pytest

from repro.experiments.telemetry import GridTelemetry
from repro.obs import MetricsRegistry
from repro.sim import Environment
from repro.sim.rng import RngStreams
from repro.simgrid import Grid, SiteState
from repro.simgrid.grid import SiteSpec


def make(env, n_cpus=4):
    grid = Grid(env, RngStreams(0))
    grid.add_site(SiteSpec("s0", n_cpus=n_cpus, background_utilization=0.0,
                           service_noise_sigma=0.0))
    return grid


def test_interval_validation():
    env = Environment()
    with pytest.raises(ValueError):
        GridTelemetry(env, make(env), sample_interval_s=0)
    with pytest.raises(ValueError):
        GridTelemetry(env, make(env), sample_interval_s=-5.0,
                      metrics=MetricsRegistry())


def test_samples_on_period():
    env = Environment()
    tele = GridTelemetry(env, make(env), sample_interval_s=10.0)
    env.run(until=35.0)
    assert list(tele.series("s0").times) == [0.0, 10.0, 20.0, 30.0]


def test_series_tracks_queue_and_running():
    env = Environment()
    grid = make(env, n_cpus=1)
    grid.site("s0").submit("a", runtime_s=25.0)
    grid.site("s0").submit("b", runtime_s=25.0)
    tele = GridTelemetry(env, grid, sample_interval_s=10.0)
    env.run(until=45.0)
    s = tele.series("s0")
    assert s.running[1] == 1       # t=10: a running
    assert s.queued[1] == 1        # t=10: b queued
    assert s.running[3] == 1       # t=30: b running
    assert s.queued[3] == 0
    # The t=0 sample is taken at construction, before the CPU grant
    # event, so both jobs are momentarily queued — the probe sees the
    # true instant state.
    assert s.peak_queue == 2
    assert 0 < s.mean_utilization <= 1.0


def test_availability_reflects_downtime():
    env = Environment()
    grid = make(env)
    tele = GridTelemetry(env, grid, sample_interval_s=10.0)

    def fault(env):
        yield env.timeout(20.0)
        grid.site("s0").set_state(SiteState.DOWN)
        yield env.timeout(30.0)
        grid.site("s0").set_state(SiteState.UP)

    env.process(fault(env))
    env.run(until=95.0)
    s = tele.series("s0")
    assert 0.5 < s.availability < 1.0


def test_empty_series():
    env = Environment()
    grid = make(env)
    tele = GridTelemetry(env, grid, sample_interval_s=10.0)
    # No env.run: only the idle t=0 sample.
    s = tele.series("s0")
    assert s.mean_utilization == 0.0
    assert s.peak_queue == 0
    assert s.availability == 1.0


def test_registry_holds_the_construction_sample_before_any_run():
    env = Environment()
    metrics = MetricsRegistry()
    tele = GridTelemetry(env, make(env), sample_interval_s=10.0,
                         metrics=metrics)
    # No env.run: only the t=0 sample taken at construction (an instant
    # horizon must not crash export).
    assert len(tele.series("s0").times) == 1
    assert len(metrics.series("site.queue_depth", site="s0")) == 1
    s = tele.series("s0")
    assert s.availability == 1.0


def test_registry_mirror_matches_site_series():
    env = Environment()
    grid = make(env, n_cpus=1)
    metrics = MetricsRegistry()
    tele = GridTelemetry(env, grid, sample_interval_s=10.0,
                         metrics=metrics)
    grid.site("s0").submit("a", runtime_s=25.0)
    grid.site("s0").submit("b", runtime_s=25.0)
    env.run(until=45.0)
    s = tele.series("s0")
    queued = metrics.series("site.queue_depth", site="s0")
    running = metrics.series("site.running", site="s0")
    util = metrics.series("site.utilization", site="s0")
    assert queued.times == list(s.times)
    assert queued.values == [float(v) for v in s.queued]
    assert running.values == [float(v) for v in s.running]
    assert util.values == pytest.approx(list(s.utilization))


def test_down_window_is_sampled_into_both_views():
    env = Environment()
    grid = make(env)
    metrics = MetricsRegistry()
    tele = GridTelemetry(env, grid, sample_interval_s=10.0,
                         metrics=metrics)

    def fault(env):
        yield env.timeout(20.0)
        grid.site("s0").set_state(SiteState.DOWN)
        yield env.timeout(30.0)
        grid.site("s0").set_state(SiteState.UP)

    env.process(fault(env))
    env.run(until=95.0)
    s = tele.series("s0")
    down_samples = int((~s.up).sum())
    assert down_samples == 3  # t = 20, 30, 40
    # Mirrored samples cover the DOWN window too (same sample count).
    assert len(metrics.series("site.queue_depth", site="s0")) == len(s.times)


def test_summary_covers_all_sites():
    env = Environment()
    grid = Grid(env, RngStreams(0))
    for i in range(3):
        grid.add_site(SiteSpec(f"s{i}", n_cpus=2, background_utilization=0.0))
    tele = GridTelemetry(env, grid, sample_interval_s=10.0)
    env.run(until=30.0)
    summary = tele.summary()
    assert [name for name, *_rest in summary] == ["s0", "s1", "s2"]
