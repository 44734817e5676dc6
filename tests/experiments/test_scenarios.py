"""Unit tests for scenario specifications."""

import pytest

from repro.core import ServerConfig
from repro.experiments import Scenario, ServerSpec, default_fault_windows
from repro.federation import FederationConfig, FederationScenario
from repro.simgrid import SiteState


def spec():
    return (ServerSpec("a", "round-robin"),)


def test_scenario_needs_servers():
    with pytest.raises(ValueError):
        Scenario(name="x", servers=())


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        Scenario(name="x", servers=(ServerSpec("a", "round-robin"),
                                    ServerSpec("a", "num-cpus")))


def test_n_dags_validation():
    with pytest.raises(ValueError):
        Scenario(name="x", servers=spec(), n_dags=0)


_PERIODS = ("monitoring_interval_s", "horizon_s")
_CONFIGS = {
    "Scenario": (lambda **kw: Scenario(name="x", servers=spec(), **kw),
                 _PERIODS),
    "FederationScenario": (lambda **kw: FederationScenario(name="x", **kw),
                           _PERIODS),
    "ServerConfig": (ServerConfig, ("tick_s", "job_timeout_s",
                                    "presume_lost_after_s")),
}


@pytest.mark.parametrize("bad", [0, -1, float("nan")])
@pytest.mark.parametrize("config,field", [
    (name, field) for name, (_, fields) in _CONFIGS.items()
    for field in fields
])
def test_periods_must_be_positive(config, field, bad):
    # A zero tick_s used to spin the control loop at one instant forever
    # and a NaN surfaced deep in the kernel; both now stop here.
    build, _ = _CONFIGS[config]
    with pytest.raises(ValueError, match=rf"{config}\.{field} must be > 0"):
        build(**{field: bad})


_MAY_BE_ZERO = {
    "Scenario": (_CONFIGS["Scenario"][0], ("background_batch_s",)),
    "FederationScenario": (_CONFIGS["FederationScenario"][0],
                           ("background_batch_s", "submit_interval_s")),
    "FederationConfig": (FederationConfig, ("digest_interval_s",)),
}


@pytest.mark.parametrize("bad", [-1.0, float("nan")])
@pytest.mark.parametrize("config,field", [
    (name, field) for name, (_, fields) in _MAY_BE_ZERO.items()
    for field in fields
])
def test_delays_must_not_be_negative(config, field, bad):
    build, _ = _MAY_BE_ZERO[config]
    build(**{field: 0.0})  # 0 = off
    with pytest.raises(ValueError, match=rf"{config}\.{field} must be >= 0"):
        build(**{field: bad})


def test_workload_spec_reflects_scenario():
    sc = Scenario(name="x", servers=spec(), n_dags=7, jobs_per_dag=5,
                  job_requirements={"cpu_seconds": 60.0})
    ws = sc.workload_spec()
    assert ws.n_dags == 7
    assert ws.jobs_per_dag == 5
    assert ws.requirements == {"cpu_seconds": 60.0}


def test_workload_overrides():
    sc = Scenario(name="x", servers=spec(),
                  workload_overrides={"runtime_cv": 0.5})
    assert sc.workload_spec().runtime_cv == 0.5


def test_default_windows_used_when_none():
    sc = Scenario(name="x", servers=spec(), horizon_s=10_000.0)
    windows = sc.resolved_fault_windows()
    assert windows == default_fault_windows(10_000.0)
    assert any(w.site == "mcfarm" for w in windows)


def test_explicit_empty_windows_mean_fault_free():
    sc = Scenario(name="x", servers=spec(), fault_windows=())
    assert sc.resolved_fault_windows() == ()


class TestDefaultFaultScript:
    def test_permanent_blackhole(self):
        windows = default_fault_windows(3600.0)
        mcfarm = [w for w in windows if w.site == "mcfarm"]
        assert len(mcfarm) == 1
        assert mcfarm[0].state is SiteState.BLACKHOLE
        assert mcfarm[0].start_s == 0.0
        assert mcfarm[0].end_s == 3600.0

    def test_mid_run_outages_do_not_heal(self):
        horizon = 24 * 3600.0
        windows = default_fault_windows(horizon)
        for site in ("nest", "ufloridapg", "atlas"):
            ws = [w for w in windows if w.site == site]
            assert len(ws) == 1
            assert ws[0].end_s == horizon  # dead for the rest of the run

    def test_atlas_broken_from_the_start(self):
        windows = default_fault_windows(24 * 3600.0)
        atlas = next(w for w in windows if w.site == "atlas")
        assert atlas.start_s == 0.0
        assert atlas.state is SiteState.BLACKHOLE

    def test_short_horizon_has_fewer_faults(self):
        sites = {w.site for w in default_fault_windows(1200.0)}
        assert "nest" not in sites and "ufloridapg" not in sites
        assert "mcfarm" in sites and "atlas" in sites

    def test_no_same_site_overlaps(self):
        windows = sorted(default_fault_windows(48 * 3600.0),
                         key=lambda w: (w.site, w.start_s))
        for a, b in zip(windows, windows[1:]):
            if a.site == b.site:
                assert b.start_s >= a.end_s

    def test_degradation_window_present(self):
        windows = default_fault_windows(24 * 3600.0)
        assert any(w.state is SiteState.DEGRADED for w in windows)
