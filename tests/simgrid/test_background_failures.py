"""Unit tests for background load and fault injection."""

import pytest

from repro.sim import Environment
from repro.sim.rng import RngStreams
from repro.simgrid import (
    BackgroundLoad,
    DowntimeWindow,
    FailureInjector,
    GridSite,
    SiteState,
)


def make_site(env, name="s", n_cpus=10, seed=0):
    return GridSite(env, RngStreams(seed), name, n_cpus=n_cpus,
                    service_noise_sigma=0.0)


class TestBackgroundLoad:
    def test_validation(self):
        env = Environment()
        site = make_site(env)
        rng = RngStreams(0)
        with pytest.raises(ValueError):
            BackgroundLoad(env, rng, site, target_utilization=1.0)
        with pytest.raises(ValueError):
            BackgroundLoad(env, rng, site, mean_runtime_s=0)
        with pytest.raises(ValueError):
            BackgroundLoad(env, rng, site, modulation_amplitude=2.0)

    @pytest.mark.parametrize("bad", [0, -1, float("nan")])
    @pytest.mark.parametrize("field,bound", [
        ("mean_runtime_s", "> 0"), ("modulation_period_s", "> 0"),
        ("surge_jobs_factor", "> 0"), ("surge_runtime_s", "> 0"),
        ("surge_interval_s", ">= 0"),
    ])
    def test_bad_input_stops_at_construction(self, field, bound, bad):
        # NaN used to pass every `x <= 0` check, and a zero
        # modulation_period_s divided by zero inside _rate_per_s mid-run.
        env = Environment()
        build = lambda: BackgroundLoad(  # noqa: E731
            env, RngStreams(0), make_site(env), **{field: bad})
        if bad == 0 and bound == ">= 0":
            build()  # zero switches surges off
            return
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == (
            f"BackgroundLoad.{field} must be {bound}, got {bad!r}")

    @pytest.mark.parametrize("bad", [-1, float("nan")])
    def test_bad_batch_interval_stops_at_construction(self, bad):
        env = Environment()
        with pytest.raises(ValueError, match="batch interval must be >= 0"):
            BackgroundLoad(env, RngStreams(0), make_site(env),
                           batch_interval_s=bad)

    def test_generates_load(self):
        env = Environment()
        site = make_site(env, n_cpus=20)
        bg = BackgroundLoad(env, RngStreams(1), site,
                            target_utilization=0.5, mean_runtime_s=100.0)
        bg.start()
        env.run(until=2000.0)
        assert bg.submitted > 0
        # Utilization should hover near the target.
        assert 0.1 < site.scheduler.utilization <= 1.0

    def test_zero_utilization_is_inert(self):
        env = Environment()
        site = make_site(env)
        bg = BackgroundLoad(env, RngStreams(1), site, target_utilization=0.0)
        bg.start()
        env.run(until=1000.0)
        assert bg.submitted == 0

    def test_start_idempotent(self):
        env = Environment()
        site = make_site(env)
        bg = BackgroundLoad(env, RngStreams(1), site, target_utilization=0.3)
        bg.start()
        bg.start()
        env.run(until=500.0)
        assert bg.submitted > 0

    def test_survives_site_downtime(self):
        env = Environment()
        site = make_site(env)
        bg = BackgroundLoad(env, RngStreams(1), site,
                            target_utilization=0.5, mean_runtime_s=50.0)
        bg.start()

        def fault(env, site):
            yield env.timeout(200.0)
            site.set_state(SiteState.DOWN)
            yield env.timeout(200.0)
            site.set_state(SiteState.UP)

        env.process(fault(env, site))
        env.run(until=1000.0)
        assert bg.submitted > 0  # generator kept going through the outage

    def test_deterministic(self):
        def run(seed):
            env = Environment()
            site = make_site(env, seed=seed)
            bg = BackgroundLoad(env, RngStreams(seed), site,
                                target_utilization=0.4)
            bg.start()
            env.run(until=1000.0)
            return bg.submitted

        assert run(3) == run(3)

    def test_surge_saturates_queue(self):
        env = Environment()
        site = make_site(env, n_cpus=10)
        bg = BackgroundLoad(env, RngStreams(1), site,
                            target_utilization=0.2,
                            surge_interval_s=500.0,
                            surge_jobs_factor=2.0,
                            surge_runtime_s=5000.0)
        bg.start()
        env.run(until=5000.0)
        assert bg.surges >= 1
        # A surge dumps 2x the CPU count at once: the queue backs up.
        assert site.queued_jobs + site.running_jobs > site.n_cpus

    def test_surge_disabled_by_default(self):
        env = Environment()
        site = make_site(env)
        bg = BackgroundLoad(env, RngStreams(1), site,
                            target_utilization=0.3)
        bg.start()
        env.run(until=20_000.0)
        assert bg.surges == 0

    def test_surge_validation(self):
        env = Environment()
        site = make_site(env)
        with pytest.raises(ValueError):
            BackgroundLoad(env, RngStreams(1), site, surge_interval_s=-1.0)
        with pytest.raises(ValueError):
            BackgroundLoad(env, RngStreams(1), site, surge_jobs_factor=0.0)

    def test_phase_offsets_differ_across_sites(self):
        env = Environment()
        a = BackgroundLoad(env, RngStreams(1), make_site(env, "a"),
                           target_utilization=0.5, modulation_amplitude=0.5)
        b = BackgroundLoad(env, RngStreams(2), make_site(env, "b"),
                           target_utilization=0.5, modulation_amplitude=0.5)
        assert a._phase_offset != b._phase_offset


class TestDowntimeWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            DowntimeWindow("s", 10.0, 10.0)
        with pytest.raises(ValueError):
            DowntimeWindow("s", -1.0, 10.0)
        with pytest.raises(ValueError):
            DowntimeWindow("s", 0.0, 10.0, state=SiteState.UP)


class TestFailureInjector:
    def test_scripted_window_applies_and_restores(self):
        env = Environment()
        site = make_site(env)
        inj = FailureInjector(env, {"s": site})
        inj.schedule_windows([DowntimeWindow("s", 100.0, 200.0)])
        env.run(until=150.0)
        assert site.state is SiteState.DOWN
        env.run(until=250.0)
        assert site.state is SiteState.UP
        assert [(t, n) for t, n, _s in inj.log] == [(100.0, "s"), (200.0, "s")]

    def test_blackhole_window(self):
        env = Environment()
        site = make_site(env)
        inj = FailureInjector(env, {"s": site})
        inj.schedule_windows(
            [DowntimeWindow("s", 10.0, 50.0, state=SiteState.BLACKHOLE)]
        )
        env.run(until=20.0)
        assert site.state is SiteState.BLACKHOLE

    def test_unknown_site_rejected(self):
        env = Environment()
        inj = FailureInjector(env, {})
        with pytest.raises(KeyError):
            inj.schedule_windows([DowntimeWindow("ghost", 0.0, 10.0)])

    def test_overlapping_windows_same_site_rejected(self):
        env = Environment()
        site = make_site(env)
        inj = FailureInjector(env, {"s": site})
        with pytest.raises(ValueError, match="overlapping"):
            inj.schedule_windows([
                DowntimeWindow("s", 0.0, 100.0),
                DowntimeWindow("s", 50.0, 150.0),
            ])

    def test_overlapping_windows_different_sites_allowed(self):
        env = Environment()
        sites = {"a": make_site(env, "a"), "b": make_site(env, "b")}
        inj = FailureInjector(env, sites)
        inj.schedule_windows([
            DowntimeWindow("a", 0.0, 100.0),
            DowntimeWindow("b", 50.0, 150.0),
        ])
        env.run(until=75.0)
        assert sites["a"].state is SiteState.DOWN
        assert sites["b"].state is SiteState.DOWN

    def test_stochastic_failures_occur_and_recover(self):
        env = Environment()
        site = make_site(env)
        inj = FailureInjector(env, {"s": site})
        inj.start_stochastic(RngStreams(7), mtbf_s=500.0, mttr_s=100.0)
        env.run(until=20_000.0)
        assert len(inj.log) >= 2
        fault_states = {s for _t, _n, s in inj.log if s is not SiteState.UP}
        assert fault_states <= {SiteState.DOWN, SiteState.BLACKHOLE}

    def test_stochastic_validation(self):
        env = Environment()
        inj = FailureInjector(env, {"s": make_site(env)})
        with pytest.raises(ValueError):
            inj.start_stochastic(RngStreams(0), mtbf_s=0)
        with pytest.raises(KeyError):
            inj.start_stochastic(RngStreams(0), site_names=["ghost"])
        with pytest.raises(ValueError):
            inj.start_stochastic(
                RngStreams(0), states=(SiteState.DOWN,), state_weights=(1.0, 2.0)
            )


class TestEpochGuardedRestores:
    """Regression: a restore must never revive a site while a *newer*
    fault (from another injector process) is still in effect."""

    def test_later_scripted_fault_wins_over_earlier_restore(self):
        # Two schedule_windows calls bypass the single-call overlap
        # check — exactly what layered chaos plans do.
        env = Environment()
        site = make_site(env)
        inj = FailureInjector(env, {"s": site})
        inj.schedule_windows([DowntimeWindow("s", 100.0, 300.0)])
        inj.schedule_windows(
            [DowntimeWindow("s", 200.0, 400.0, state=SiteState.DEGRADED)]
        )
        env.run(until=350.0)
        # Window 1's restore at t=300 must NOT have revived the site:
        # the DEGRADED fault injected at t=200 still owns it.
        assert site.state is SiteState.DEGRADED
        env.run(until=450.0)
        assert site.state is SiteState.UP
        # Exactly one UP transition, at the newest fault's end.
        ups = [(t, s) for t, _n, s in inj.log if s is SiteState.UP]
        assert ups == [(400.0, SiteState.UP)]

    def test_stochastic_restore_yields_to_scripted_fault(self):
        class FixedStream:
            """exponential() -> scripted constants; first outage covers
            t in [50, 250), overlapping the scripted window below."""

            def __init__(self):
                self.draws = iter([50.0, 200.0, 10_000.0])

            def exponential(self, _scale):
                return next(self.draws)

            def choice(self, _n, p=None):
                return 0

        class FixedRng:
            def stream(self, _name):
                return FixedStream()

        env = Environment()
        site = make_site(env)
        inj = FailureInjector(env, {"s": site})
        inj.start_stochastic(FixedRng(), states=(SiteState.DOWN,),
                             state_weights=(1.0,))
        # Scripted BLACKHOLE lands mid-outage at t=100.
        inj.schedule_windows(
            [DowntimeWindow("s", 100.0, 500.0, state=SiteState.BLACKHOLE)]
        )
        env.run(until=300.0)
        # The stochastic restore at t=250 was superseded at t=100.
        assert site.state is SiteState.BLACKHOLE
        env.run(until=600.0)
        assert site.state is SiteState.UP
