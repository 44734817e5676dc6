"""Unit tests for GridSite: performance model, storage, fault states."""

import pytest

from repro.sim import Environment
from repro.sim.rng import RngStreams
from repro.simgrid import GridSite, SiteJobStatus, SiteState
from repro.simgrid.site import SiteUnavailableError


def make_site(env=None, seed=0, **kw):
    env = env or Environment()
    kw.setdefault("n_cpus", 4)
    kw.setdefault("service_noise_sigma", 0.0)
    site = GridSite(env, RngStreams(seed), "testsite", **kw)
    return env, site


def test_validation():
    env = Environment()
    with pytest.raises(ValueError):
        GridSite(env, RngStreams(0), "s", n_cpus=2, perf_factor=0)
    with pytest.raises(ValueError):
        GridSite(env, RngStreams(0), "s", n_cpus=2, service_noise_sigma=-1)


@pytest.mark.parametrize("bad", [0, -1, float("nan")])
@pytest.mark.parametrize("field,bound", [
    ("perf_factor", "> 0"), ("service_noise_sigma", ">= 0"),
])
def test_fields_must_be_in_range(field, bound, bad):
    # NaN passed every `x <= 0` test and surfaced as a NaN service time
    # deep in a run; now it stops here, naming the field and the value.
    if bound == ">= 0" and bad == 0:
        make_site(**{field: bad})  # a noiseless site is legitimate
        return
    with pytest.raises(
        ValueError, match=rf"GridSite\.{field} must be {bound}, got {bad!r}"
    ):
        make_site(**{field: bad})


def test_submit_local_runs_an_arrival_on_free_cpus_and_queues_the_rest():
    env, site = make_site(n_cpus=2, perf_factor=2.0)
    site.submit_local([10.0, 20.0, 5.0], "/VO=local/CN=x", "bg.", 7)
    assert (site.running_jobs, site.queued_jobs) == (2, 1)
    queued = site.scheduler.job("bg.9")     # only a job that queued has one
    assert queued.owner == "/VO=local/CN=x"
    env.run()
    # 10 * 2 frees a CPU at t=20; bg.9 runs 5 * 2 on it
    assert (queued.started_at, queued.finished_at, env.now) == (20.0, 30.0, 40.0)
    assert site.scheduler.completed_count == 3
    assert (site.running_jobs, site.queued_jobs) == (0, 0)


def test_job_runs_at_perf_factor():
    env, site = make_site(perf_factor=2.0)
    job = site.submit("j", runtime_s=10.0)
    env.run()
    assert job.status is SiteJobStatus.COMPLETED
    assert job.execution_time_s == 20.0


def test_noise_changes_service_time():
    env, site = make_site()
    site.service_noise_sigma = 0.3
    j1 = site.submit("a", runtime_s=10.0)
    j2 = site.submit("b", runtime_s=10.0)
    env.run()
    assert j1.execution_time_s != j2.execution_time_s


def test_noise_deterministic_per_seed():
    def run(seed):
        env, site = make_site(seed=seed)
        site.service_noise_sigma = 0.3
        j = site.submit("a", runtime_s=10.0)
        env.run()
        return j.execution_time_s

    assert run(1) == run(1)
    assert run(1) != run(2)


class TestFaultStates:
    def test_down_rejects_submissions(self):
        env, site = make_site()
        site.set_state(SiteState.DOWN)
        with pytest.raises(SiteUnavailableError):
            site.submit("j", runtime_s=1.0)

    def test_down_kills_everything(self):
        env, site = make_site(n_cpus=1)
        running = site.submit("running", runtime_s=100.0)
        queued = site.submit("queued", runtime_s=1.0)
        env.run(until=5.0)
        site.set_state(SiteState.DOWN)
        env.run()
        assert running.status is SiteJobStatus.KILLED
        assert queued.status is SiteJobStatus.KILLED

    def test_recovery_after_down(self):
        env, site = make_site()
        site.set_state(SiteState.DOWN)
        site.set_state(SiteState.UP)
        job = site.submit("j", runtime_s=5.0)
        env.run()
        assert job.status is SiteJobStatus.COMPLETED

    def test_blackhole_accepts_but_never_runs(self):
        env, site = make_site()
        site.set_state(SiteState.BLACKHOLE)
        job = site.submit("j", runtime_s=1.0)  # accepted silently!
        env.run(until=10_000.0)
        assert job.status is SiteJobStatus.PENDING
        assert site.queued_jobs == 1

    def test_blackhole_recovery_releases_queue(self):
        env, site = make_site()
        site.set_state(SiteState.BLACKHOLE)
        job = site.submit("j", runtime_s=1.0)
        env.run(until=100.0)
        site.set_state(SiteState.UP)
        env.run()
        assert job.status is SiteJobStatus.COMPLETED

    def test_degraded_slows_jobs(self):
        env, site = make_site(perf_factor=1.0)
        site.set_state(SiteState.DEGRADED)
        job = site.submit("j", runtime_s=10.0)
        env.run()
        assert job.execution_time_s == 40.0

    def test_state_history_recorded(self):
        env, site = make_site()
        site.set_state(SiteState.DOWN)
        site.set_state(SiteState.UP)
        states = [s for _t, s in site.state_history]
        assert states == [SiteState.UP, SiteState.DOWN, SiteState.UP]

    def test_same_state_transition_is_noop(self):
        env, site = make_site()
        site.set_state(SiteState.UP)
        assert len(site.state_history) == 1


class TestStorage:
    def test_store_and_query(self):
        _env, site = make_site()
        site.store_file("data.root", 100.0)
        assert site.has_file("data.root")
        assert not site.has_file("other")

    def test_negative_size_rejected(self):
        _env, site = make_site()
        with pytest.raises(ValueError):
            site.store_file("x", -1.0)


def test_kill_via_site():
    env, site = make_site(n_cpus=1)
    job = site.submit("j", runtime_s=100.0)
    env.run(until=1.0)
    assert site.kill("j") is True
    env.run()
    assert job.status is SiteJobStatus.KILLED


def test_monitoring_observables():
    env, site = make_site(n_cpus=2)
    for i in range(5):
        site.submit(f"j{i}", runtime_s=50.0)
    env.run(until=1.0)
    assert site.running_jobs == 2
    assert site.queued_jobs == 3
    assert site.n_cpus == 2
