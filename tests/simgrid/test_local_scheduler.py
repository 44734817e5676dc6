"""Unit tests for the per-site batch scheduler."""

import pytest

from repro.sim import Environment
from repro.simgrid import LocalScheduler, SiteJob, SiteJobStatus


def make(env, n_cpus=2, factor=1.0):
    return LocalScheduler(env, n_cpus, lambda runtime_s: runtime_s * factor)


def test_cpu_count_validation():
    with pytest.raises(ValueError):
        make(Environment(), n_cpus=0)


def test_job_completes():
    env = Environment()
    sched = make(env)
    job = sched.submit(SiteJob("j1", runtime_s=10.0))
    env.run()
    assert job.status is SiteJobStatus.COMPLETED
    assert job.submitted_at == 0.0
    assert job.started_at == 0.0
    assert job.finished_at == 10.0
    assert sched.completed_count == 1


def test_timing_observables():
    env = Environment()
    sched = make(env, n_cpus=1)
    a = sched.submit(SiteJob("a", runtime_s=10.0))
    b = sched.submit(SiteJob("b", runtime_s=5.0))
    env.run()
    assert a.idle_time_s == 0.0 and a.execution_time_s == 10.0
    assert b.idle_time_s == 10.0
    assert b.execution_time_s == 5.0
    assert b.completion_time_s == 15.0


def test_queueing_beyond_capacity():
    env = Environment()
    sched = make(env, n_cpus=2)
    for i in range(5):
        sched.submit(SiteJob(f"j{i}", runtime_s=10.0))
    env.run(until=1.0)
    assert sched.running_jobs == 2
    assert sched.queued_jobs == 3
    assert sched.utilization == 1.0
    env.run()
    assert sched.completed_count == 5


def test_priority_wins_queue():
    env = Environment()
    sched = make(env, n_cpus=1)
    sched.submit(SiteJob("first", runtime_s=10.0))
    sched.submit(SiteJob("low", runtime_s=1.0, priority=20))
    sched.submit(SiteJob("high", runtime_s=1.0, priority=1))
    env.run()
    assert sched.job("high").started_at < sched.job("low").started_at


def test_duplicate_id_rejected():
    env = Environment()
    sched = make(env)
    sched.submit(SiteJob("j", runtime_s=1.0))
    with pytest.raises(ValueError, match="duplicate"):
        sched.submit(SiteJob("j", runtime_s=1.0))


def test_kill_pending_job():
    env = Environment()
    sched = make(env, n_cpus=1)
    sched.submit(SiteJob("runner", runtime_s=100.0))
    victim = sched.submit(SiteJob("victim", runtime_s=1.0))
    env.run(until=5.0)
    assert sched.kill("victim") is True
    env.run()
    assert victim.status is SiteJobStatus.KILLED
    assert victim.started_at is None
    # A job that never ran has no finish instant: its completion time
    # must stay None so estimators/telemetry can never ingest the
    # queue-wait of a killed job as a completion sample.
    assert victim.finished_at is None
    assert victim.completion_time_s is None
    assert sched.killed_count == 1
    # The runner is unaffected.
    assert sched.job("runner").status is SiteJobStatus.COMPLETED


def test_killed_running_job_keeps_timing():
    env = Environment()
    sched = make(env, n_cpus=1)
    job = sched.submit(SiteJob("j", runtime_s=100.0))
    env.run(until=5.0)
    sched.kill("j")
    env.run()
    # It did run: started and finished instants are both real.
    assert job.started_at == 0.0
    assert job.finished_at == 5.0
    assert job.completion_time_s == 5.0


def test_kill_running_job_frees_slot():
    env = Environment()
    sched = make(env, n_cpus=1)
    victim = sched.submit(SiteJob("victim", runtime_s=1000.0))
    waiter = sched.submit(SiteJob("waiter", runtime_s=5.0))
    env.run(until=10.0)
    sched.kill("victim")
    env.run()
    assert victim.status is SiteJobStatus.KILLED
    assert waiter.status is SiteJobStatus.COMPLETED
    assert waiter.started_at == 10.0  # got the slot right after the kill


def test_kill_terminal_job_returns_false():
    env = Environment()
    sched = make(env)
    sched.submit(SiteJob("j", runtime_s=1.0))
    env.run()
    assert sched.kill("j") is False


def test_kill_unknown_job_raises():
    env = Environment()
    with pytest.raises(KeyError):
        make(env).kill("nope")


def test_hold_marks_held():
    env = Environment()
    sched = make(env, n_cpus=1)
    job = sched.submit(SiteJob("j", runtime_s=100.0))
    env.run(until=5.0)
    sched.hold("j")
    env.run()
    assert job.status is SiteJobStatus.HELD
    assert sched.held_count == 1


def test_kill_all():
    env = Environment()
    sched = make(env, n_cpus=1)
    jobs = [sched.submit(SiteJob(f"j{i}", runtime_s=100.0)) for i in range(4)]
    env.run(until=1.0)
    assert sched.kill_all() == 4
    env.run()
    assert all(j.status is SiteJobStatus.KILLED for j in jobs)


def test_frozen_site_reports_full_utilization():
    env = Environment()
    sched = make(env, n_cpus=2)
    assert sched.utilization == 0.0
    sched.freeze()
    # Zero live capacity must read as saturated, not idle: monitoring
    # would otherwise route work at a blackholed site.
    assert sched.utilization == 1.0
    sched.thaw()
    assert sched.utilization == 0.0


def test_freeze_blocks_new_starts():
    env = Environment()
    sched = make(env, n_cpus=2)
    sched.freeze()
    job = sched.submit(SiteJob("j", runtime_s=1.0))
    env.run(until=100.0)
    assert job.status is SiteJobStatus.PENDING
    assert sched.queued_jobs == 1
    sched.thaw()
    env.run()
    assert job.status is SiteJobStatus.COMPLETED


def test_status_change_callbacks_fire_in_order():
    env = Environment()
    sched = make(env)
    job = SiteJob("j", runtime_s=3.0)
    events = []
    job.on_status_change(lambda j, old, new: events.append((env.now, old, new)))
    sched.submit(job)
    env.run()
    assert events == [
        (0.0, SiteJobStatus.PENDING, SiteJobStatus.RUNNING),
        (3.0, SiteJobStatus.RUNNING, SiteJobStatus.COMPLETED),
    ]


def test_resubmitting_same_object_rejected():
    env = Environment()
    sched = make(env)
    job = sched.submit(SiteJob("a", runtime_s=1.0))
    env.run()
    other = LocalScheduler(env, 1, lambda runtime_s: runtime_s)
    with pytest.raises(ValueError, match="already submitted"):
        other.submit(job)


def test_service_time_fn_controls_duration():
    env = Environment()
    sched = LocalScheduler(env, 1, lambda runtime_s: runtime_s * 3.0)
    job = sched.submit(SiteJob("j", runtime_s=10.0))
    env.run()
    assert job.finished_at == 30.0


def test_contains():
    env = Environment()
    sched = make(env)
    sched.submit(SiteJob("j", runtime_s=1.0))
    assert "j" in sched and "k" not in sched


@pytest.mark.parametrize(
    "field", ["runtime_s", "checkpoint_interval_s", "checkpoint_cost_s"]
)
@pytest.mark.parametrize("bad", [-1.0, float("nan")])
def test_submit_rejects_negative_or_nan_demand_at_the_edge(field, bad):
    # Used to surface as "negative service time" from inside env.run()
    # (or never, for NaN); now submit names the field and admits nothing.
    env = Environment()
    sched = make(env)
    with pytest.raises(ValueError, match=field):
        sched.submit(SiteJob("j", **{field: bad}))
    assert "j" not in sched and sched.queued_jobs == 0
    env.run()
    assert env.now == 0.0


@pytest.mark.parametrize("bad", [-1.0, float("nan")])
def test_bad_service_time_draw_is_an_error(bad):
    env = Environment()
    sched = LocalScheduler(env, 1, lambda runtime_s: bad)
    sched.submit(SiteJob("j", runtime_s=1.0))
    with pytest.raises(ValueError, match="negative service time"):
        env.run()


def test_killed_running_job_leaves_a_stale_timer_that_does_nothing():
    env = Environment()
    sched = make(env, n_cpus=1)
    victim = sched.submit(SiteJob("victim", runtime_s=100.0))
    waiter = sched.submit(SiteJob("waiter", runtime_s=1.0))
    env.run(until=5.0)
    assert sched.kill("victim") is True
    assert victim.status is SiteJobStatus.KILLED and victim.finished_at == 5.0
    env.run()
    # the slot came back at the kill instant, not when the timer fired
    assert waiter.started_at == 5.0
    assert env.now == 100.0  # the stale run timer still fired, into the guard
    assert victim.status is SiteJobStatus.KILLED and victim.finished_at == 5.0
    assert (sched.completed_count, sched.killed_count) == (1, 1)
    assert sched.running_jobs == 0 and sched.reservation_audit() == []


def test_kill_from_own_running_callback_frees_the_slot():
    # A watcher that kills the job from its own RUNNING transition — inside
    # the grant callback that started it — must still get the slot unwound,
    # and the job must stay KILLED.
    env = Environment()
    sched = make(env, n_cpus=1)
    job = SiteJob("j", runtime_s=10.0)
    job.on_status_change(
        lambda j, _old, new: new is SiteJobStatus.RUNNING and sched.kill("j")
    )
    sched.submit(job)
    nxt = sched.submit(SiteJob("next", runtime_s=1.0))
    env.run()
    assert job.status is SiteJobStatus.KILLED and job.finished_at == 0.0
    assert nxt.started_at == 0.0
    assert (sched.completed_count, sched.killed_count) == (1, 1)
    assert sched.reservation_audit() == []
