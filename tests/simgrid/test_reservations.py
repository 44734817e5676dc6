"""Advance reservations + EASY backfilling in the site scheduler."""

import random

import pytest

from repro.sim import Environment
from repro.simgrid import (
    LocalScheduler,
    ReservationState,
    SiteJob,
    SiteJobStatus,
)


def make(env, n_cpus=2, factor=1.0, backfill=True):
    return LocalScheduler(env, n_cpus, lambda runtime_s: runtime_s * factor,
                          backfill=backfill)


# -- admission ---------------------------------------------------------------
def test_reserve_confirms_and_rejects_duplicates():
    env = Environment()
    sched = make(env, n_cpus=2)
    assert sched.reserve("r1", start_s=100.0, duration_s=50.0, cpus=1)
    assert not sched.reserve("r1", start_s=400.0, duration_s=50.0, cpus=1)
    assert sched.reservation_counts["confirmed"] == 1
    assert sched.reservation_counts["rejected"] == 1


def test_reserve_rejects_bad_parameters():
    env = Environment()
    sched = make(env, n_cpus=2)
    assert not sched.reserve("a", start_s=10.0, duration_s=50.0, cpus=0)
    assert not sched.reserve("b", start_s=10.0, duration_s=50.0, cpus=3)
    assert not sched.reserve("c", start_s=10.0, duration_s=0.0, cpus=1)
    env.run(until=20.0)
    assert not sched.reserve("d", start_s=10.0, duration_s=50.0, cpus=1)
    assert sched.reservation_counts["rejected"] == 4


@pytest.mark.parametrize("start_s, duration_s", [
    (float("nan"), 10.0), (0.0, float("nan")), (0.0, float("inf")),
])
def test_reserve_rejects_a_window_that_cannot_close(start_s, duration_s):
    """Told "rejected", the site must keep nothing: such a window used
    to be filed and granted its CPU before the end timer failed to arm
    (or, for an infinite one, was confirmed and held for ever)."""
    env = Environment()
    sched = make(env, n_cpus=2)
    assert sched.reserve("r", start_s, duration_s, 1) is False
    env.run()
    assert sched.reservations == ()
    assert sched._cpus.count == 0
    assert sched.reservation_counts["rejected"] == 1
    assert sched.reservation_audit() == []


@pytest.mark.parametrize("cpus", [1.7, "2", True, float("nan"), float("inf")])
def test_reserve_rejects_a_cpu_count_that_is_not_an_int(cpus):
    """``int(cpus)`` used to book 1 CPU for 1.7 or True and 2 for "2",
    and to raise out of the call for NaN and inf."""
    env = Environment()
    sched = LocalScheduler(env, 4, lambda r: r)
    assert sched.reserve("a", 0.0, 10.0, cpus) is False
    assert sched.reservations == ()
    assert sched._cpus.count == 0
    assert sched.reservation_counts["rejected"] == 1
    env.run()
    assert sched._cpus.count == 0


def test_reserve_rejects_window_oversubscription():
    env = Environment()
    sched = make(env, n_cpus=2)
    assert sched.reserve("r1", start_s=100.0, duration_s=100.0, cpus=2)
    # overlaps r1's window: 2 + 1 > 2 CPUs
    assert not sched.reserve("r2", start_s=150.0, duration_s=10.0, cpus=1)
    # disjoint window is fine
    assert sched.reserve("r3", start_s=300.0, duration_s=10.0, cpus=2)


# -- claiming ----------------------------------------------------------------
def test_claimed_job_runs_in_window():
    env = Environment()
    sched = make(env, n_cpus=1)
    sched.reserve("r", start_s=50.0, duration_s=100.0, cpus=1)
    env.run(until=50.0)
    job = sched.submit(SiteJob("j", runtime_s=20.0), reservation_id="r")
    env.run()
    assert job.status is SiteJobStatus.COMPLETED
    assert job.started_at == 50.0
    res = sched.reservation("r")
    assert res.state is ReservationState.RELEASED
    assert res.started_jobs == 1
    assert sched.reservation_miss_latencies == [0.0]
    assert sched.reservation_audit() == []


def test_claimed_job_may_start_early_on_idle_holds():
    env = Environment()
    sched = make(env, n_cpus=1)
    sched.reserve("r", start_s=500.0, duration_s=50.0, cpus=1)
    env.run(until=1.0)
    job = sched.submit(SiteJob("early", runtime_s=10.0), reservation_id="r")
    env.run(until=20.0)
    assert job.status is SiteJobStatus.COMPLETED
    assert job.started_at == 1.0


def test_unknown_reservation_falls_back_to_queue():
    env = Environment()
    sched = make(env, n_cpus=1)
    job = sched.submit(SiteJob("j", runtime_s=5.0), reservation_id="ghost")
    env.run()
    assert job.status is SiteJobStatus.COMPLETED
    assert job.reservation_id is None  # never bound


# -- expiry / cancellation ---------------------------------------------------
def test_window_expires_unused():
    env = Environment()
    sched = make(env, n_cpus=2)
    sched.reserve("r", start_s=10.0, duration_s=20.0, cpus=2)
    env.run(until=40.0)
    res = sched.reservation("r")
    assert res.state is ReservationState.EXPIRED
    assert not res.held and not res.pending_holds
    assert sched.reservation_audit() == []
    # the slots are usable again
    job = sched.submit(SiteJob("after", runtime_s=1.0))
    env.run()
    assert job.status is SiteJobStatus.COMPLETED


def test_window_with_started_jobs_releases():
    env = Environment()
    sched = make(env, n_cpus=1)
    sched.reserve("r", start_s=10.0, duration_s=20.0, cpus=1)
    env.run(until=10.0)
    sched.submit(SiteJob("j", runtime_s=5.0), reservation_id="r")
    env.run()
    assert sched.reservation("r").state is ReservationState.RELEASED
    assert sched.reservation_counts["released"] == 1


def test_cancel_returns_held_slots():
    env = Environment()
    sched = make(env, n_cpus=1)
    sched.reserve("r", start_s=100.0, duration_s=50.0, cpus=1)
    env.run(until=5.0)
    blocked = sched.submit(SiteJob("blocked", runtime_s=200.0, priority=5))
    env.run(until=6.0)
    # the hold owns the only CPU; the 200s job cannot backfill (no fit)
    assert blocked.status is SiteJobStatus.PENDING
    assert sched.cancel_reservation("r") is True
    assert sched.cancel_reservation("r") is False
    env.run(until=7.0)
    assert blocked.status is SiteJobStatus.RUNNING
    assert sched.reservation("r").state is ReservationState.CANCELLED
    assert sched.reservation_audit() == []


def test_cancel_repoints_claimed_jobs_to_queue():
    env = Environment()
    sched = make(env, n_cpus=1)
    runner = sched.submit(SiteJob("runner", runtime_s=30.0))
    env.run(until=1.0)
    sched.reserve("r", start_s=100.0, duration_s=50.0, cpus=1)
    job = sched.submit(SiteJob("claimed", runtime_s=5.0),
                       reservation_id="r")
    env.run(until=2.0)
    sched.cancel_reservation("r")
    env.run()
    # fell back to the ordinary queue and still completed
    assert job.status is SiteJobStatus.COMPLETED
    assert runner.status is SiteJobStatus.COMPLETED
    assert sched.reservation_audit() == []


def test_release_reservations_on_outage():
    env = Environment()
    sched = make(env, n_cpus=2)
    sched.reserve("a", start_s=50.0, duration_s=50.0, cpus=1)
    sched.reserve("b", start_s=200.0, duration_s=50.0, cpus=2)
    env.run(until=5.0)
    assert sched.release_reservations() == 2
    assert sched.release_reservations() == 0
    for rid in ("a", "b"):
        assert sched.reservation(rid).state is ReservationState.CANCELLED
    # a hold grant displaced by "a"'s release is in flight for one
    # instant; the audit contract is quiescent-state only
    env.run(until=6.0)
    assert sched.reservation_audit() == []
    assert sched.reservation_counts["cancelled"] == 2


# -- backfilling -------------------------------------------------------------
def test_backfill_runs_short_job_in_hole():
    env = Environment()
    sched = make(env, n_cpus=1)
    sched.reserve("r", start_s=100.0, duration_s=50.0, cpus=1)
    env.run(until=10.0)
    short = sched.submit(SiteJob("short", runtime_s=30.0))
    env.run(until=11.0)
    assert short.status is SiteJobStatus.RUNNING  # borrowed the held slot
    assert sched.backfill_count == 1
    env.run(until=50.0)
    assert short.status is SiteJobStatus.COMPLETED
    # the slot went home to the reservation, not the general pool
    assert len(sched.reservation("r").held) == 1


def test_backfill_refuses_job_that_would_delay_window():
    env = Environment()
    sched = make(env, n_cpus=1)
    sched.reserve("r", start_s=100.0, duration_s=50.0, cpus=1)
    env.run(until=10.0)
    long = sched.submit(SiteJob("long", runtime_s=91.0))  # 10 + 91 > 100
    env.run(until=50.0)
    assert long.status is SiteJobStatus.PENDING
    assert sched.backfill_count == 0


def test_backfill_disabled_leaves_holes_idle():
    env = Environment()
    sched = make(env, n_cpus=1, backfill=False)
    sched.reserve("r", start_s=100.0, duration_s=50.0, cpus=1)
    env.run(until=10.0)
    short = sched.submit(SiteJob("short", runtime_s=30.0))
    env.run(until=50.0)
    assert short.status is SiteJobStatus.PENDING
    assert sched.backfill_count == 0


def test_killed_backfilled_job_returns_slot():
    env = Environment()
    sched = make(env, n_cpus=1)
    sched.reserve("r", start_s=100.0, duration_s=50.0, cpus=1)
    env.run(until=10.0)
    short = sched.submit(SiteJob("short", runtime_s=30.0))
    env.run(until=15.0)
    assert short.status is SiteJobStatus.RUNNING
    sched.kill("short")
    env.run(until=16.0)
    assert short.status is SiteJobStatus.KILLED
    assert len(sched.reservation("r").held) == 1
    assert sched.reservation_audit() == []


def test_killed_claimed_job_keeps_calendar_clean():
    env = Environment()
    sched = make(env, n_cpus=1)
    runner = sched.submit(SiteJob("runner", runtime_s=50.0))
    env.run(until=1.0)
    sched.reserve("r", start_s=100.0, duration_s=50.0, cpus=1)
    sched.submit(SiteJob("claimed", runtime_s=5.0), reservation_id="r")
    env.run(until=2.0)
    assert sched.kill("claimed") is True
    env.run()
    assert runner.status is SiteJobStatus.COMPLETED
    assert sched.reservation("r").state is ReservationState.EXPIRED
    assert sched.reservation_audit() == []


# -- the EASY property -------------------------------------------------------
def _reserved_start(backfill: bool, runtimes, priorities,
                    start_s: float = 300.0):
    """Start time of the reserved job with/without backfilling.

    Background jobs saturate a 2-CPU site; the reserved job claims its
    slot exactly when the window opens (plain FIFO would make it wait
    behind the queue; the reservation must not).
    """
    env = Environment()
    sched = make(env, n_cpus=2, backfill=backfill)
    assert sched.reserve("r", start_s=start_s, duration_s=200.0, cpus=1)
    for i, (rt, prio) in enumerate(zip(runtimes, priorities)):
        sched.submit(SiteJob(f"bg{i}", runtime_s=rt, priority=prio))

    def claim():
        yield env.timeout(start_s)
        sched.submit(SiteJob("reserved", runtime_s=20.0, priority=50),
                     reservation_id="r")

    env.process(claim())
    env.run()
    job = sched.job("reserved")
    assert job.status is SiteJobStatus.COMPLETED
    return job.started_at, sched.backfill_count


def test_easy_backfilling_never_delays_reserved_job():
    runtimes = [40.0, 80.0, 120.0, 60.0, 30.0, 90.0]
    priorities = [10, 10, 20, 5, 15, 10]
    with_bf, bf_count = _reserved_start(True, runtimes, priorities)
    without_bf, _ = _reserved_start(False, runtimes, priorities)
    assert bf_count > 0  # the comparison is not vacuous
    assert with_bf <= without_bf
    # the reservation guarantee itself: starts the instant the window opens
    assert with_bf == 300.0


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_easy_property_randomized(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    runtimes = [rng.uniform(5.0, 250.0) for _ in range(n)]
    priorities = [rng.randint(1, 30) for _ in range(n)]
    with_bf, _ = _reserved_start(True, runtimes, priorities)
    without_bf, _ = _reserved_start(False, runtimes, priorities)
    assert with_bf <= without_bf


# -- frozen sites ------------------------------------------------------------
def test_frozen_site_confirms_but_never_starts():
    env = Environment()
    sched = make(env, n_cpus=2)
    sched.freeze()
    assert sched.utilization == 1.0  # satellite: no live capacity = busy
    assert sched.reserve("r", start_s=10.0, duration_s=30.0, cpus=1)
    job = sched.submit(SiteJob("j", runtime_s=5.0), reservation_id="r")
    env.run(until=60.0)
    assert job.status is SiteJobStatus.PENDING
    # the window-end timer still expired the stuck reservation
    assert sched.reservation("r").state is ReservationState.EXPIRED
    assert sched.reservation_audit() == []


def test_thaw_redispatches_reservation():
    env = Environment()
    sched = make(env, n_cpus=1)
    sched.freeze()
    sched.reserve("r", start_s=5.0, duration_s=100.0, cpus=1)
    job = sched.submit(SiteJob("j", runtime_s=5.0), reservation_id="r")
    env.run(until=20.0)
    assert job.status is SiteJobStatus.PENDING
    sched.thaw()
    env.run()
    assert job.status is SiteJobStatus.COMPLETED
    assert sched.reservation("r").state is ReservationState.RELEASED


def test_lean_kernel_reservations_work_too():
    env = Environment()
    sched = make(env, n_cpus=1)
    sched.reserve("r", start_s=50.0, duration_s=50.0, cpus=1)
    env.run(until=10.0)
    short = sched.submit(SiteJob("short", runtime_s=20.0))
    env.run(until=50.0)
    job = sched.submit(SiteJob("claimed", runtime_s=10.0),
                       reservation_id="r")
    env.run()
    assert short.status is SiteJobStatus.COMPLETED
    assert job.status is SiteJobStatus.COMPLETED
    assert sched.backfill_count == 1
    assert sched.reservation_audit() == []
