"""Differential test: the callback batch queue against its slow twin.

``LocalScheduler`` runs a job as callbacks on one awaited event;
``reference_local_scheduler.py`` keeps the historical generator process
per job.  Random operation sequences — every public verb, at instants
drawn from small pools so that ties (a kill landing on a grant instant,
or on a backfill redirect in flight) are the rule, not the exception —
must leave both in the same state with ``==``: every job's status and
float timings, the order and instants of status callbacks, the
observables after every operation, every counter — and the two process
the same number of kernel events.

The state machine forgets a detached job when it ends (the twin never
does), so the rig keeps the ``SiteJob`` each ``submit`` returned and
reads final state from that; a verb aimed at a forgotten id must raise
``KeyError`` and is logged as the ``False`` the twin answers.
"""

import random
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.simgrid import LocalScheduler, SiteJob, SiteJobStatus

from tests.simgrid.reference_local_scheduler import ReferenceLocalScheduler

# Small pools make exact ties likely; the float ranges keep rounding honest.
DELAYS = st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.0, 5.0]) | st.floats(0.0, 12.0)
RUNTIMES = st.sampled_from([0.0, 1.0, 2.0, 5.0, 5.0, 10.0]) | st.floats(0.0, 30.0)
PRIORITIES = st.sampled_from([1, 10, 10, 10, 20])
SMALL = st.integers(0, 7)  # job / reservation references, taken modulo


@dataclass(frozen=True)
class Watch:
    """When the job reaches ``on``, ``verb`` the ``target``-th job."""

    on: str
    verb: str
    target: int


@dataclass(frozen=True)
class Submit:
    runtime_s: float
    priority: int
    detached: bool
    reservation: Optional[int]
    checkpoint_interval_s: float
    checkpoint_cost_s: float
    watch: Optional[Watch]
    late_watch: bool = False  # detached only: subscribe after submit returns


@dataclass(frozen=True)
class Stop:
    verb: str  # "kill" | "hold"
    target: int


@dataclass(frozen=True)
class Reserve:
    start_in_s: float
    duration_s: float
    cpus: int


@dataclass(frozen=True)
class Simple:
    verb: str  # kill_all | freeze | thaw | release_reservations
    arg: int = 0  # cancel_reservation target


@dataclass(frozen=True)
class Case:
    n_cpus: int
    backfill: bool
    seed: Optional[int]  # of the service-time noise; None = no noise
    steps: list  # [(delay, [ops applied back to back in one callback])]


WATCHES = st.builds(
    Watch,
    on=st.sampled_from(["running", "completed", "killed", "held"]),
    verb=st.sampled_from(["kill", "hold"]),
    target=SMALL,
)
OPS = st.one_of(
    st.builds(
        Submit,
        runtime_s=RUNTIMES,
        priority=PRIORITIES,
        detached=st.booleans(),
        reservation=st.none() | SMALL,
        checkpoint_interval_s=st.sampled_from([0.0, 0.0, 1.0, 2.5]),
        checkpoint_cost_s=st.sampled_from([0.0, 0.25]),
        watch=st.none() | WATCHES,
        late_watch=st.booleans(),
    ),
    st.builds(
        Submit,  # plain short jobs: queue pressure and backfill fodder
        runtime_s=st.sampled_from([1.0, 2.0, 5.0]),
        priority=PRIORITIES,
        detached=st.booleans(),
        reservation=st.none(),
        checkpoint_interval_s=st.just(0.0),
        checkpoint_cost_s=st.just(0.0),
        watch=st.none(),
    ),
    st.builds(Stop, verb=st.sampled_from(["kill", "kill", "hold"]), target=SMALL),
    st.builds(
        Reserve,
        start_in_s=st.sampled_from([0.0, 1.0, 5.0, 20.0]) | st.floats(0.0, 30.0),
        duration_s=st.sampled_from([1.0, 5.0, 30.0]),
        cpus=st.integers(1, 3),
    ),
    st.builds(
        Simple,
        verb=st.sampled_from(
            ["kill_all", "freeze", "thaw", "thaw", "release_reservations",
             "cancel_reservation", "cancel_reservation"]
        ),
        arg=SMALL,
    ),
)
CASES = st.builds(
    Case,
    n_cpus=st.integers(1, 3),
    backfill=st.sampled_from([True, True, False]),
    seed=st.integers(0, 3),
    steps=st.lists(
        st.tuples(DELAYS, st.lists(OPS, min_size=1, max_size=3)),
        min_size=1, max_size=20,
    ),
)


def simulate(cls, case: Case):
    """Drive ``case`` through ``cls``; everything an observer could see."""
    env = Environment()
    rng = random.Random(case.seed)  # one draw per start: start *order* shows
    noise = (0.5, 1.0, 1.0, 1.75) if case.seed is not None else (1.0,)
    sched = cls(
        env,
        case.n_cpus,
        lambda job: job.runtime_s * rng.choice(noise),
        backfill=case.backfill,
    )
    log: list[tuple] = []
    made: list[SiteJob] = []  # as submit returned them, by job number
    detached: set[str] = set()
    n_res = 0

    def stop(verb: str, target: int):
        if not made:
            return
        job = made[target % len(made)]
        if job.job_id in sched:
            done = getattr(sched, verb)(job.job_id)
        else:  # only a detached job that has ended is ever forgotten
            assert job.job_id in detached and job.status.terminal
            with pytest.raises(KeyError):
                getattr(sched, verb)(job.job_id)
            done = False
        log.append((verb, job.job_id, done))

    def record(job, old, new):
        log.append(("status", job.job_id, old.value, new.value, env.now))

    def apply(op):
        nonlocal n_res
        if isinstance(op, Submit):
            job = SiteJob(
                f"j{len(made)}",
                runtime_s=op.runtime_s,
                priority=op.priority,
                checkpoint_interval_s=op.checkpoint_interval_s,
                checkpoint_cost_s=op.checkpoint_cost_s,
            )
            made.append(job)
            if not op.detached:
                # detached means nobody watches (LocalScheduler.submit)
                job.on_status_change(record)
                watch = op.watch
                if watch is not None:
                    job.on_status_change(
                        lambda _j, _old, new: new.value == watch.on
                        and stop(watch.verb, watch.target)
                    )
            res_id = None
            if op.reservation is not None:  # mostly a real one, live or not
                res_id = f"r{op.reservation % (n_res + 1)}"
            sched.submit(job, detached=op.detached, reservation_id=res_id)
            if op.detached:
                detached.add(job.job_id)
                if op.late_watch:
                    job.on_status_change(record)  # may already be RUNNING
        elif isinstance(op, Stop):
            stop(op.verb, op.target)
        elif isinstance(op, Reserve):
            res_id = f"r{n_res}"
            n_res += 1
            ok = sched.reserve(
                res_id, env.now + op.start_in_s, op.duration_s, op.cpus
            )
            log.append(("reserve", res_id, ok))
        elif op.verb == "cancel_reservation":
            res_id = f"r{op.arg % max(n_res, 1)}"
            log.append(("cancel", res_id, sched.cancel_reservation(res_id)))
        else:
            log.append((op.verb, getattr(sched, op.verb)()))

    def driver():
        for delay, ops in case.steps:
            yield env.timeout(delay)
            for op in ops:
                apply(op)
            log.append(("seen", env.now, sched.queued_jobs,
                        sched.running_jobs, sched.utilization))

    env.process(driver())
    env.run()
    before_thaw = env.event_count
    sched.thaw()  # a site left frozen drains too, so every case ends quiescent
    env.run()
    jobs = {
        j.job_id: (
            j.status, j.submitted_at, j.started_at, j.finished_at,
            j.checkpointed_fraction, j.lost_work_s,
        )
        for j in made
    }
    counters = (
        sched.completed_count, sched.killed_count, sched.held_count,
        sched.backfill_count, sched.preempted_work_s,
        dict(sched.reservation_counts), list(sched.reservation_miss_latencies),
        [(r.res_id, r.state, r.started_jobs) for r in sched.reservations],
        sched.queued_jobs, sched.running_jobs, env.now,
    )
    return {
        "jobs": jobs,
        "log": log,
        "counters": counters,
        "audit": sched.reservation_audit(),
        "events": (before_thaw, env.event_count),
        "sched": sched,  # for white-box checks; never compared
    }


def assert_same(case: Case):
    want = simulate(ReferenceLocalScheduler, case)
    got = simulate(LocalScheduler, case)
    assert got["log"] == want["log"]      # callback order and instants
    assert got["jobs"] == want["jobs"]    # float ==, not approx
    assert got["counters"] == want["counters"]
    assert got["audit"] == want["audit"] == []
    assert got["events"] == want["events"]
    return got


@settings(max_examples=400, deadline=None)
@given(case=CASES)
def test_state_machine_matches_generator_twin(case):
    assert_same(case)


def submit(runtime_s, *, priority=10, detached=False, reservation=None,
           ckpt=0.0, cost=0.0, watch=None, late_watch=False):
    return Submit(runtime_s, priority, detached, reservation, ckpt, cost,
                  watch, late_watch)


def test_kill_landing_on_a_grant_instant():
    # One CPU.  j0 ends at t=5 and its slot is granted to j1 on the spot;
    # the driver's own t=5 timer was armed after j0's, so the kill runs
    # with j1's grant in flight: the slot must come back and go to j2.
    case = Case(1, True, None, [
        (0.0, [submit(5.0), submit(5.0), submit(5.0)]),
        (0.0, [Simple("thaw")]),          # no-op: j0 is running by now
        (5.0, [Stop("kill", 1)]),
    ])
    got = assert_same(case)
    assert ("kill", "j1", True) in got["log"]
    # seen right after the kill: j0 already gone, j2's grant in flight
    assert ("seen", 5.0, 1, 0, 1.0) in got["log"]
    assert got["jobs"]["j1"][0] is SiteJobStatus.KILLED
    assert got["jobs"]["j1"][2] is None        # never started
    assert got["jobs"]["j2"][2] == 5.0         # took the slot at once


@pytest.mark.parametrize("verb", ["kill", "hold"])
def test_kill_landing_on_a_backfill_redirect(verb):
    # Two CPUs, both busy; a short job queues.  A 1-CPU reservation for
    # t=50 issues a hold; j0's slot frees at t=5, drains into the hold,
    # and the hole before t=50 is backfilled with the queued j2.  The
    # zero-delay step lands while that redirect is still in flight.
    case = Case(2, True, None, [
        (0.0, [submit(5.0), submit(40.0), submit(2.0)]),
        (0.0, [Reserve(50.0, 5.0, 1)]),
        (5.0, [Simple("thaw")]),          # a no-op step at t=5 ...
        (0.0, [Stop(verb, 2)]),           # ... then the kill, same instant
        (1.0, [submit(1.0)]),             # the hole is offered again
    ])
    got = assert_same(case)
    assert (verb, "j2", True) in got["log"]
    assert got["jobs"]["j2"][2] is None
    assert got["counters"][3] == 2             # j2 and then j3 backfilled
    assert got["jobs"]["j3"][2] == 6.0


def test_claim_falls_back_to_the_queue_when_the_reservation_evaporates():
    case = Case(1, True, None, [
        (0.0, [submit(10.0), Reserve(2.0, 3.0, 1),
               submit(1.0, reservation=0)]),          # waits on the grant ...
        (1.0, [Simple("cancel_reservation", 0),       # ... which settles None
               submit(1.0, reservation=0),            # terminal: to the queue
               Stop("kill", 0)]),
    ])
    got = assert_same(case)
    # j0's slot comes back at the kill's unwind, ahead of j1's None grant:
    # j2 is already queued and takes it, j1 re-queues behind.
    assert got["jobs"]["j2"][:3] == (SiteJobStatus.COMPLETED, 1.0, 1.0)
    assert got["jobs"]["j1"][:3] == (SiteJobStatus.COMPLETED, 0.0, 2.0)


def test_checkpointed_job_killed_mid_run():
    case = Case(1, True, None, [
        (0.0, [submit(10.0, ckpt=2.5, cost=0.25)]),
        (4.0, [Stop("kill", 0)]),
    ])
    got = assert_same(case)
    status, _sub, started, finished, fraction, lost = got["jobs"]["j0"]
    assert (status, started, finished) == (SiteJobStatus.KILLED, 0.0, 4.0)
    assert 0.0 < fraction < 1.0 and lost > 0.0


def test_zero_runtime_detached_job_is_forgotten_at_once():
    # The first thing Hypothesis finds against a rig that asks the
    # scheduler for its jobs afterwards: j0 starts in place, ends at its
    # own instant and is gone before the driver's next step.
    got = assert_same(Case(1, True, None, [(0.0, [submit(0.0, detached=True)])]))
    assert got["jobs"]["j0"][:4] == (SiteJobStatus.COMPLETED, 0.0, 0.0, 0.0)
    assert "j0" not in got["sched"]


def test_kill_of_a_running_job_that_is_its_own_timer():
    # One CPU.  j0 starts in place at t=0, holding the slot as itself with
    # its own entry on the kernel heap for t=10.  The kill at t=4 frees the
    # slot once, through _unwind; j1 takes it in place the same instant and
    # runs to t=9.  j0's heap entry still fires at t=10 — into the guard: it
    # is counted (the twin's stale Timeout is too) and frees nothing, or
    # j2 (in place at t=9.5, 1 CPU) would see its slot handed out twice.
    case = Case(1, True, None, [
        (0.0, [submit(10.0, detached=True)]),
        (4.0, [Stop("kill", 0)]),
        (0.0, [submit(5.0, detached=True)]),
        (5.5, [submit(5.0, detached=True), submit(1.0)]),
    ])
    got = assert_same(case)  # includes event_count == the twin's
    assert ("kill", "j0", True) in got["log"]
    assert got["jobs"]["j0"][:4] == (SiteJobStatus.KILLED, 0.0, 0.0, 4.0)
    assert got["jobs"]["j1"][:4] == (SiteJobStatus.COMPLETED, 4.0, 4.0, 9.0)
    assert got["jobs"]["j2"][:4] == (SiteJobStatus.COMPLETED, 9.5, 9.5, 14.5)
    assert got["jobs"]["j3"][2] == 14.5        # queued behind j2, not at t=10
    sched = got["sched"]
    assert sched._cpus.count == 0 and not sched._awaiting and not sched._running
    assert list(sched._jobs) == ["j3"]         # the watched job is kept


def test_watcher_registered_after_an_in_place_start():
    # A detached job is RUNNING when submit returns; a watcher added then
    # (the first, so it creates the list) sees exactly the rest.
    got = assert_same(Case(2, True, None, [
        (1.0, [submit(3.0, detached=True, late_watch=True)]),
    ]))
    assert [e for e in got["log"] if e[0] == "status"] == [
        ("status", "j0", "running", "completed", 4.0)]
    assert "j0" not in got["sched"]            # watched late, still detached


def test_kill_of_a_forgotten_detached_id_is_an_unknown_id():
    env = Environment()
    sched = LocalScheduler(env, 1, lambda job: job.runtime_s)
    job = sched.submit(SiteJob("bg", runtime_s=2.0), detached=True)
    assert sched.job("bg") is job and "bg" in sched
    env.run()
    assert job.status is SiteJobStatus.COMPLETED and "bg" not in sched
    for verb in (sched.kill, sched.hold, sched.job):
        with pytest.raises(KeyError):
            verb("bg")
    with pytest.raises(KeyError):
        sched.kill("never-submitted")
    # killed, not completed: known (and terminal) until its slot unwinds
    again = sched.submit(SiteJob("bg", runtime_s=2.0), detached=True)
    assert sched.kill("bg") is True and sched.kill("bg") is False
    with pytest.raises(ValueError, match="duplicate"):
        sched.submit(SiteJob("bg"), detached=True)
    env.run()
    assert again.status is SiteJobStatus.KILLED and "bg" not in sched
    assert sched.kill_all() == 0 and sched._cpus.count == 0


def test_slot_conservation_counts_slots_jobs_hold_as_themselves():
    env = Environment()
    sched = LocalScheduler(env, 3, lambda job: job.runtime_s)
    a = sched.submit(SiteJob("a", runtime_s=10.0), detached=True)
    sched.submit(SiteJob("b", runtime_s=4.0), detached=True)
    assert sched._running["a"] is a            # no Request was built
    assert sched.reserve("r", 6.0, 5.0, cpus=2)
    env.run(until=1.0)                         # one hold granted, one queued
    assert sched._cpus.count == 3 and sched.utilization == 1.0
    assert sched.reservation_audit() == []
    env.run(until=5.0)                         # b's slot drained into r
    assert (sched.running_jobs, sched._cpus.count) == (1, 3)
    assert sched.reservation_audit() == []
    env.run()
    assert sched._cpus.count == 0 and sched.reservation_audit() == []
