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
    n_jobs = n_res = 0

    def stop(verb: str, target: int):
        job_id = f"j{target % max(n_jobs, 1)}"
        if job_id in sched:
            log.append((verb, job_id, getattr(sched, verb)(job_id)))

    def record(job, old, new):
        log.append(("status", job.job_id, old.value, new.value, env.now))

    def apply(op):
        nonlocal n_jobs, n_res
        if isinstance(op, Submit):
            job = SiteJob(
                f"j{n_jobs}",
                runtime_s=op.runtime_s,
                priority=op.priority,
                checkpoint_interval_s=op.checkpoint_interval_s,
                checkpoint_cost_s=op.checkpoint_cost_s,
            )
            n_jobs += 1
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
    jobs = {}
    for i in range(n_jobs):
        j = sched.job(f"j{i}")
        jobs[j.job_id] = (
            j.status, j.submitted_at, j.started_at, j.finished_at,
            j.checkpointed_fraction, j.lost_work_s,
        )
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
           ckpt=0.0, cost=0.0, watch=None):
    return Submit(runtime_s, priority, detached, reservation, ckpt, cost, watch)


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
