"""Differential test: the callback batch queue against its slow twin.

``LocalScheduler`` runs a job as callbacks on one awaited event;
``reference_local_scheduler.py`` keeps the historical generator process
per job.  Random operation sequences — every public verb, at instants
drawn from small pools so that ties (a kill landing on a grant instant)
are the rule, not the exception —
must leave both in the same state with ``==``: every job's status and
float timings, the order and instants of status callbacks, the
observables after every operation, every counter — and the two process
the same number of kernel events.

Local load (``submit_local``) runs in cohorts here and as one recorded,
process-driven job per runtime in the twin.  A cohort member has no
record to compare, so the rig compares what an arrival does to everyone
else: after every step the observables, every counter,
``repr(preempted_work_s)`` and the held-slot count, and at the end
``env.event_count`` — a member that started, ended, was killed or drew
its service noise at another instant or in another order shows in one.
"""

import random
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.sim.rng import RngStreams
from repro.simgrid import GridSite, LocalScheduler, SiteJob, SiteJobStatus, SiteState
from repro.simgrid.site import SiteUnavailableError

from tests.simgrid.reference_local_scheduler import ReferenceLocalScheduler

# Small pools make exact ties likely; the float ranges keep rounding honest.
DELAYS = st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.0, 5.0]) | st.floats(0.0, 12.0)
RUNTIMES = st.sampled_from([0.0, 1.0, 2.0, 5.0, 5.0, 10.0]) | st.floats(0.0, 30.0)
SMALL = st.integers(0, 7)  # job references, taken modulo


@dataclass(frozen=True)
class Watch:
    """When the job reaches ``on``, ``verb`` the ``target``-th job."""

    on: str
    verb: str
    target: int


@dataclass(frozen=True)
class Submit:
    runtime_s: float
    checkpoint_interval_s: float
    checkpoint_cost_s: float
    watch: Optional[Watch]


@dataclass(frozen=True)
class SubmitLocal:
    """One arrival of local load: nobody watches, nobody can address it."""

    runtimes: tuple


@dataclass(frozen=True)
class Stop:
    verb: str  # "kill"
    target: int


@dataclass(frozen=True)
class Simple:
    verb: str  # kill_all | freeze | thaw


@dataclass(frozen=True)
class Case:
    n_cpus: int
    seed: Optional[int]  # of the service-time noise; None = no noise
    steps: list  # [(delay, [ops applied back to back in one callback])]


WATCHES = st.builds(
    Watch,
    on=st.sampled_from(["running", "completed", "killed"]),
    verb=st.just("kill"),
    target=SMALL,
)
OPS = st.one_of(
    st.builds(
        Submit,
        runtime_s=RUNTIMES,
        checkpoint_interval_s=st.sampled_from([0.0, 0.0, 1.0, 2.5]),
        checkpoint_cost_s=st.sampled_from([0.0, 0.25]),
        watch=st.none() | WATCHES,
    ),
    st.builds(
        Submit,  # plain short jobs: queue pressure
        runtime_s=st.sampled_from([1.0, 2.0, 5.0]),
        checkpoint_interval_s=st.just(0.0),
        checkpoint_cost_s=st.just(0.0),
        watch=st.none(),
    ),
    st.builds(
        SubmitLocal,  # 1-6 jobs on 1-6 CPUs: fits, partly fits, all queue
        runtimes=st.lists(RUNTIMES, min_size=1, max_size=6).map(tuple),
    ),
    st.builds(Stop, verb=st.just("kill"), target=SMALL),
    st.builds(
        Simple,
        verb=st.sampled_from(["kill_all", "freeze", "thaw", "thaw"]),
    ),
)
CASES = st.builds(
    Case,
    n_cpus=st.integers(1, 6),
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
        lambda runtime_s: runtime_s * rng.choice(noise),
    )
    log: list[tuple] = []
    made: list[SiteJob] = []  # as submit returned them, by job number
    n_local = 0

    def stop(verb: str, target: int):
        if not made:
            return
        job = made[target % len(made)]
        log.append((verb, job.job_id, getattr(sched, verb)(job.job_id)))

    def record(job, old, new):
        log.append(("status", job.job_id, old.value, new.value, env.now))

    def apply(op):
        nonlocal n_local
        if isinstance(op, SubmitLocal):
            sched.submit_local(op.runtimes, "local", "bg.", n_local)
            n_local += len(op.runtimes)
        elif isinstance(op, Submit):
            job = SiteJob(
                f"j{len(made)}",
                runtime_s=op.runtime_s,
                checkpoint_interval_s=op.checkpoint_interval_s,
                checkpoint_cost_s=op.checkpoint_cost_s,
            )
            made.append(job)
            job.on_status_change(record)
            watch = op.watch
            if watch is not None:
                job.on_status_change(
                    lambda _j, _old, new: new.value == watch.on
                    and stop(watch.verb, watch.target)
                )
            sched.submit(job)
        elif isinstance(op, Stop):
            stop(op.verb, op.target)
        else:
            log.append((op.verb, getattr(sched, op.verb)()))

    def driver():
        for delay, ops in case.steps:
            yield env.timeout(delay)
            for op in ops:
                apply(op)
            log.append(("seen", env.now, sched.queued_jobs,
                        sched.running_jobs, sched.utilization))
            log.append(("counted", sched.completed_count, sched.killed_count,
                        repr(sched.preempted_work_s), sched._cpus.count))

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
        sched.completed_count, sched.killed_count,
        repr(sched.preempted_work_s),
        sched.queued_jobs, sched.running_jobs, env.now,
    )
    return {
        "jobs": jobs,
        "log": log,
        "counters": counters,
        # quiescent: every slot back, so none can have leaked
        "slots": (sched._cpus.count, sched._cpus.queued),
        "events": (before_thaw, env.event_count),
        "sched": sched,  # for white-box checks; never compared
    }


def assert_same(case: Case):
    want = simulate(ReferenceLocalScheduler, case)
    got = simulate(LocalScheduler, case)
    assert got["log"] == want["log"]      # callback order and instants
    assert got["jobs"] == want["jobs"]    # float ==, not approx
    assert got["counters"] == want["counters"]
    assert got["slots"] == want["slots"] == (0, 0)
    assert got["events"] == want["events"]
    return got


@settings(max_examples=400, deadline=None)
@given(case=CASES)
def test_state_machine_matches_generator_twin(case):
    assert_same(case)


def submit(runtime_s, *, ckpt=0.0, cost=0.0, watch=None):
    return Submit(runtime_s, ckpt, cost, watch)


def seen(got, at):
    """(queued, running, utilization) as logged by the step at ``at``."""
    return [e[2:] for e in got["log"] if e[0] == "seen" and e[1] == at]


def test_kill_landing_on_a_grant_instant():
    # One CPU.  j0 ends at t=5 and its slot is granted to j1 on the spot;
    # the driver's own t=5 timer was armed after j0's, so the kill runs
    # with j1's grant in flight: the slot must come back and go to j2.
    case = Case(1, None, [
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


def test_checkpointed_job_killed_mid_run():
    case = Case(1, None, [
        (0.0, [submit(10.0, ckpt=2.5, cost=0.25)]),
        (4.0, [Stop("kill", 0)]),
    ])
    got = assert_same(case)
    status, _sub, started, finished, fraction, lost = got["jobs"]["j0"]
    assert (status, started, finished) == (SiteJobStatus.KILLED, 0.0, 4.0)
    assert 0.0 < fraction < 1.0 and lost > 0.0


def test_zero_runtime_detached_job_is_forgotten_at_once():
    # A cohort of one that ends at its own instant: its one heap entry
    # fires, the slot is back and the scheduler holds nothing.
    got = assert_same(Case(1, None, [(0.0, [SubmitLocal((0.0,))])]))
    assert got["counters"][0] == 1 and got["events"] == (2, 2)
    assert not got["sched"]._jobs and got["sched"]._cpus.count == 0


def test_kill_of_a_running_job_that_is_its_own_timer():
    # One CPU.  j0 is RUNNING from t=0 with its own entry on the kernel
    # heap for t=10.  The kill at t=4 frees the slot once, through _unwind;
    # a local job takes it in place the same instant and runs to t=9.  j0's
    # heap entry still fires at t=10 — into the guard: it is counted (the
    # twin's stale Timeout is too) and frees nothing, or the local job of
    # t=9.5 would see its slot handed out twice.
    case = Case(1, None, [
        (0.0, [submit(10.0)]),
        (4.0, [Stop("kill", 0)]),
        (0.0, [SubmitLocal((5.0,))]),
        (5.5, [SubmitLocal((5.0,)), submit(1.0)]),
    ])
    got = assert_same(case)  # includes event_count == the twin's
    assert ("kill", "j0", True) in got["log"]
    assert got["jobs"]["j0"][:4] == (SiteJobStatus.KILLED, 0.0, 0.0, 4.0)
    assert seen(got, 4.0) == [(0, 1, 1.0), (0, 1, 1.0)]  # j0, then bg.0
    assert seen(got, 9.5) == [(1, 1, 1.0)]     # bg.1 in place, j1 behind it
    assert got["jobs"]["j1"][2] == 14.5        # not at t=10
    sched = got["sched"]
    assert sched._cpus.count == 0 and not sched._awaiting and not sched._running
    assert list(sched._jobs) == ["j0", "j1"]   # watched jobs are kept


def test_cohort_partly_fits_rest_queue_in_order():
    # Three CPUs, one busy.  Of five local jobs two start as a cohort and
    # three queue in arrival order behind them; each start draws one noise
    # value, so a queued job starting out of order would move every instant.
    case = Case(3, 2, [
        (0.0, [submit(50.0)]),
        (1.0, [SubmitLocal((8.0, 2.0, 4.0, 1.0, 3.0))]),
        (0.0, [submit(1.0)]),                  # FIFO: behind all three
    ])
    got = assert_same(case)
    assert seen(got, 1.0) == [(3, 3, 1.0), (4, 3, 1.0)]
    assert got["counters"][0] == 7
    # Slots come back at t=2 (bg.1), 5 (bg.0) and twice at 6 (bg.2 and
    # bg.3): bg.2, bg.3 and bg.4 take them in arrival order, j1 the last.
    assert got["jobs"]["j1"][2] == 6.0
    sched = got["sched"]
    assert not sched._jobs.keys() - {"j0", "j1"} and sched._cpus.count == 0


def test_kill_all_half_finished_cohort_stale_pops():
    # Four local jobs on four CPUs; two have ended by t=5.  kill_all charges
    # the two survivors 5 s each and unwinds each through its own event; the
    # next arrival starts in place at once.  The survivors' heap entries
    # still fire at t=10 and t=20, into a killed cohort: counted, ignored.
    case = Case(4, None, [
        (0.0, [SubmitLocal((1.0, 10.0, 2.0, 20.0))]),
        (5.0, [Simple("kill_all")]),
        (0.0, [SubmitLocal((3.0, 3.0, 3.0, 3.0))]),
        (0.0, [Simple("kill_all")]),           # same instant: the new four
    ])
    got = assert_same(case)
    assert [e for e in got["log"] if e[0] == "kill_all"] == [
        ("kill_all", 2), ("kill_all", 4)]
    assert seen(got, 5.0) == [(0, 2, 0.5), (0, 4, 1.0), (0, 4, 1.0)]
    completed, killed, preempted = got["counters"][:3]
    assert (completed, killed, preempted) == (2, 6, "10.0")
    # 8 run timers (6 of them stale) + 6 unwinds + the driver's 4 steps
    assert got["events"] == (18, 18)
    sched = got["sched"]
    assert not sched._jobs and sched._cpus.count == 0
    assert got["counters"][-1] == 20.0         # the last stale entry


def test_freeze_with_a_cohort_running():
    # BLACKHOLE: the members already running finish and give their slots
    # back into a frozen pool; arrivals meanwhile queue, and start — one
    # cohort-less job per grant — only at the thaw.
    case = Case(2, None, [
        (0.0, [SubmitLocal((4.0, 6.0))]),
        (1.0, [Simple("freeze"), SubmitLocal((1.0, 1.0))]),
        (9.0, [Simple("thaw")]),
    ])
    got = assert_same(case)
    assert seen(got, 1.0) == [(2, 2, 1.0)]     # frozen: utilization pinned
    assert seen(got, 10.0) == [(2, 0, 1.0)]    # thawed; the grants in flight
    assert got["counters"][0] == 4 and got["counters"][-1] == 11.0
    assert not got["sched"]._jobs


def test_kill_of_a_forgotten_detached_id_is_an_unknown_id():
    env = Environment()
    sched = LocalScheduler(env, 1, lambda runtime_s: runtime_s)
    sched.submit_local((2.0, 3.0), "local", "bg.", 0)
    # bg.0 runs in a cohort: no record, not addressable, though its id is
    # taken; bg.1 queued behind it and is a job like any other until it ends
    assert "bg.0" not in sched and "bg.1" in sched
    for verb in (sched.kill, sched.job):
        with pytest.raises(KeyError):
            verb("bg.0")
    with pytest.raises(ValueError, match="duplicate"):
        sched.submit_local((1.0,), "local", "bg.", 0)
    with pytest.raises(ValueError, match="duplicate"):
        sched.submit(SiteJob("bg.1"))
    assert sched.job("bg.1").status is SiteJobStatus.PENDING
    env.run()
    assert sched.completed_count == 2 and "bg.1" not in sched
    for verb in (sched.kill, sched.job):
        with pytest.raises(KeyError):
            verb("bg.1")
    with pytest.raises(KeyError):
        sched.kill("never-submitted")
    # killed, not completed: known (and terminal) until its slot unwinds
    sched.submit_local((2.0, 2.0), "local", "bg.", 0)
    assert sched.kill("bg.1") is True and sched.kill("bg.1") is False
    env.run()
    assert "bg.1" not in sched and not sched._jobs
    assert sched.kill_all() == 0 and sched._cpus.count == 0


def test_slot_conservation_counts_anonymous_slots():
    env = Environment()
    sched = LocalScheduler(env, 3, lambda runtime_s: runtime_s)
    sched.submit_local((10.0, 4.0), "local", "bg.", 0)
    assert not sched._running and sched._cpus.anonymous == 2  # no Request
    sched.submit(SiteJob("j", runtime_s=5.0))  # the third CPU, a Request
    sched.submit(SiteJob("k", runtime_s=1.0))  # queues
    env.run(until=1.0)
    assert sched._cpus.count == sched.running_jobs == 3
    assert sched.utilization == 1.0 and sched.queued_jobs == 1
    env.run(until=4.5)                         # bg.1's slot went to k at t=4
    assert (sched.running_jobs, sched._cpus.anonymous) == (3, 1)
    assert sched._cpus.count == 3 and sched.queued_jobs == 0
    env.run()
    assert sched._cpus.count == sched.running_jobs == 0


@pytest.mark.parametrize("bad", [-1.0, float("nan")])
def test_submit_local_refuses_a_bad_arrival_whole(bad):
    env = Environment()
    for cls in (LocalScheduler, ReferenceLocalScheduler):
        draws = []
        sched = cls(env, 4, lambda runtime_s: draws.append(runtime_s) or 1.0)
        with pytest.raises(ValueError, match=r"job bg\.8: runtime_s="):
            sched.submit_local((1.0, bad, 2.0), "local", "bg.", 7)
        assert not draws and not sched._jobs and sched._cpus.count == 0


def test_submit_local_at_down_site_draws_no_noise():
    env = Environment()
    site = GridSite(env, RngStreams(3), "s", n_cpus=4)
    site.set_state(SiteState.DOWN)
    before = site._rng.bit_generator.state
    with pytest.raises(SiteUnavailableError, match="site s is down"):
        site.submit_local([5.0, 5.0], "local", "bg.s.", 0)
    assert site._rng.bit_generator.state == before and not site._noise
    assert site.running_jobs == 0 and not site.scheduler._jobs
    site.set_state(SiteState.UP)
    site.submit_local([5.0, 5.0], "local", "bg.s.", 0)
    assert site.running_jobs == 2 and len(site._noise) == 30
