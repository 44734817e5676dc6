"""The chained cohort against its slow twin.

A local arrival that starts on free CPUs is one ``_Cohort`` with one
kernel-heap entry: its earliest finish.  The other members' finishes
are held in an ``array('d')`` (``Environment.schedule_chain``) and
``_local_done`` pushes the next one on every pop, live or stale.  The
twin below is the cohort as it was before: every member
``env.schedule``d at its start.  On each scenario both must pop the same
``(when, key, type)`` sequence off the kernel heap, end every ``run``
call at the same ``event_count`` and give a stride-3 heartbeat the same
ticks — and the shipped run must really have held entries off the heap.
"""

import heapq

import pytest

from repro.sim import Environment
from repro.sim.rng import RngStreams
from repro.simgrid import GridSite, LocalScheduler, SiteJob, SiteState
from repro.simgrid.local_scheduler import _Cohort


class EagerCohortScheduler(LocalScheduler):
    """Every member of a cohort on the kernel heap from its start."""

    def _start_cohort(self, key, runtimes):
        env = self.env
        cohort = _Cohort(key, env.now, len(runtimes), self._on_local_timer)
        self._jobs[key] = cohort
        for runtime_s in runtimes:
            service = self._service_time_fn(runtime_s)
            if not service >= 0:
                raise ValueError(f"negative service time {service} in {key}")
            env.schedule(cohort, service)


class _Ticks:
    def __init__(self):
        self.log = []

    def tick(self, sim_now, events):
        self.log.append((sim_now, events))


def play(cls, scenario, monkeypatch):
    """Run ``scenario(env, make_sched)`` with ``cls`` as every batch queue."""
    env = Environment()
    env.heartbeat = _Ticks()
    pops, counts, held = [], [], []
    real_pop = heapq.heappop

    def pop(heap):
        entry = real_pop(heap)
        if heap is env._heap:
            when, key, event = entry
            pops.append((when, key, type(event).__name__))
            held.append(env._held)
        return entry

    def run(until=None):
        env.run(until)
        counts.append((env.now, env.event_count))

    with monkeypatch.context() as patch:
        patch.setattr(heapq, "heappop", pop)
        patch.setattr(Environment, "_HB_STRIDE", 3)
        patch.setattr("repro.simgrid.site.LocalScheduler", cls)
        scenario(env, cls, run)
    assert not env._heap and not env._held
    return pops, counts, env.heartbeat.log, max(held, default=0)


def assert_same(scenario, monkeypatch):
    want = play(EagerCohortScheduler, scenario, monkeypatch)
    got = play(LocalScheduler, scenario, monkeypatch)
    assert got[:3] == want[:3]
    assert want[3] == 0 and got[3] > 0  # the twin never holds; shipped did
    return got


def tied_arrival(env, cls, run):
    # 200 jobs over 7 distinct runtimes, 0 s included: finishes tie inside
    # the cohort, with a second cohort and with a watched job's timer
    sched = cls(env, 256, lambda runtime_s: runtime_s)
    sched.submit_local([10.0 * (i % 7) for i in range(200)], "l", "a.", 0)
    sched.submit(SiteJob("w", runtime_s=20.0))

    def later():
        yield env.timeout(10.0)
        sched.submit_local([10.0 * (i % 3) for i in range(40)], "l", "b.", 0)

    env.process(later())
    run()
    assert sched.completed_count == 241 and not sched._jobs.keys() - {"w"}


def down_mid_cohort(env, cls, run):
    # service noise on; the site dies with most of a 200-job cohort
    # running (kill_all), so its members keep popping into the stale guard
    site = GridSite(env, RngStreams(11), "s", n_cpus=300,
                    service_noise_sigma=0.3)
    site.submit_local([50.0 + i % 5 for i in range(200)], "l", "a.", 0)

    def script():
        yield env.timeout(30.0)
        site.submit_local([5.0] * 20, "l", "b.", 0)
        yield env.timeout(20.0)
        site.set_state(SiteState.DOWN)
        yield env.timeout(10.0)
        site.set_state(SiteState.UP)
        site.submit_local([10.0, 10.0, 1.0] * 10, "l", "c.", 0)

    env.process(script())
    run()
    sched = site.scheduler
    assert sched.killed_count > 0 and sched.completed_count > 0
    assert not sched._jobs and sched._cpus.count == 0


def stop_with_members_held(env, cls, run):
    # run(until=t) stops with most of a cohort held, then resumes
    sched = cls(env, 100, lambda runtime_s: runtime_s)
    sched.submit_local([float(100 - i) for i in range(100)], "l", "a.", 0)
    sched.submit_local([7.0] * 10, "l", "b.", 0)  # queues: CPUs are full
    run(25.5)  # the queued ten took the first freed slots and are done
    assert (sched.running_jobs, sched.queued_jobs) == (75, 0)
    run(60.0)
    run(60.0)  # nothing at t = 60 itself is left to pop
    run()
    assert sched.completed_count == 110 and not sched._jobs


@pytest.mark.parametrize("scenario", [
    tied_arrival, down_mid_cohort, stop_with_members_held,
])
def test_chained_cohort_pops_as_the_eager_twin(scenario, monkeypatch):
    assert_same(scenario, monkeypatch)


def test_held_entries_count_as_pending():
    env = Environment()
    sched = LocalScheduler(env, 4, lambda runtime_s: runtime_s)
    sched.submit_local([3.0, 1.0, 2.0, 1.0], "l", "a.", 0)
    assert len(env._heap) == 1 and env._held == 3
    env.run(until=1.0)  # both 1 s members, in arrival order
    assert (env.event_count, len(env._heap), env._held) == (2, 1, 1)
    env.run()
    assert (env.event_count, env._held) == (4, 0)


@pytest.mark.parametrize("bad", [-1.0, float("nan")])
def test_schedule_chain_refuses_a_bad_delay(bad):
    env = Environment()
    with pytest.raises(ValueError, match="schedule delays must be >= 0"):
        env.schedule_chain(env.event(), [1.0, bad])
    assert not env._heap and env._held == 0 and env._seq == 0
