"""Object census: what local load costs the host's garbage collector.

At 2,500 sites the batch queues carry ~48k running local jobs for every
600 grid jobs; each GC-tracked object a job allocates is scanned by every
later collection, and each byte it holds is peak RSS.  The contract
(DESIGN.md §5l): a local job that finds a free CPU has no record, no id
and no table row; its arrival is one cohort with one kernel-heap entry,
its earliest finish, and every other member is one held ``(when, seq)``
pair of doubles in the cohort's one array — 16 bytes, no object.  An ended
job is nothing.  What a job that has to queue needs on top (a record and
its CPU request) dies by reference count, not by the cycle collector.
"""

import gc
import tracemalloc

from repro.sim import Environment
from repro.sim.resources import Request
from repro.sim.rng import RngStreams
from repro.simgrid import GridSite, LocalScheduler, SiteJob

N = 10_000


def tracked() -> int:
    # Until nothing is unreachable: garbage an earlier test left behind
    # (suspended generators with finalizers) can take two passes to go,
    # and whether the first already ran depends on that test's
    # allocation count — a census must not start in the middle of it.
    while gc.collect():
        pass
    return len(gc.get_objects())


def big_site():
    env = Environment()
    site = GridSite(env, RngStreams(7), "big", n_cpus=N)
    site.submit_local([1.0], "local", "warm.", 0)  # noise block, method
    env.run()
    return env, site


def test_local_arrival_is_one_heap_entry_none_ended():
    env, site = big_site()
    runtimes = [100.0 + i % 50 for i in range(N)]  # ties; floats untracked
    idle = tracked()
    site.submit_local(runtimes, "local", "bg.", 0)
    sched = site.scheduler
    assert sched.running_jobs == N and sched.queued_jobs == 0
    assert sched.utilization == 1.0 and sched._cpus.count == sched.running_jobs
    assert len(env._heap) == 1 and env._held == N - 1
    # the heap entry, the cohort, its held array, and the job table, which
    # CPython leaves untracked while it is empty: none of it per member
    assert tracked() - idle <= 4
    env.run()
    assert sched.completed_count == N + 1
    assert tracked() - idle == 0
    assert not (sched._jobs or sched._awaiting or sched._running
                or sched._pending or sched._cpus.count or env._held)


def test_a_running_member_is_at_most_24_traced_bytes():
    env, site = big_site()
    runtimes = [100.0 + i % 50 for i in range(N)]
    tracked()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        site.submit_local(runtimes, "local", "bg.", 0)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert site.running_jobs == N
    assert held <= 24 * N  # 16 of them the member's (when, seq) pair


def test_a_contended_jobs_request_dies_by_refcount():
    def requests() -> int:  # no gc.collect(): refcounting alone must do it
        return sum(type(o) is Request for o in gc.get_objects())

    env = Environment()
    sched = LocalScheduler(env, 1, lambda runtime_s: runtime_s)
    gc.collect()
    gc.disable()
    try:
        before = requests()
        sched.submit_local((5.0, 5.0), "local", "bg.", 0)  # 2nd queues
        sched.submit(SiteJob("c", runtime_s=5.0))              # watched
        assert requests() - before == 2
        env.run()
        assert sched.completed_count == 3
        assert requests() == before
    finally:
        gc.enable()
