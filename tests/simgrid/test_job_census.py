"""Object census: what local load costs the host's garbage collector.

At 2,500 sites the batch queues carry ~60k local jobs for every 600 grid
jobs; each GC-tracked object a job allocates is scanned by every later
collection, and each one it leaves behind is scanned forever.  The
contract (DESIGN.md §5l): a local job that finds a free CPU is one
kernel-heap entry — no record, no id, no table row — beside one cohort
per arrival; an ended one is nothing.  What a job that has to queue needs
on top (a record and its CPU request) dies by reference count, not by the
cycle collector.
"""

import gc

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


def test_local_arrival_is_one_heap_entry_per_job_none_ended():
    env = Environment()
    site = GridSite(env, RngStreams(7), "big", n_cpus=N)
    site.submit_local([1.0], "local", 10, "warm.", 0)  # noise block, method
    env.run()
    runtimes = [100.0 + i for i in range(N)]  # floats are not GC-tracked
    idle = tracked()
    site.submit_local(runtimes, "local", 10, "bg.", 0)
    sched = site.scheduler
    assert sched.running_jobs == N and sched.queued_jobs == 0
    assert sched.utilization == 1.0 and sched.reservation_audit() == []
    # per job: its heap entry; + the cohort + the job table, which CPython
    # leaves untracked while it is empty
    assert tracked() - idle <= N + 2
    env.run()
    assert sched.completed_count == N + 1
    assert tracked() - idle == 0
    assert not (sched._jobs or sched._awaiting or sched._running
                or sched._pending or sched._cpus.count)


def test_a_contended_jobs_request_dies_by_refcount():
    def requests() -> int:  # no gc.collect(): refcounting alone must do it
        return sum(type(o) is Request for o in gc.get_objects())

    env = Environment()
    sched = LocalScheduler(env, 1, lambda runtime_s: runtime_s)
    gc.collect()
    gc.disable()
    try:
        before = requests()
        sched.submit_local((5.0, 5.0), "local", 10, "bg.", 0)  # 2nd queues
        sched.submit(SiteJob("c", runtime_s=5.0))              # watched
        assert requests() - before == 2
        env.run()
        assert sched.completed_count == 3
        assert requests() == before
    finally:
        gc.enable()
