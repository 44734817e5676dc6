"""Object census: what a background job costs the host's garbage collector.

At 2,500 sites the batch queues carry ~60k detached background jobs for
every 600 grid jobs; each GC-tracked object a job allocates is scanned by
every later collection, and each one it leaves behind is scanned forever.
The contract (DESIGN.md §5l): a running detached job is one record plus
its kernel-heap entry, an ended one is nothing — and what a contended job
needs on top (its CPU request) dies by reference count, not by the cycle
collector.
"""

import gc

from repro.sim import Environment
from repro.sim.resources import Request
from repro.sim.rng import RngStreams
from repro.simgrid import GridSite, LocalScheduler, SiteJob

N = 10_000


def tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


def test_a_detached_job_is_two_tracked_objects_running_and_none_ended():
    env = Environment()
    site = GridSite(env, RngStreams(7), "big", n_cpus=N)
    site.submit("warm", runtime_s=1.0, detached=True)  # noise block, dicts
    env.run()
    ids = [f"bg.{i}" for i in range(N)]  # strings are not GC-tracked
    idle = tracked()
    for job_id in ids:
        site.submit(job_id, runtime_s=100.0 + len(job_id), detached=True)
    sched = site.scheduler
    assert sched.running_jobs == N and sched.queued_jobs == 0
    # per job: the record + its heap entry; + the scheduler's three job
    # tables, which CPython leaves untracked while they are empty
    assert tracked() - idle <= 2 * N + 3
    env.run()
    assert sched.completed_count == N + 1
    assert tracked() - idle == 0
    assert not (sched._jobs or sched._awaiting or sched._running
                or sched._pending or sched._cpus.count)


def test_a_contended_jobs_request_dies_by_refcount():
    def requests() -> int:  # no gc.collect(): refcounting alone must do it
        return sum(type(o) is Request for o in gc.get_objects())

    env = Environment()
    sched = LocalScheduler(env, 1, lambda job: job.runtime_s)
    gc.collect()
    gc.disable()
    try:
        before = requests()
        sched.submit(SiteJob("a", runtime_s=5.0), detached=True)
        sched.submit(SiteJob("b", runtime_s=5.0), detached=True)  # queues
        sched.submit(SiteJob("c", runtime_s=5.0))                 # watched
        assert requests() - before == 2
        env.run()
        assert sched.completed_count == 3
        assert requests() == before
    finally:
        gc.enable()
