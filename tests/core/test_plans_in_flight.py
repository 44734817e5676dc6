"""The server's oldest in-flight plan: a sorted deque against the scan.

``SphinxServer._nearest_planned_at`` used to read every PLANNED and
SUBMITTED row on every control pass; it now reads the front of a deque
of ``(planned_at, job_id)`` appended where a plan is made.  The scan is
kept here as the twin, and random plan / report / cancel / replan /
presumed-lost / recover sequences (the candidate-pool rig's operations)
must leave the two equal after every step — and ``_requeue_lost_jobs``,
which now returns early on the deque's answer, must requeue exactly the
rows the scan names.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.core.test_candidate_pool_differential import IN_FLIGHT, OPS, Rig

WINDOW_S = 150.0


def scan(server, window_s=WINDOW_S):
    """(oldest planned_at, ids older than the window): the full scan."""
    now = server.env.now
    in_flight = [
        row for state in IN_FLIGHT
        for row in server.warehouse.table("jobs").select(where={"state": state})
        if row["planned_at"] is not None
    ]
    oldest = min((row["planned_at"] for row in in_flight), default=None)
    lost = [row["job_id"] for row in in_flight
            if not now - row["planned_at"] < window_s]
    return oldest, lost


def requeue_lost(rig, window_s):
    server = rig.server
    _oldest, lost = scan(server, window_s)
    before = server.tally("resubmissions")
    server.config.presume_lost_after_s = window_s
    server._requeue_lost_jobs()
    server.config.presume_lost_after_s = math.inf
    assert server.tally("resubmissions") - before == len(lost)
    jobs = server.warehouse.table("jobs")
    assert all(jobs.get(job_id)["last_status"] == "presumed-lost"
               for job_id in lost)
    assert scan(server, window_s)[1] == []


STEPS = st.one_of(
    OPS,
    st.tuples(st.just("tick")),            # plans and replans: weight them up
    st.tuples(st.just("report"), st.just("cancelled"), st.integers(0, 7)),
    st.tuples(st.just("requeue_lost"), st.sampled_from([1.0, 20.0, WINDOW_S])),
)


@given(ops=st.lists(STEPS, min_size=12, max_size=40))
@settings(max_examples=150, deadline=None)
def test_front_of_the_deque_equals_the_full_scan(ops):
    # No window configured: the control pass never requeues by itself, so
    # old plans pile up for the explicit ``requeue_lost`` steps to find.
    rig = Rig(federated=False)
    for name, *args in [("submit", 1, 1, 0), ("tick",), *ops]:
        if name == "requeue_lost":
            requeue_lost(rig, *args)
        else:
            getattr(rig, name)(*args)
        assert rig.server._nearest_planned_at() == scan(rig.server)[0]


def test_a_replanned_and_a_recovered_job_are_found_without_a_hook():
    rig = Rig(federated=False, presume_lost_after_s=WINDOW_S)
    server = rig.server
    assert server._nearest_planned_at() is None
    rig.submit(1, 1, 0)
    rig.tick()                              # d0.a and d0.b planned at t=0
    rig.advance(20.0)
    rig.submit(1, 1, 0)
    rig.tick()                              # d1.a and d1.b at t=20
    assert server._nearest_planned_at() == 0.0
    assert list(server._plans_in_flight) == [
        (0.0, "d0.a"), (0.0, "d0.b"), (20.0, "d1.a"), (20.0, "d1.b")]
    for job_id in ("d0.a", "d0.b"):
        row = server.warehouse.table("jobs").get(job_id)
        server._rpc_report_status(job_id, row["attempts"], "cancelled",
                                  row["site"], reason="timeout")
    rig.advance(10.0)                       # the woken pass replans both, t=20
    # their t=0 entries are stale (same row, newer planned_at) and are
    # dropped as they reach the front
    assert server._nearest_planned_at() == 20.0 == scan(server)[0]
    assert list(server._plans_in_flight) == [
        (20.0, "d1.a"), (20.0, "d1.b"), (20.0, "d0.a"), (20.0, "d0.b")]
    before = server.tally("resubmissions")
    rig.advance(WINDOW_S - 11.0)            # t=169: all younger than the window
    rig.tick()
    assert server.tally("resubmissions") == before
    rig.advance(1.0)    # the deadline armed at oldest + window runs the pass
    assert server.tally("resubmissions") - before == 4
    assert scan(server) == (170.0, []) and server._nearest_planned_at() == 170.0
    # a recovered server requeues everything, its first pass replans it ...
    rig.restore()
    assert rig.server is not server
    assert rig.server._nearest_planned_at() == 170.0 == scan(rig.server)[0]
    # ... and a deque not built yet is read off whatever the tables hold
    rig.server._plans_in_flight = None
    assert rig.server._nearest_planned_at() == 170.0
    assert len(rig.server._plans_in_flight) == 4
