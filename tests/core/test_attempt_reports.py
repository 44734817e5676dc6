"""Reports name their attempt: a superseded attempt cannot touch the
live one.

A job is replanned past an attempt when the server presumes it lost
(or a crash requeues it), but the superseded attempt may still be alive
at its old site and report later.  Its running and cancelled reports
are ``"stale"`` and write nothing.  Its completion is kept — the first
completion wins — and the row keeps the live attempt's site and quota
charge, so the per-site counters and the quota ledger both stay
conserved.  These tests use real per-site grants, as
``test_kill_accounting.py`` does, so every charge and refund shows.
"""

from types import SimpleNamespace

from repro.chaos.invariants import check_invariants
from repro.core.states import EDGES, JobState
from repro.obs import Obs, ObsConfig

from tests.core.test_kill_accounting import (QUSER, chain2, one_job,
                                             quota_stack, total_usage, usage)

WINDOW_S = 100.0


def row(st, job_id):
    return st.server.warehouse.table("jobs").get(job_id)


def superseded(st, job_id):
    """Plan ``job_id``, let the server presume attempt 1 lost and replan
    it; returns (attempt 1's site, attempt 2's site)."""
    st.server.tick()
    first = row(st, job_id)["site"]
    st.server._rpc_report_status(job_id, 1, "running", first)
    st.env.run(until=WINDOW_S + 1.0)
    live = row(st, job_id)
    assert (live["state"], live["attempts"]) == (JobState.PLANNED.value, 2)
    assert live["site"] != first
    return first, live["site"]


def audit(st):
    """The end-state invariants.  The stack has no client service, so
    the outbox is first drained as that client's delivery acks would."""
    outbox = st.server.warehouse.table("outbox")
    for msg in outbox.select():
        outbox.delete(msg["msg_id"])
    scenario = SimpleNamespace(quota_per_site={"slots": 4.0})
    return check_invariants({"t": st.server}, {}, scenario)


def test_a_stale_cancel_leaves_the_live_attempt_alone():
    st = quota_stack(presume_lost_after_s=WINDOW_S)
    st.submit(one_job(), user=QUSER)
    first, second = superseded(st, "k.a")
    resubmissions = st.server.tally("resubmissions")
    assert (usage(st, first), usage(st, second)) == (0.0, 1.0)
    # Attempt 1 times out at its old site and says so, late.
    assert st.server._rpc_report_status(
        "k.a", 1, "cancelled", first, reason="timeout"
    ) == "stale"
    live = row(st, "k.a")
    assert (live["state"], live["attempts"], live["site"]) == \
        (JobState.PLANNED.value, 2, second)
    assert (usage(st, first), usage(st, second)) == (0.0, 1.0)
    assert st.server.tally("resubmissions") == resubmissions
    assert st.server.feedback.cancelled(first) == 0
    assert st.server._site_active[second] == [1, 0]
    # So is its running report: attempt 2 has not started.
    assert st.server._rpc_report_status(
        "k.a", 1, "running", first
    ) == "stale"
    assert row(st, "k.a")["state"] == JobState.PLANNED.value
    assert st.server._site_active[first] == [0, 0]


def test_a_stale_completion_releases_the_counter_at_the_rows_site():
    st = quota_stack(presume_lost_after_s=WINDOW_S)
    st.submit(one_job(), user=QUSER)
    first, second = superseded(st, "k.a")
    assert st.server._site_active[second] == [1, 0]
    # Attempt 1 was alive after all and finishes first: the work is kept.
    assert st.server._rpc_report_status(
        "k.a", 1, "completed", first, completion_time_s=30.0
    ) == "ok"
    done = row(st, "k.a")
    assert (done["state"], done["site"]) == (JobState.FINISHED.value, second)
    # The live attempt's slot comes back at *its* site.
    assert all(c == [0, 0] for c in st.server._site_active.values())
    # The work ran at the reporter's site: that is what feedback learns.
    assert st.server.feedback.completed(first) == 1
    # The row keeps attempt 2's charge; attempt 2's own reports are late.
    assert (usage(st, first), usage(st, second)) == (0.0, 1.0)
    assert st.server._rpc_report_status(
        "k.a", 2, "completed", second, completion_time_s=40.0
    ) == "duplicate"
    assert st.server._rpc_report_status(
        "k.a", 2, "cancelled", second, reason="killed"
    ) == "duplicate"
    report = audit(st)
    assert report.ok, report.format_text()


def test_a_stale_completion_then_regeneration_refunds_exactly_once():
    st = quota_stack(presume_lost_after_s=WINDOW_S)
    st.submit(chain2(), user=QUSER)
    first, second = superseded(st, "k.a")
    st.server._rpc_report_status(
        "k.a", 1, "completed", first, completion_time_s=30.0
    )
    assert total_usage(st) == 1.0  # k.a holds attempt 2's charge
    st.server.tick()
    b = row(st, "k.b")
    assert total_usage(st) == 2.0
    # k.a's output is gone before k.b can stage it: re-derive k.a.
    st.server._rpc_report_status("k.b", 1, "cancelled", b["site"],
                                 reason="stage-in", missing=["k.a.out"])
    assert total_usage(st) == 0.0
    assert row(st, "k.a")["state"] == JobState.CANCELLED.value
    assert all(c == [0, 0] for c in st.server._site_active.values())
    # The replan charges k.a once more, at attempt 3's site.
    st.server.tick()
    third = row(st, "k.a")
    assert (third["state"], third["attempts"]) == (JobState.PLANNED.value, 3)
    assert total_usage(st) == 1.0 == usage(st, third["site"])
    st.server._rpc_report_status("k.a", 3, "completed", third["site"], 30.0)
    st.server.tick()
    st.server._rpc_report_status("k.b", 2, "completed", row(st, "k.b")["site"],
                                 30.0)
    assert total_usage(st) == 2.0  # finished jobs keep their charges
    report = audit(st)
    assert report.ok, report.format_text()


def test_transitions_are_counted_by_edge():
    obs = Obs(ObsConfig(spans=False))
    st = quota_stack(presume_lost_after_s=WINDOW_S, obs=obs)
    st.submit(chain2(), user=QUSER)
    first, _second = superseded(st, "k.a")
    st.server._rpc_report_status("k.a", 1, "completed", first, 30.0)
    st.server._rpc_report_status("k.a", 1, "cancelled", first)  # stale
    counts = {
        (labels["table"], labels["edge"]): inst.value
        for labels, inst in obs.metrics.find("server.transitions")
    }
    # One counter per automaton edge, created up front.
    assert len(counts) == sum(
        len(targets) for edges in EDGES.values() for targets in edges.values()
    )
    assert {k: v for k, v in counts.items() if v} == {
        ("dags", "received→reducing"): 1,
        ("dags", "reducing→reduced"): 1,
        ("dags", "reduced→running"): 1,
        ("jobs", "unplanned→planned"): 1,
        ("jobs", "planned→submitted"): 1,
        ("jobs", "submitted→cancelled"): 1,
        ("jobs", "cancelled→planned"): 1,
        ("jobs", "planned→finished"): 1,
    }
