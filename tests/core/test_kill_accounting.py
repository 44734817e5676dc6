"""Kill-accounting seam audit: quota refunds and estimator hygiene.

Jobs killed while PLANNED/RUNNING must refund the charged site exactly
once (a replayed kill report is a duplicate, not a second refund), must
never train the completion-time estimator, and must never stamp
``completion_time_s`` into the warehouse row.  The virtual-data
regeneration path reverts FINISHED producers; the producer's still-held
quota charge must come back with it.

These tests use real per-site grants (not ``grant_unlimited``) so every
charge and refund is visible through ``PolicyEngine.used``.
"""

from repro.core.states import JobState
from repro.workflow import Dag, Job, LogicalFile

from tests.core.test_server import Stack

QUSER = "/VO=v/CN=quota"
REQ = {"slots": 1.0}


def lf(name, size=1.0):
    return LogicalFile(name, size)


def one_job(dag_id="k"):
    return Dag(dag_id, [Job(f"{dag_id}.a", outputs=(lf(f"{dag_id}.out"),),
                            requirements=dict(REQ))])


def chain2(dag_id="k"):
    return Dag(
        dag_id,
        [
            Job(f"{dag_id}.a", outputs=(lf(f"{dag_id}.a.out"),),
                requirements=dict(REQ)),
            Job(f"{dag_id}.b", inputs=(lf(f"{dag_id}.a.out"),),
                outputs=(lf(f"{dag_id}.b.out"),),
                requirements=dict(REQ)),
        ],
    )


def quota_stack(**kw):
    st = Stack(**kw)
    for site in st.catalog:
        st.server.policy.grant(QUSER, site, "slots", 4.0)
    return st


def usage(st, site):
    return st.server.policy.used(QUSER, site, "slots")


def total_usage(st):
    return sum(usage(st, site) for site in st.catalog)


def planned_site(st, job_id):
    return st.server.warehouse.table("jobs").get(job_id)["site"]


def test_killed_running_job_refunds_charged_site_exactly_once():
    st = quota_stack()
    st.submit(one_job(), user=QUSER)
    st.server.tick()
    site = planned_site(st, "k.a")
    assert usage(st, site) == 1.0  # the plan charged the site
    st.server._rpc_report_status("k.a", 1, "running", site)
    assert st.server._rpc_report_status(
        "k.a", 1, "cancelled", site, reason="evicted", lost_work_s=12.5
    ) == "ok"
    assert usage(st, site) == 0.0
    assert st.server.tally("preempted_work_s") == 12.5
    # The tracker's kill report raced the client's: the replay must be
    # swallowed, not refunded again (usage would go negative).
    assert st.server._rpc_report_status(
        "k.a", 1, "cancelled", site, reason="evicted"
    ) == "duplicate"
    assert usage(st, site) == 0.0


def test_killed_planned_job_refunds_without_a_running_report():
    # Eviction can land before the job ever starts (killed in the
    # site's queue); the refund keys off the charge, not the status.
    st = quota_stack()
    st.submit(one_job(), user=QUSER)
    st.server.tick()
    site = planned_site(st, "k.a")
    assert usage(st, site) == 1.0
    st.server._rpc_report_status("k.a", 1, "cancelled", site, reason="evicted")
    assert usage(st, site) == 0.0


def test_killed_job_never_trains_the_estimator():
    st = quota_stack()
    st.submit(one_job(), user=QUSER)
    st.server.tick()
    site = planned_site(st, "k.a")
    st.server._rpc_report_status("k.a", 1, "running", site)
    before = st.server.estimator.snapshot()
    # A buggy tracker stamps a completion time onto the kill report;
    # neither the estimator nor the warehouse row may absorb it.
    st.server._rpc_report_status(
        "k.a", 1, "cancelled", site, completion_time_s=999.0, reason="evicted"
    )
    assert st.server.estimator.snapshot() == before
    row = st.server.warehouse.table("jobs").get("k.a")
    assert row["completion_time_s"] is None
    assert row["state"] == JobState.CANCELLED.value
    # Sanity: a real completion on the rerun *does* train it.
    st.server.tick()
    site = planned_site(st, "k.a")
    st.server._rpc_report_status(
        "k.a", 2, "completed", site, completion_time_s=30.0
    )
    assert st.server.estimator.snapshot() != before


def test_regenerated_producer_refunds_its_held_charge():
    # FINISHED jobs hold their charge; reverting one through the
    # virtual-data path must hand it back or usage leaks once per
    # regeneration (the historical bug this test pins).
    st = quota_stack()
    st.submit(chain2(), user=QUSER)
    st.server.tick()
    a_site = planned_site(st, "k.a")
    st.server._rpc_report_status("k.a", 1, "completed", a_site,
                                 completion_time_s=30.0)
    assert usage(st, a_site) == 1.0  # FINISHED still holds the slot
    st.server.tick()
    b_site = planned_site(st, "k.b")
    assert total_usage(st) == 2.0
    st.server._rpc_report_status("k.b", 1, "cancelled", b_site,
                                 reason="stage-in", missing=["k.a.out"])
    # Both the consumer's charge and the reverted producer's came back.
    assert total_usage(st) == 0.0
    assert st.job_state("k.a") == JobState.CANCELLED.value
    # A replayed stage-in report is a duplicate: no double revert, no
    # double refund.
    assert st.server._rpc_report_status(
        "k.b", 1, "cancelled", b_site, reason="stage-in", missing=["k.a.out"]
    ) == "duplicate"
    assert total_usage(st) == 0.0
