"""Unit tests for the recovery helpers (beyond the e2e recovery tests)."""

from repro.core import recover_server
from repro.core.serialize import dag_to_payload
from repro.core.states import JobState
from repro.workflow import Dag, Job, LogicalFile

from tests.core.test_server import Stack


def lf(name):
    return LogicalFile(name, 1.0)


#: a user whose jobs need quota: a recovered server holds no grants until
#: its owner re-applies them (they live outside the warehouse), so its
#: first control pass — which runs inside the constructor — cannot replan
#: and the tests below see exactly what recovery left behind.
LIMITED = "/VO=v/CN=limited"


def make_checkpoint(quota_user=None):
    """A server with one planned job, checkpointed mid-flight."""
    st = Stack()
    user = quota_user or "/VO=v/CN=u"
    if quota_user:
        for s in ("s0", "s1", "s2"):
            st.server.policy.grant(user, s, "cpu_seconds", 100.0)
    dag = Dag("c", [Job("c.a", outputs=(lf("c.out"),),
                        requirements={"cpu_seconds": 60.0} if quota_user
                        else {})])
    st.server._rpc_submit_dag("c0", user, dag_to_payload(dag))
    st.server.tick()  # plans c.a
    return st, st.server.checkpoint()


def recover(st, checkpoint):
    st.server.shutdown()
    return recover_server(st.env, st.bus, st.config, st.catalog,
                          st.monitoring, st.rls, checkpoint)


class FakeConfigStack(Stack):
    pass


def test_in_flight_jobs_requeued_on_recovery():
    st, checkpoint = make_checkpoint(quota_user=LIMITED)
    server2 = recover(st, checkpoint)
    row = server2.warehouse.table("jobs").get("c.a")
    assert row["state"] == JobState.CANCELLED.value
    assert row["last_status"] == "recovered"
    assert row["site"] is None


def test_stale_plan_messages_dropped():
    st, checkpoint = make_checkpoint(quota_user=LIMITED)
    # The plan message is still in the checkpointed outbox.
    assert any(
        r["kind"] == "plan"
        for r in checkpoint["tables"]["outbox"]["rows"]
    )
    server2 = recover(st, checkpoint)
    kinds = [r["kind"] for r in server2.warehouse.table("outbox")]
    assert "plan" not in kinds


def test_dag_finished_notifications_survive():
    st = Stack()
    dag = Dag("f", [Job("f.a", outputs=(lf("f.out"),))])
    st.server._rpc_submit_dag("c0", "/VO=v/CN=u", dag_to_payload(dag))
    st.server.tick()
    st.server._rpc_report_status("f.a", 1, "completed", "s0", 10.0)
    server2 = recover(st, st.server.checkpoint())
    kinds = [r["kind"] for r in server2.warehouse.table("outbox")]
    assert "dag-finished" in kinds  # idempotent; redelivered


def test_quota_reservations_refunded_for_requeued_jobs():
    user = LIMITED
    st, checkpoint = make_checkpoint(quota_user=user)
    site = st.server.warehouse.table("jobs").get("c.a")["site"]
    assert st.server.policy.used(user, site, "cpu_seconds") == 60.0
    server2 = recover(st, checkpoint)
    # Usage table was restored, then the reservation was refunded.
    assert server2.policy.used(user, site, "cpu_seconds") == 0.0


def test_recovered_server_replans_requeued_job():
    st, checkpoint = make_checkpoint()
    server2 = recover(st, checkpoint)
    server2.policy.grant_unlimited("/VO=v/CN=u")
    server2.tick()
    row = server2.warehouse.table("jobs").get("c.a")
    assert row["state"] == JobState.PLANNED.value
    assert row["attempts"] == 2  # original attempt + the requeue


def test_site_counters_rebuilt_from_restored_table():
    st, checkpoint = make_checkpoint(quota_user=LIMITED)
    server2 = recover(st, checkpoint)
    # The requeued job holds no active slot anywhere.
    assert all(c == [0, 0] for c in server2._site_active.values())
    server2.policy.grant_unlimited(LIMITED)
    server2.tick()
    planned_total = sum(c[0] for c in server2._site_active.values())
    assert planned_total == 1
