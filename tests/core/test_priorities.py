"""Multi-user priority scheduling tests (paper §5)."""

from repro.core.states import JobState
from repro.simgrid.vo import User, VirtualOrganization
from repro.workflow import Dag, Job, LogicalFile

from tests.core.test_server import Stack


def lf(name):
    return LogicalFile(name, 1.0)


def one_job(dag_id):
    return Dag(dag_id, [Job(f"{dag_id}.a", outputs=(lf(f"{dag_id}.out"),))])


def test_higher_priority_dag_planned_first():
    st = Stack()
    st.server._rpc_submit_dag("c0", "/VO=v/CN=u", _payload(one_job("low")),
                              priority=20)
    st.server._rpc_submit_dag("c0", "/VO=v/CN=u", _payload(one_job("high")),
                              priority=1)
    st.server.tick()
    msgs = st.drain()
    plans = [m["payload"]["job_id"] for m in msgs if m["kind"] == "plan"]
    assert plans[0] == "high.a"  # served before the earlier-submitted low


def test_equal_priority_is_fifo():
    st = Stack()
    st.server._rpc_submit_dag("c0", "/VO=v/CN=u", _payload(one_job("first")))
    st.server._rpc_submit_dag("c0", "/VO=v/CN=u", _payload(one_job("second")))
    st.server.tick()
    msgs = st.drain()
    plans = [m["payload"]["job_id"] for m in msgs if m["kind"] == "plan"]
    assert plans == ["first.a", "second.a"]


def test_default_priority_is_ten():
    st = Stack()
    st.server._rpc_submit_dag("c0", "/VO=v/CN=u", _payload(one_job("d")))
    assert st.server.warehouse.table("dags").get("d")["priority"] == 10


def test_client_forwards_user_priority():
    """End to end: a VIP user's DAG outruns a peon's in the plan queue."""
    from tests.integration.stack import FullStack
    from repro.core import SphinxClient

    st = FullStack(n_sites=2)
    vip = User("vip", VirtualOrganization("cms"), priority=1)
    st.server.policy.grant_unlimited(vip.proxy)
    vip_client = SphinxClient(st.env, st.bus, st.server.service_name,
                              st.condorg, st.gridftp, st.rls, vip, "cvip",
                              poll_s=1.0)
    # Default user (priority 10) submits first, VIP second.
    st.submit(one_job("peon"))
    vip_client.stage_external_inputs(one_job("royal"), st.grid.site("s0"))
    st.env.process(vip_client.submit_dag(one_job("royal")))
    st.run(until=1800.0)
    jobs = st.server.warehouse.table("jobs")
    assert jobs.get("royal.a")["state"] == JobState.FINISHED.value
    assert jobs.get("peon.a")["state"] == JobState.FINISHED.value
    # The VIP's job was planned no later than the peon's.
    assert jobs.get("royal.a")["planned_at"] <= jobs.get("peon.a")["planned_at"]


def _payload(dag):
    from repro.core.serialize import dag_to_payload

    return dag_to_payload(dag)
