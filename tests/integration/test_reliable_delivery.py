"""Transactional outbox delivery + presumed-lost requeue.

The server keeps every outbox row until its push delivery is
positively acked, redelivering a faulted batch after ``tick_s`` and
holding the rows of a client that is off the bus; that is how the
server always delivers, so no config arms it.  The chaos-survivability
knob (default off, see ServerConfig) is ``presume_lost_after_s``: it
requeues jobs that have been silent past the window — the safety net
for executions that died with a crashed client.
"""

from repro.chaos.plan import ChaosPlan, FaultRule
from repro.core import recover_server
from repro.core.states import DagState, JobState
from repro.workflow import Dag, Job, LogicalFile

from tests.integration.stack import FullStack


def one_job_dag(dag_id="r", runtime=120.0):
    raw = LogicalFile(f"{dag_id}.raw", 1.0)
    out = LogicalFile(f"{dag_id}.out", 1.0)
    return Dag(dag_id, [Job(f"{dag_id}.j0", inputs=(raw,), outputs=(out,),
                            runtime_s=runtime)])


def test_delivery_acks_drain_the_outbox_on_a_healthy_run():
    st = FullStack(tick_s=2.0)
    st.submit(one_job_dag())
    st.run(until=3600.0)
    assert st.client.finished_dag_count == 1
    # Every delivered message was acked and deleted.
    assert len(st.server.warehouse.table("outbox")) == 0


def test_plan_survives_client_downtime_and_redelivers():
    """A plan pushed while the client is unregistered must redeliver
    after the client returns — at-least-once, not fire-and-forget."""
    st = FullStack(tick_s=2.0, presume_lost_after_s=3600.0)

    def drill(env):
        # Crash the client *before* submission so the plan lands while
        # the deliver endpoint is gone.
        yield env.timeout(1.0)
        st.client.crash()
        st.submit(one_job_dag())
        yield env.timeout(120.0)
        st.client.restart()

    st.env.process(drill(st.env))
    st.run(until=3600.0)
    assert st.client.finished_dag_count == 1
    assert len(st.server.warehouse.table("outbox")) == 0


def test_a_lost_deliver_is_redelivered_under_the_default_config():
    """A ``deliver`` whose request leg the wire eats is redelivered
    after ``tick_s``: no presumed-lost window, no delivery knob."""
    plan = ChaosPlan(seed=41, rule=FaultRule(drop_p=0.5))
    st = FullStack(tick_s=2.0, chaos_plan=plan)
    assert st.config.presume_lost_after_s == float("inf")
    st.submit(one_job_dag())
    st.run(until=3600.0)
    assert st.client.finished_dag_count == 1
    assert len(st.server.warehouse.table("outbox")) == 0
    # The plan's first three delivers were lost before the client
    # heard them (this seed's fault schedule).
    assert [f[2:] for f in st.bus.fault_log[:3]] == \
        [("deliver", "drop-request")] * 3


def test_presumed_lost_jobs_requeue_and_finish():
    """An execution that dies silently (client crash mid-run, state
    cleared) is requeued once the silence exceeds the window."""
    st = FullStack(tick_s=2.0, job_timeout_s=600.0,
                   presume_lost_after_s=300.0)
    st.submit(one_job_dag(runtime=200.0))

    def drill(env):
        # Crash after the plan is being executed; stay down long
        # enough that the attempt is clearly lost.
        yield env.timeout(30.0)
        st.client.crash()
        yield env.timeout(600.0)
        st.client.restart()

    st.env.process(drill(st.env))
    st.run(until=2 * 3600.0)
    jobs = st.server.warehouse.table("jobs")
    row = jobs.get("r.j0")
    assert row["state"] == JobState.FINISHED.value
    assert st.server.warehouse.table("dags").get("r")["state"] == \
        DagState.FINISHED.value
    # The lost attempt really was presumed lost and requeued.
    assert st.server.tally("resubmissions") >= 1
    assert st.client.finished_dag_count == 1


def test_presumed_lost_survives_server_recovery():
    """Crash the *server* inside the silence window: the recovered
    instance requeues via its own recovery path and still converges."""
    st = FullStack(tick_s=2.0, job_timeout_s=600.0,
                   presume_lost_after_s=300.0)
    st.submit(one_job_dag(runtime=200.0))
    holder = {}

    def drill(env):
        yield env.timeout(30.0)
        st.client.crash()
        yield env.timeout(60.0)
        checkpoint = st.server.checkpoint()
        st.server.shutdown()
        yield env.timeout(60.0)
        holder["server"] = recover_server(
            env, st.bus, st.config, st.catalog, st.monitoring, st.rls,
            checkpoint,
        )
        holder["server"].policy.grant_unlimited(st.user.proxy)
        yield env.timeout(300.0)
        st.client.restart()

    st.env.process(drill(st.env))
    st.run(until=2 * 3600.0)
    server2 = holder["server"]
    assert server2.warehouse.table("dags").get("r")["state"] == \
        DagState.FINISHED.value
    assert st.client.finished_dag_count == 1
    assert len(server2.warehouse.table("outbox")) == 0
