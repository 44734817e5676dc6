"""Transactional outbox delivery + presumed-lost requeue.

Both are chaos-survivability knobs (default off, see ServerConfig):
with ``reliable_delivery`` the server keeps an outbox row until the
push delivery is positively acked, redelivering on the next tick
otherwise; with ``presume_lost_after_s`` it requeues jobs that have
been silent past the window — the safety net for executions that died
with a crashed client.
"""

from repro.core import recover_server
from repro.core.states import DagState, JobState
from repro.workflow import Dag, Job, LogicalFile

from tests.integration.stack import FullStack


def one_job_dag(dag_id="r", runtime=120.0):
    raw = LogicalFile(f"{dag_id}.raw", 1.0)
    out = LogicalFile(f"{dag_id}.out", 1.0)
    return Dag(dag_id, [Job(f"{dag_id}.j0", inputs=(raw,), outputs=(out,),
                            runtime_s=runtime)])


def test_reliable_delivery_is_invisible_on_a_healthy_run():
    st = FullStack(tick_s=2.0, reliable_delivery=True)
    st.submit(one_job_dag())
    st.run(until=3600.0)
    assert st.client.finished_dag_count == 1
    # Every delivered message was acked and deleted.
    assert len(st.server.warehouse.table("outbox")) == 0


def test_plan_survives_client_downtime_and_redelivers():
    """A plan pushed while the client is unregistered must redeliver
    after the client returns — at-least-once, not fire-and-forget."""
    st = FullStack(tick_s=2.0, reliable_delivery=True,
                   presume_lost_after_s=3600.0)

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


def test_presumed_lost_jobs_requeue_and_finish():
    """An execution that dies silently (client crash mid-run, state
    cleared) is requeued once the silence exceeds the window."""
    st = FullStack(tick_s=2.0, job_timeout_s=600.0,
                   reliable_delivery=True, presume_lost_after_s=300.0)
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
    assert st.server.resubmission_count >= 1
    assert st.client.finished_dag_count == 1


def test_presumed_lost_survives_server_recovery():
    """Crash the *server* inside the silence window: the recovered
    instance requeues via its own recovery path and still converges."""
    st = FullStack(tick_s=2.0, job_timeout_s=600.0,
                   reliable_delivery=True, presume_lost_after_s=300.0)
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
