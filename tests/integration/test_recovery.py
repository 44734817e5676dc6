"""Server crash/recovery integration tests (paper §3.1)."""

from types import SimpleNamespace

from repro.chaos import check_invariants
from repro.core import recover_server
from repro.core.states import DagState, JobState
from repro.core.warehouse import Warehouse
from repro.workflow import Dag, Job, LogicalFile

from tests.integration.stack import FullStack


def lf(name, size=1.0):
    return LogicalFile(name, size)


def chain(dag_id="r", n=3, runtime=60.0):
    jobs = []
    prev = lf(f"{dag_id}.raw")
    for i in range(n):
        out = lf(f"{dag_id}.out{i}")
        jobs.append(Job(f"{dag_id}.j{i}", inputs=(prev,), outputs=(out,),
                        runtime_s=runtime))
        prev = out
    return Dag(dag_id, jobs)


def crash_and_recover(st, at, resume_config=None):
    """Kill the server at sim time ``at``; bring a recovered one up."""
    holder = {}

    def crash(env):
        yield env.timeout(at)
        checkpoint = st.server.checkpoint()
        st.server.shutdown()
        yield env.timeout(30.0)  # downtime window
        holder["server"] = recover_server(
            env, st.bus, resume_config or st.config, st.catalog,
            st.monitoring, st.rls, checkpoint,
        )
        holder["server"].policy.grant_unlimited(st.user.proxy)

    st.env.process(crash(st.env))
    return holder


def test_recovery_resumes_unfinished_dags():
    st = FullStack(tick_s=2.0)
    st.submit(chain(n=4, runtime=120.0))
    holder = crash_and_recover(st, at=150.0)
    st.run(until=4 * 3600.0)
    server2 = holder["server"]
    assert server2.warehouse.table("dags").get("r")["state"] == \
        DagState.FINISHED.value
    assert st.client.finished_dag_count == 1


def test_recovery_requeues_in_flight_jobs():
    st = FullStack(tick_s=2.0)
    st.submit(chain(n=2, runtime=500.0))
    holder = crash_and_recover(st, at=60.0)  # j0 running at the crash
    st.run(until=2 * 3600.0)
    server2 = holder["server"]
    jobs = server2.warehouse.table("jobs")
    assert jobs.get("r.j0")["state"] == JobState.FINISHED.value
    assert jobs.get("r.j1")["state"] == JobState.FINISHED.value
    # The in-flight attempt was requeued at least once.
    assert jobs.get("r.j0")["attempts"] >= 1


def test_duplicate_completion_after_recovery_is_absorbed():
    """The pre-crash attempt may finish and report to the recovered
    server alongside the requeued attempt; exactly one must count."""
    st = FullStack(tick_s=2.0)
    st.submit(chain(n=1, runtime=300.0))
    holder = crash_and_recover(st, at=60.0)
    st.run(until=2 * 3600.0)
    server2 = holder["server"]
    jobs = server2.warehouse.table("jobs")
    assert jobs.get("r.j0")["state"] == JobState.FINISHED.value
    dag_row = server2.warehouse.table("dags").get("r")
    assert dag_row["state"] == DagState.FINISHED.value


def test_recovery_from_empty_image_starts_empty():
    st = FullStack()
    st.server.shutdown()
    server2 = recover_server(st.env, st.bus, st.config, st.catalog,
                             st.monitoring, st.rls, Warehouse().snapshot())
    assert len(server2.warehouse.table("dags")) == 0
    assert server2.service_name in st.bus.services()


def test_feedback_state_survives_recovery():
    st = FullStack()
    st.server.feedback.record_cancellation("s1")
    st.server.feedback.record_cancellation("s1")
    checkpoint = st.server.checkpoint()
    st.server.shutdown()
    server2 = recover_server(st.env, st.bus, st.config, st.catalog,
                             st.monitoring, st.rls, checkpoint)
    assert server2.feedback.cancelled("s1") == 2
    assert not server2.feedback.is_reliable("s1")


def test_client_reports_retry_through_downtime():
    """A completion landing during server downtime must not be lost."""
    st = FullStack(tick_s=2.0)
    st.submit(chain(n=1, runtime=100.0))

    holder = {}

    def crash(env):
        # Crash while j0 runs; stay down PAST its completion (~t=105).
        yield env.timeout(60.0)
        checkpoint = st.server.checkpoint()
        st.server.shutdown()
        yield env.timeout(120.0)
        holder["server"] = recover_server(
            env, st.bus, st.config, st.catalog, st.monitoring, st.rls,
            checkpoint,
        )
        holder["server"].policy.grant_unlimited(st.user.proxy)

    st.env.process(crash(st.env))
    st.run(until=2 * 3600.0)
    jobs = holder["server"].warehouse.table("jobs")
    assert jobs.get("r.j0")["state"] == JobState.FINISHED.value


def test_crash_before_first_checkpoint_loses_state_honestly():
    """No image of the database survives the crash (the database itself
    is lost): the replacement starts from an empty image mid-scenario.
    Accepted work is gone, must not resurrect, and the chaos invariant
    checker flags it as dag-lost."""
    st = FullStack(tick_s=2.0)
    st.submit(chain(n=2, runtime=300.0))
    holder = {}

    def crash(env):
        yield env.timeout(60.0)
        st.server.shutdown()
        yield env.timeout(30.0)
        holder["server"] = recover_server(
            env, st.bus, st.config, st.catalog, st.monitoring, st.rls,
            Warehouse().snapshot(),
        )
        holder["server"].policy.grant_unlimited(st.user.proxy)

    st.env.process(crash(st.env))
    st.run(until=2 * 3600.0)
    server2 = holder["server"]
    assert len(server2.warehouse.table("dags")) == 0
    assert st.client.finished_dag_count == 0
    # The client knows about a dag the server forgot.
    assert "r" in st.client.dag_times
    report = check_invariants({"it": server2}, {"it": st.client}, st.bus,
                              SimpleNamespace(quota_per_site=None))
    assert [(v.code, v.subject) for v in report.violations] == [
        ("dag-lost", "r")]


def test_two_crashes_in_one_run_still_complete():
    st = FullStack(tick_s=2.0)
    st.submit(chain(n=3, runtime=200.0))
    holder = {"server": st.server}

    def crash_twice(env):
        for at in (90.0, 500.0):
            yield env.timeout(at - env.now)
            server = holder["server"]
            checkpoint = server.checkpoint()
            server.shutdown()
            yield env.timeout(45.0)
            holder["server"] = recover_server(
                env, st.bus, st.config, st.catalog, st.monitoring,
                st.rls, checkpoint,
            )
            holder["server"].policy.grant_unlimited(st.user.proxy)

    st.env.process(crash_twice(st.env))
    st.run(until=4 * 3600.0)
    server3 = holder["server"]
    assert server3.warehouse.table("dags").get("r")["state"] == \
        DagState.FINISHED.value
    assert st.client.finished_dag_count == 1


def test_duplicate_completion_leaves_feedback_exact():
    """At-least-once reporting must collapse to exactly-once *effects*:
    one finished job row and one completion tally, even when the
    pre-crash attempt reports alongside the requeued one."""
    st = FullStack(tick_s=2.0)
    st.submit(chain(n=1, runtime=300.0))
    holder = crash_and_recover(st, at=60.0)
    st.run(until=2 * 3600.0)
    server2 = holder["server"]
    jobs = server2.warehouse.table("jobs")
    assert jobs.get("r.j0")["state"] == JobState.FINISHED.value
    completions = sum(
        c for c, _x in server2.feedback.snapshot().values()
    )
    finished = len(jobs.select(
        predicate=lambda r: r["state"] == JobState.FINISHED.value
    ))
    assert completions == finished == 1
