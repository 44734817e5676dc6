"""Full-stack integration tests: client + server + grid + services."""

from repro.core.states import DagState, JobState
from repro.sim.rng import RngStreams
from repro.simgrid import SiteState
from repro.workflow import Dag, Job, LogicalFile, WorkloadGenerator, WorkloadSpec

from tests.integration.stack import FullStack


def lf(name, size=1.0):
    return LogicalFile(name, size)


def diamond(dag_id="d"):
    return Dag(
        dag_id,
        [
            Job(f"{dag_id}.a", inputs=(lf(f"{dag_id}.raw"),),
                outputs=(lf(f"{dag_id}.a.out"),), runtime_s=30.0),
            Job(f"{dag_id}.b", inputs=(lf(f"{dag_id}.a.out"),),
                outputs=(lf(f"{dag_id}.b.out"),), runtime_s=30.0),
            Job(f"{dag_id}.c", inputs=(lf(f"{dag_id}.a.out"),),
                outputs=(lf(f"{dag_id}.c.out"),), runtime_s=30.0),
            Job(f"{dag_id}.d", inputs=(lf(f"{dag_id}.b.out"),
                                       lf(f"{dag_id}.c.out")),
                outputs=(lf(f"{dag_id}.d.out"),), runtime_s=30.0),
        ],
    )


def test_single_dag_executes_in_dependency_order():
    st = FullStack()
    st.submit(diamond())
    st.run(until=3600.0)
    assert st.client.finished_dag_count == 1
    jobs = st.server.warehouse.table("jobs")
    finished_at = {jid: jobs.get(f"d.{jid}")["finished_at"]
                   for jid in ("a", "b", "c", "d")}
    assert finished_at["a"] < finished_at["b"]
    assert finished_at["a"] < finished_at["c"]
    assert finished_at["d"] > max(finished_at["b"], finished_at["c"])


def test_outputs_registered_in_rls():
    st = FullStack()
    st.submit(diamond())
    st.run(until=3600.0)
    for out in ("d.a.out", "d.b.out", "d.c.out", "d.d.out"):
        assert st.rls.exists(out)


def test_completion_time_includes_staging():
    """The tracked completion time must cover transfer + queue + exec."""
    st = FullStack(n_sites=2)
    dag = Dag("t", [Job("t.a", inputs=(lf("t.big", 500.0),),
                        outputs=(lf("t.out"),), runtime_s=30.0)])
    st.submit(dag, home="s1")  # input remote from wherever it runs
    st.run(until=3600.0)
    times = st.client.tracker.stats.completion_times
    assert len(times) == 1
    # 500 MB over a 10 MB/s uplink is ~50 s when remote; plus 30 s run.
    assert times[0] >= 30.0


def test_second_identical_dag_is_fully_reduced():
    st = FullStack()
    st.submit(diamond("x"))
    st.run(until=3600.0)
    assert st.client.finished_dag_count == 1
    # Same outputs already exist: the reducer eliminates everything.
    st.submit(diamond("x2"))
    # x2 writes different LFNs, so build a true duplicate of x instead:
    # (submit a dag whose outputs match x's registered outputs)
    st.run(until=3700.0)
    dup = Dag("x-redo", [
        Job("x-redo.a", inputs=(lf("x.raw"),), outputs=(lf("x.a.out"),)),
    ])
    st.submit(dup)
    st.run(until=4000.0)
    jobs = st.server.warehouse.table("jobs")
    assert jobs.get("x-redo.a")["state"] == JobState.REMOVED.value
    dags = st.server.warehouse.table("dags")
    assert dags.get("x-redo")["state"] == DagState.FINISHED.value


def test_blackhole_site_jobs_replanned_and_finish():
    st = FullStack(n_sites=3, algorithm="round-robin",
                   job_timeout_s=300.0)
    st.grid.site("s2").set_state(SiteState.BLACKHOLE)
    for i in range(3):
        st.submit(diamond(f"d{i}"))
    st.run(until=4 * 3600.0)
    assert st.client.finished_dag_count == 3
    assert st.server.timeout_count > 0
    assert not st.server.feedback.is_reliable("s2")


def test_site_downtime_mid_run_recovers():
    st = FullStack(n_sites=2, algorithm="round-robin", job_timeout_s=300.0)

    def fault(env, site):
        yield env.timeout(40.0)
        site.set_state(SiteState.DOWN)
        yield env.timeout(600.0)
        site.set_state(SiteState.UP)

    st.env.process(fault(st.env, st.grid.site("s1")))
    for i in range(4):
        st.submit(diamond(f"d{i}"))
    st.run(until=4 * 3600.0)
    assert st.client.finished_dag_count == 4


def test_workload_generator_dags_complete():
    st = FullStack(n_sites=4, n_cpus=16)
    gen = WorkloadGenerator(RngStreams(7).stream("w"))
    dags = gen.generate(WorkloadSpec(n_dags=4))
    for dag in dags:
        st.submit(dag)
    st.run(until=6 * 3600.0)
    assert st.client.finished_dag_count == 4
    assert st.client.tracker.stats.completed == 40


def test_policy_constrained_run_respects_quota():
    st = FullStack(n_sites=3)
    # Undo the unlimited grant: build a fresh constrained user.
    user = st.user
    st.server.policy._unlimited_users.clear()
    for s in ("s0", "s1"):
        st.server.policy.grant(user.proxy, s, "cpu_seconds", 10_000.0)
    dag = Dag("q", [
        Job("q.a", inputs=(lf("q.raw"),), outputs=(lf("q.out"),),
            runtime_s=30.0, requirements={"cpu_seconds": 30.0}),
    ])
    st.submit(dag)
    st.run(until=3600.0)
    jobs = st.server.warehouse.table("jobs")
    assert jobs.get("q.a")["state"] == JobState.FINISHED.value
    assert jobs.get("q.a")["site"] in ("s0", "s1")  # s2 has no quota


def test_concurrent_servers_compete_on_one_grid():
    """Two servers with different algorithms share the grid, paper-style."""
    from repro.core import ServerConfig, SphinxClient, SphinxServer
    from repro.simgrid.vo import User, VirtualOrganization

    st = FullStack(n_sites=3, algorithm="round-robin")
    config2 = ServerConfig(name="it2", algorithm="completion-time",
                           tick_s=2.0, job_timeout_s=600.0)
    server2 = SphinxServer(st.env, st.bus, config2, st.catalog,
                           st.monitoring, st.rls)
    user2 = User("bob", VirtualOrganization("cms"))
    server2.policy.grant_unlimited(user2.proxy)
    client2 = SphinxClient(st.env, st.bus, server2.service_name, st.condorg,
                           st.gridftp, st.rls, user2, "c1", poll_s=1.0)

    st.submit(diamond("a1"))
    client2.stage_external_inputs(diamond("b1"), st.grid.site("s1"))
    st.env.process(client2.submit_dag(diamond("b1")))
    st.run(until=2 * 3600.0)
    assert st.client.finished_dag_count == 1
    assert client2.finished_dag_count == 1


def test_dag_times_measured_at_client():
    st = FullStack()
    st.submit(diamond())
    st.run(until=3600.0)
    start, end = st.client.dag_times["d"]
    assert start == 0.0
    assert end is not None and end > start
