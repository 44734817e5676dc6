"""Unit tests for the SPHINX client (against a real server stack)."""

import pytest

from repro.core.states import JobState
from repro.simgrid import SiteState
from repro.workflow import Dag, Job, LogicalFile

from tests.integration.stack import FullStack


def lf(name, size=1.0):
    return LogicalFile(name, size)


def one_job_dag(dag_id="c", runtime=60.0):
    return Dag(dag_id, [Job(f"{dag_id}.a", inputs=(lf(f"{dag_id}.raw"),),
                            outputs=(lf(f"{dag_id}.out"),),
                            runtime_s=runtime)])


def test_submit_dag_acked():
    st = FullStack()
    acks = []

    def proc(env):
        ack = yield from st.client.submit_dag(one_job_dag())
        acks.append(ack)

    st.client.stage_external_inputs(one_job_dag(), st.grid.site("s0"))
    st.env.process(proc(st.env))
    st.run(until=10.0)
    assert acks == ["accepted"]
    assert st.client.submitted_dags == 1


def test_stage_external_inputs_registers_replicas():
    st = FullStack()
    dag = one_job_dag()
    st.client.stage_external_inputs(dag, st.grid.site("s2"))
    assert st.grid.site("s2").has_file("c.raw")
    assert st.rls.locations("c.raw") == ("s2",)


def test_client_executes_plan_and_reports_completion():
    st = FullStack()
    st.submit(one_job_dag())
    st.run(until=1800.0)
    assert st.client.finished_dag_count == 1
    assert len(st.client.tracker.stats.completion_times) == 1
    jobs = st.server.warehouse.table("jobs")
    row = jobs.get("c.a")
    assert row["state"] == JobState.FINISHED.value
    assert row["completion_time_s"] > 0


def test_input_staged_to_execution_site():
    st = FullStack(n_sites=2)
    st.submit(one_job_dag(), home="s1")
    st.run(until=1800.0)
    jobs = st.server.warehouse.table("jobs")
    exec_site = jobs.get("c.a")["site"]
    assert st.grid.site(exec_site).has_file("c.raw")


def test_output_materialized_and_registered():
    st = FullStack()
    st.submit(one_job_dag())
    st.run(until=1800.0)
    exec_site = st.server.warehouse.table("jobs").get("c.a")["site"]
    assert st.grid.site(exec_site).has_file("c.out")
    assert exec_site in st.rls.locations("c.out")


def test_running_status_relayed_to_server():
    st = FullStack()
    st.submit(one_job_dag(runtime=200.0))
    st.run(until=60.0)
    row = st.server.warehouse.table("jobs").get("c.a")
    assert row["state"] == JobState.SUBMITTED.value
    assert row["last_status"] == "running"


def test_timeout_cancels_and_requests_replan():
    st = FullStack(n_sites=2, algorithm="round-robin", job_timeout_s=120.0)
    st.grid.site("s0").set_state(SiteState.BLACKHOLE)
    st.grid.site("s1").set_state(SiteState.BLACKHOLE)
    st.submit(one_job_dag())
    st.run(until=400.0)
    # every tracker timeout is reported: the server's tally counts them
    assert st.server.tally("timeouts") >= 1
    # Nothing lingers in remote queues after cancellation.
    total_queued = sum(s.queued_jobs for s in st.grid)
    jobs = st.server.warehouse.table("jobs")
    state = jobs.get("c.a")["state"]
    # Either waiting for replanning or already replanned onto a queue.
    assert state in (JobState.CANCELLED.value, JobState.PLANNED.value,
                     JobState.SUBMITTED.value)
    assert total_queued <= 1


def test_stage_in_retries_then_cancels():
    st = FullStack(n_sites=2, job_timeout_s=600.0)
    dag = one_job_dag()
    st.client.stage_external_inputs(dag, st.grid.site("s1"))
    st.grid.site("s1").set_state(SiteState.DOWN)  # sole replica offline
    st.env.process(st.client.submit_dag(dag))
    st.run(until=120.0)
    assert st.server.tally("stage_in_failures") == 0  # still retrying
    st.run(until=3600.0)
    # s1 never came back: stage-in eventually failed at least once,
    # and the job kept being replanned rather than finishing.
    assert st.server.tally("stage_in_failures") >= 1
    assert st.client.finished_dag_count == 0


def test_stage_in_recovers_when_source_returns():
    st = FullStack(n_sites=2, job_timeout_s=600.0)
    dag = one_job_dag()
    st.client.stage_external_inputs(dag, st.grid.site("s1"))
    st.grid.site("s1").set_state(SiteState.DOWN)

    def heal(env):
        yield env.timeout(150.0)
        st.grid.site("s1").set_state(SiteState.UP)

    st.env.process(heal(st.env))
    st.env.process(st.client.submit_dag(dag))
    st.run(until=3600.0)
    assert st.client.finished_dag_count == 1


def test_grid_job_ids_unique_across_attempts():
    # Feedback off so the lone blackhole stays in the pool and the job
    # keeps being resubmitted (fresh grid ids every attempt).
    st = FullStack(n_sites=1, algorithm="round-robin", job_timeout_s=60.0,
                   use_feedback=False)
    st.grid.site("s0").set_state(SiteState.BLACKHOLE)
    st.submit(one_job_dag())
    st.run(until=500.0)
    # Several attempts were submitted through Condor-G without id clashes.
    assert st.condorg.submitted_count >= 2


def test_dag_finished_notification_records_time():
    st = FullStack()
    st.submit(one_job_dag())
    st.run(until=1800.0)
    start, end = st.client.dag_times["c"]
    assert end is not None
    server_time = st.server.dag_completion_times()["c"]
    # Client time includes notification latency; same ballpark as server.
    assert end - start == pytest.approx(server_time, abs=30.0)


def _fan_dag(n, runtime=60.0):
    """n independent jobs (all ready at once), distinct runtimes."""
    return Dag("f", [
        Job(f"f.j{i}", inputs=(lf("f.raw"),), outputs=(lf(f"f.out{i}"),),
            runtime_s=runtime + i)
        for i in range(n)
    ])


def test_inflight_plans_leave_as_they_end_without_a_scan(monkeypatch):
    from repro.sim.process import Process

    st = FullStack(algorithm="round-robin")
    st.submit(_fan_dag(6))
    st.run(until=30.0)
    assert len(st.client._inflight) == 6
    assert all(p.is_alive for p in st.client._inflight.values())
    # From here on nobody may ask a plan process whether it is alive:
    # a finished plan removes itself.
    monkeypatch.setattr(
        Process, "is_alive",
        property(lambda self: pytest.fail("liveness scan over _inflight")),
    )
    st.run(until=3600.0)
    assert st.client.finished_dag_count == 1
    assert st.client._inflight == {}


def test_crash_interrupts_surviving_plans_in_start_order(monkeypatch):
    from repro.sim.process import Process

    st = FullStack(algorithm="round-robin")
    st.submit(_fan_dag(5, runtime=600.0))
    st.run(until=30.0)
    started = list(st.client._inflight)
    assert [job_id for job_id, _attempt in started] == [
        f"f.j{i}" for i in range(5)
    ]
    by_process = {id(p): key for key, p in st.client._inflight.items()}
    interrupted = []
    real_interrupt = Process.interrupt

    def spy(self, cause=None):
        interrupted.append(by_process[id(self)])
        real_interrupt(self, cause)

    monkeypatch.setattr(Process, "interrupt", spy)
    st.client.crash()
    assert interrupted == started
    assert st.client._inflight == {}
    st.run(until=60.0)  # the interrupts land; nothing re-registers
    assert st.client._inflight == {}


def _finished_by_scan(client):
    """``finished_dag_count`` as it was computed: a sum over every DAG."""
    return sum(1 for _s, f in client.dag_times.values() if f is not None)


def test_finished_dag_count_equals_the_scan_under_duplicates_and_a_crash():
    # Three DAGs; the client is down while the first finishes, so its
    # dag-finished is redelivered after the restart — and then every
    # dag-finished is delivered twice more by hand, plus one for a DAG the
    # client never submitted.  The counter moves once per DAG, keeps the
    # first finish instant, and survives the crash with ``dag_times``.
    st = FullStack(tick_s=2.0, presume_lost_after_s=600.0)
    counts = []

    def drill(env):
        st.submit(one_job_dag("a", runtime=30.0))
        yield env.timeout(20.0)
        st.client.crash()
        counts.append((st.client.finished_dag_count, _finished_by_scan(st.client)))
        yield env.timeout(900.0)
        st.client.restart()
        st.submit(one_job_dag("b"))
        st.submit(one_job_dag("c"))
        yield env.timeout(10.0)
        counts.append((st.client.finished_dag_count, _finished_by_scan(st.client)))

    st.env.process(drill(st.env))
    st.run(until=4 * 3600.0)
    client = st.client
    assert counts[0] == (0, 0) and counts[1][0] == counts[1][1]
    assert client.finished_dag_count == _finished_by_scan(client) == 3
    assert client.done.triggered
    firsts = {d: t[1] for d, t in client.dag_times.items()}
    for dag_id in ("a", "b", "c", "a", "never-submitted"):
        client._dispatch([{"kind": "dag-finished",
                           "payload": {"dag_id": dag_id}}])
        assert client.finished_dag_count == _finished_by_scan(client) == 3
    assert {d: t[1] for d, t in client.dag_times.items()} == firsts
    # a finished id submitted again starts over, as the scan would say
    st.env.process(client.submit_dag(one_job_dag("a")))
    assert client.finished_dag_count == _finished_by_scan(client) == 2
    assert not client.all_dags_finished()
