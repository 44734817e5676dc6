"""Unit tests for the SPHINX server: automaton, planner, reports."""

import pytest

from repro.core import ServerConfig, SphinxServer
from repro.core.serialize import dag_to_payload
from repro.core.states import DagState, JobState
from repro.services import MonitoringService, ReplicaService, RpcBus
from repro.sim import Environment
from repro.sim.rng import RngStreams
from repro.simgrid import Grid
from repro.simgrid.grid import SiteSpec
from repro.workflow import Dag, Job, LogicalFile


def lf(name, size=1.0):
    return LogicalFile(name, size)


def chain_dag(dag_id="d0"):
    return Dag(
        dag_id,
        [
            Job(f"{dag_id}.a", inputs=(lf(f"{dag_id}.raw"),),
                outputs=(lf(f"{dag_id}.a.out"),)),
            Job(f"{dag_id}.b", inputs=(lf(f"{dag_id}.a.out"),),
                outputs=(lf(f"{dag_id}.b.out"),)),
        ],
    )


class Stack:
    def __init__(self, algorithm="round-robin", use_feedback=True,
                 n_sites=3, obs=None, **config_kw):
        self.env = Environment()
        self.grid = Grid(self.env, RngStreams(0))
        for i in range(n_sites):
            self.grid.add_site(SiteSpec(f"s{i}", n_cpus=4,
                                        background_utilization=0.0,
                                        service_noise_sigma=0.0))
        self.bus = RpcBus(self.env)
        self.rls = ReplicaService(self.env, self.grid.site_names)
        self.monitoring = MonitoringService(self.env, self.grid,
                                            update_interval_s=60.0)
        self.config = ServerConfig(name="t", algorithm=algorithm,
                                   use_feedback=use_feedback, tick_s=1.0,
                                   **config_kw)
        self.catalog = {s: 4 for s in self.grid.site_names}
        self.server = SphinxServer(
            self.env, self.bus, self.config, self.catalog,
            self.monitoring, self.rls, obs=obs,
        )
        self.server.policy.grant_unlimited("/VO=v/CN=u")

    def submit(self, dag, client_id="c0", user="/VO=v/CN=u"):
        return self.server._rpc_submit_dag(client_id, user,
                                           dag_to_payload(dag))

    def drain(self, client_id="c0"):
        """Pop a client's undelivered messages, oldest first (no client
        service is on the bus, so the rows wait in the outbox)."""
        outbox = self.server.warehouse.table("outbox")
        mine = outbox.select(where={"client_id": client_id}, copy=False)
        for msg in mine:
            outbox.delete(msg["msg_id"])
        return [{"kind": m["kind"], "payload": m["payload"]} for m in mine]

    def job_state(self, job_id):
        return self.server.warehouse.table("jobs").get(job_id)["state"]

    def dag_state(self, dag_id):
        return self.server.warehouse.table("dags").get(dag_id)["state"]


def test_empty_catalog_rejected():
    env = Environment()
    grid = Grid(env, RngStreams(0))
    grid.add_site(SiteSpec("s", 4, background_utilization=0.0))
    bus = RpcBus(env)
    rls = ReplicaService(env, grid.site_names)
    mon = MonitoringService(env, grid, update_interval_s=60.0)
    with pytest.raises(ValueError):
        SphinxServer(env, bus, ServerConfig(), {}, mon, rls)


@pytest.mark.parametrize("field, value", [
    ("job_checkpoint_interval_s", float("nan")),
    ("job_checkpoint_interval_s", -1.0),
    ("job_checkpoint_cost_s", -5.0),
    ("job_checkpoint_cost_s", float("nan")),
    ("prediction_correction_strength", float("nan")),
    ("prediction_correction_strength", -0.5),
    ("max_attempts", 0),
    ("max_attempts", -2),
    ("max_attempts", 2.0),
    ("max_attempts", True),
])
def test_config_rejects_bad_numbers(field, value):
    with pytest.raises(ValueError, match=rf"ServerConfig\.{field} must"):
        ServerConfig(**{field: value})


def test_config_accepts_edge_values():
    ServerConfig(job_checkpoint_interval_s=0.0, job_checkpoint_cost_s=0.0,
                 prediction_correction_strength=0.0, max_attempts=1)
    ServerConfig(max_attempts=None)


def test_submit_dag_creates_rows():
    st = Stack()
    assert st.submit(chain_dag()) == "accepted"
    assert st.dag_state("d0") == DagState.RECEIVED.value
    assert st.job_state("d0.a") == JobState.UNPLANNED.value
    assert st.job_state("d0.b") == JobState.UNPLANNED.value


def test_duplicate_dag_rejected():
    st = Stack()
    st.submit(chain_dag())
    with pytest.raises(ValueError):
        st.submit(chain_dag())


def test_tick_plans_only_ready_jobs():
    st = Stack()
    st.submit(chain_dag())
    st.server.tick()
    assert st.dag_state("d0") == DagState.RUNNING.value
    assert st.job_state("d0.a") == JobState.PLANNED.value
    assert st.job_state("d0.b") == JobState.UNPLANNED.value  # parent not done


def test_plan_message_content():
    st = Stack()
    st.submit(chain_dag())
    st.server.tick()
    msgs = st.drain()
    assert len(msgs) == 1
    plan = msgs[0]["payload"]
    assert plan["job_id"] == "d0.a"
    assert plan["site"] in ("s0", "s1", "s2")
    assert plan["attempt"] == 1
    assert plan["timeout_s"] == st.server.config.job_timeout_s
    assert [f["lfn"] for f in plan["inputs"]] == ["d0.raw"]
    # Fetch drains the outbox.
    assert st.drain() == []


def test_completion_unlocks_children():
    st = Stack()
    st.submit(chain_dag())
    st.server.tick()
    st.server._rpc_report_status("d0.a", "completed", "s0",
                                 completion_time_s=100.0)
    assert st.job_state("d0.a") == JobState.FINISHED.value
    st.server.tick()
    assert st.job_state("d0.b") == JobState.PLANNED.value


def test_dag_finishes_and_notifies():
    st = Stack()
    st.submit(chain_dag())
    st.server.tick()
    st.server._rpc_report_status("d0.a", "completed", "s0", 10.0)
    st.server.tick()
    st.server._rpc_report_status("d0.b", "completed", "s1", 10.0)
    assert st.dag_state("d0") == DagState.FINISHED.value
    kinds = [m["kind"] for m in st.drain()]
    assert "dag-finished" in kinds
    assert st.server.dag_completion_times().keys() == {"d0"}


def test_cancellation_replans_next_tick():
    st = Stack()
    st.submit(chain_dag())
    st.server.tick()
    st.drain()
    st.server._rpc_report_status("d0.a", "cancelled", "s0", reason="timeout")
    assert st.job_state("d0.a") == JobState.CANCELLED.value
    assert st.server.resubmission_count == 1
    assert st.server.timeout_count == 1
    st.server.tick()
    assert st.job_state("d0.a") == JobState.PLANNED.value
    msgs = st.drain()
    assert msgs[0]["payload"]["attempt"] == 2


def test_feedback_excludes_unreliable_site():
    st = Stack(algorithm="round-robin", use_feedback=True)
    st.submit(chain_dag())
    st.server.tick()
    # Poison s0 badly.
    for _ in range(3):
        st.server.feedback.record_cancellation("s0")
    st.server._rpc_report_status("d0.a", "cancelled", "s1", reason="killed")
    planned_sites = set()
    for _ in range(6):
        st.server.tick()
        row = st.server.warehouse.table("jobs").get("d0.a")
        if row["site"]:
            planned_sites.add(row["site"])
        if row["state"] == JobState.PLANNED.value:
            st.server._rpc_report_status("d0.a", "cancelled", row["site"],
                                         reason="killed")
    assert "s0" not in planned_sites


def test_without_feedback_unreliable_sites_stay_in_pool():
    st = Stack(algorithm="round-robin", use_feedback=False)
    for _ in range(5):
        st.server.feedback.record_cancellation("s0")
    st.submit(chain_dag())
    sites = set()
    for _ in range(6):
        st.server.tick()
        row = st.server.warehouse.table("jobs").get("d0.a")
        if row["state"] == JobState.PLANNED.value:
            sites.add(row["site"])
            st.server._rpc_report_status("d0.a", "cancelled", row["site"])
    assert "s0" in sites


def test_stage_in_cancel_with_missing_source_does_not_poison_feedback():
    # A missing *source* replica is not the execution site's fault.
    st = Stack()
    st.submit(chain_dag())
    st.server.tick()
    st.server._rpc_report_status("d0.a", "cancelled", "s0", reason="stage-in",
                                 missing=["lost.lfn"])
    assert st.server.feedback.cancelled("s0") == 0
    assert st.server.stage_in_failures == 1
    assert st.server.resubmission_count == 1


def test_stage_in_cancel_at_destination_penalizes_site_in_push_mode():
    # All sources had live replicas, so the transfer failed at the
    # destination: the server must penalize the site or the planner
    # hot-loops plan -> stage-in -> cancel against a dead site.
    st = Stack()
    st.submit(chain_dag())
    st.server.tick()
    st.server._rpc_report_status("d0.a", "cancelled", "s0", reason="stage-in")
    assert st.server.feedback.cancelled("s0") == 1
    assert st.server.stage_in_failures == 1
    assert st.server.resubmission_count == 1


def test_running_report_moves_to_submitted_and_counters():
    st = Stack()
    st.submit(chain_dag())
    st.server.tick()
    row = st.server.warehouse.table("jobs").get("d0.a")
    site = row["site"]
    assert st.server._site_active[site] == [1, 0]
    st.server._rpc_report_status("d0.a", "running", site)
    assert st.job_state("d0.a") == JobState.SUBMITTED.value
    assert st.server._site_active[site] == [0, 1]
    st.server._rpc_report_status("d0.a", "completed", site, 50.0)
    assert st.server._site_active[site] == [0, 0]


def test_duplicate_reports_are_idempotent():
    st = Stack()
    st.submit(chain_dag())
    st.server.tick()
    st.server._rpc_report_status("d0.a", "completed", "s0", 10.0)
    assert st.server._rpc_report_status("d0.a", "completed", "s0", 10.0) == \
        "duplicate"
    assert st.server.feedback.completed("s0") == 1
    st.server._rpc_report_status("d0.b", "cancelled", "s0")
    assert st.server._rpc_report_status("d0.b", "cancelled", "s0") == \
        "duplicate"
    assert st.server.feedback.cancelled("s0") == 1


def test_unknown_job_report_raises():
    st = Stack()
    with pytest.raises(KeyError):
        st.server._rpc_report_status("ghost", "completed", "s0", 1.0)


def test_unknown_status_raises():
    st = Stack()
    st.submit(chain_dag())
    with pytest.raises(ValueError):
        st.server._rpc_report_status("d0.a", "exploded", "s0")


def test_completion_feeds_estimator():
    st = Stack()
    st.submit(chain_dag())
    st.server.tick()
    st.server._rpc_report_status("d0.a", "completed", "s2", 123.0)
    assert st.server.estimator.average_s("s2") == 123.0


def test_cancelled_report_never_feeds_estimator():
    # Killed/held jobs must not contribute completion samples: a job
    # killed while PENDING reports completion_time_s=None (see
    # SiteJob.completion_time_s), and the cancelled branch must not
    # record anything even if a raced report carries a time.
    st = Stack()
    st.submit(chain_dag())
    st.server.tick()
    st.drain()
    st.server._rpc_report_status("d0.a", "cancelled", "s0", reason="killed")
    assert st.server.estimator.sample_count("s0") == 0
    assert st.server.estimator.average_s("s0") is None
    assert st.server.jobs_per_site().get("s0", 0) == 0


def test_dag_reducer_removes_satisfied_jobs():
    st = Stack()
    st.rls.register_replica("d0.a.out", "s0", 1.0)
    st.submit(chain_dag())
    st.server.tick()
    assert st.job_state("d0.a") == JobState.REMOVED.value
    # b became ready immediately (its producer was reduced away).
    assert st.job_state("d0.b") == JobState.PLANNED.value


def test_fully_reduced_dag_finishes_without_planning():
    st = Stack()
    st.rls.register_replica("d0.a.out", "s0", 1.0)
    st.rls.register_replica("d0.b.out", "s0", 1.0)
    st.submit(chain_dag())
    st.server.tick()
    assert st.dag_state("d0") == DagState.FINISHED.value
    kinds = [m["kind"] for m in st.drain()]
    assert kinds == ["dag-finished"]


def test_policy_filters_sites():
    st = Stack()
    user = "/VO=v/CN=limited"
    st.server.policy.grant(user, "s1", "cpu_seconds", 1000.0)
    dag = Dag("q", [Job("q.a", outputs=(lf("q.out"),),
                        requirements={"cpu_seconds": 60.0})])
    st.submit(dag, user=user)
    st.server.tick()
    row = st.server.warehouse.table("jobs").get("q.a")
    assert row["site"] == "s1"  # the only site with quota
    assert st.server.policy.used(user, "s1", "cpu_seconds") == 60.0


def test_no_feasible_site_leaves_job_unplanned():
    st = Stack()
    user = "/VO=v/CN=broke"
    dag = Dag("q", [Job("q.a", outputs=(lf("q.out"),),
                        requirements={"cpu_seconds": 60.0})])
    st.submit(dag, user=user)
    st.server.tick()
    assert st.job_state("q.a") == JobState.UNPLANNED.value


def test_cancel_refunds_quota():
    st = Stack()
    user = "/VO=v/CN=limited"
    for s in ("s0", "s1", "s2"):
        st.server.policy.grant(user, s, "cpu_seconds", 100.0)
    dag = Dag("q", [Job("q.a", outputs=(lf("q.out"),),
                        requirements={"cpu_seconds": 60.0})])
    st.submit(dag, user=user)
    st.server.tick()
    site = st.server.warehouse.table("jobs").get("q.a")["site"]
    assert st.server.policy.used(user, site, "cpu_seconds") == 60.0
    st.server._rpc_report_status("q.a", "cancelled", site, reason="killed")
    assert st.server.policy.used(user, site, "cpu_seconds") == 0.0


def test_max_attempts_safety_valve():
    st = Stack(max_attempts=2)
    st.submit(chain_dag())
    st.server.tick()  # attempt 1
    st.server._rpc_report_status("d0.a", "cancelled", "s0")
    st.server.tick()  # attempt 2
    with pytest.raises(RuntimeError, match="attempts"):
        st.server._rpc_report_status("d0.a", "cancelled", "s1")


def test_shutdown_unregisters_and_halts():
    st = Stack()
    st.server.shutdown()
    assert st.server.service_name not in st.bus.services()
    st.env.run(until=100.0)  # control loop must not keep ticking
    assert not st.server._proc.is_alive


def test_jobs_per_site_counts_completions():
    st = Stack()
    st.submit(chain_dag())
    st.server.tick()
    st.server._rpc_report_status("d0.a", "completed", "s0", 10.0)
    st.server.tick()
    row = st.server.warehouse.table("jobs").get("d0.b")
    st.server._rpc_report_status("d0.b", "completed", row["site"], 10.0)
    counts = st.server.jobs_per_site()
    assert sum(counts.values()) == 2
