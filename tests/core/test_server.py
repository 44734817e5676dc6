"""Unit tests for the SPHINX server: automaton, planner, reports."""

import ast
import math
from pathlib import Path

import pytest

from repro.chaos import ChaosPlan, CrashSpec, FaultRule, PartitionWindow
from repro.core import ServerConfig, SphinxServer
from repro.core.serialize import dag_to_payload
from repro.core.states import DagState, JobState
from repro.experiments import Scenario, ServerSpec
from repro.federation import FederationConfig, FederationScenario
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
        self.rls = ReplicaService(self.grid.site_names)
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
    rls = ReplicaService(grid.site_names)
    mon = MonitoringService(env, grid, update_interval_s=60.0)
    with pytest.raises(ValueError):
        SphinxServer(env, bus, ServerConfig(), {}, mon, rls)


#: how to build each class whose fields ``require_positive`` or
#: ``require_non_negative`` guard, with one field overridden
_GUARDED = {
    "ServerConfig": ServerConfig,
    "Scenario": lambda **kw: Scenario(
        name="x", servers=(ServerSpec("a", "round-robin"),), **kw),
    "FederationScenario": lambda **kw: FederationScenario(name="x", **kw),
    "FederationConfig": FederationConfig,
    "FaultRule": FaultRule,
    "PartitionWindow": lambda **kw: PartitionWindow(
        **{"service": "x", "start_s": 10.0, "end_s": 20.0, **kw}),
    "CrashSpec": lambda **kw: CrashSpec("server", **{"at_s": 1.0, **kw}),
    "ChaosPlan": ChaosPlan,
}


def guarded_fields():
    """(class, field) for every field named in a ``require_positive`` or
    ``require_non_negative`` call in ``src/``."""
    src = Path(__file__).resolve().parents[2] / "src"
    for path in sorted(src.rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for call in ast.walk(cls):
                if (isinstance(call, ast.Call)
                        and getattr(call.func, "id", None)
                        in ("require_positive", "require_non_negative")):
                    for arg in call.args[1:]:
                        for node in ast.walk(arg):
                            if (isinstance(node, ast.Constant)
                                    and isinstance(node.value, str)):
                                yield cls.name, node.value


@pytest.mark.parametrize("config, field", sorted(set(guarded_fields())))
def test_every_guarded_field_rejects_inf(config, field):
    # An infinite horizon never ended; an infinite tick_s or
    # background_batch_s silently switched off what it paces.
    with pytest.raises(ValueError, match=rf"^{config}\.{field} must be finite"):
        _GUARDED[config](**{field: math.inf})


def test_config_accepts_edge_values():
    # inf is presume_lost_after_s's "never", the default
    ServerConfig(presume_lost_after_s=math.inf)
    ServerConfig(migrate_on_drain=True)


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
    st.server._rpc_report_status("d0.a", 1, "completed", "s0",
                                 completion_time_s=100.0)
    assert st.job_state("d0.a") == JobState.FINISHED.value
    st.server.tick()
    assert st.job_state("d0.b") == JobState.PLANNED.value


def test_dag_finishes_and_notifies():
    st = Stack()
    st.submit(chain_dag())
    st.server.tick()
    st.server._rpc_report_status("d0.a", 1, "completed", "s0", 10.0)
    st.server.tick()
    st.server._rpc_report_status("d0.b", 1, "completed", "s1", 10.0)
    assert st.dag_state("d0") == DagState.FINISHED.value
    kinds = [m["kind"] for m in st.drain()]
    assert "dag-finished" in kinds
    assert st.server.dag_completion_times().keys() == {"d0"}


def test_cancellation_replans_next_tick():
    st = Stack()
    st.submit(chain_dag())
    st.server.tick()
    st.drain()
    st.server._rpc_report_status("d0.a", 1, "cancelled", "s0", reason="timeout")
    assert st.job_state("d0.a") == JobState.CANCELLED.value
    assert st.server.tally("resubmissions") == 1
    assert st.server.tally("timeouts") == 1
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
    st.server._rpc_report_status("d0.a", 1, "cancelled", "s1", reason="killed")
    planned_sites = set()
    for _ in range(6):
        st.server.tick()
        row = st.server.warehouse.table("jobs").get("d0.a")
        if row["site"]:
            planned_sites.add(row["site"])
        if row["state"] == JobState.PLANNED.value:
            st.server._rpc_report_status("d0.a", row["attempts"],
                                         "cancelled", row["site"],
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
            st.server._rpc_report_status("d0.a", row["attempts"],
                                         "cancelled", row["site"])
    assert "s0" in sites


def test_stage_in_cancel_with_missing_source_does_not_poison_feedback():
    # A missing *source* replica is not the execution site's fault.
    st = Stack()
    st.submit(chain_dag())
    st.server.tick()
    st.server._rpc_report_status("d0.a", 1, "cancelled", "s0", reason="stage-in",
                                 missing=["lost.lfn"])
    assert st.server.feedback.cancelled("s0") == 0
    assert st.server.tally("stage_in_failures") == 1
    assert st.server.tally("resubmissions") == 1


def test_stage_in_cancel_at_destination_penalizes_site_in_push_mode():
    # All sources had live replicas, so the transfer failed at the
    # destination: the server must penalize the site or the planner
    # hot-loops plan -> stage-in -> cancel against a dead site.
    st = Stack()
    st.submit(chain_dag())
    st.server.tick()
    st.server._rpc_report_status("d0.a", 1, "cancelled", "s0", reason="stage-in")
    assert st.server.feedback.cancelled("s0") == 1
    assert st.server.tally("stage_in_failures") == 1
    assert st.server.tally("resubmissions") == 1


def test_running_report_moves_to_submitted_and_counters():
    st = Stack()
    st.submit(chain_dag())
    st.server.tick()
    row = st.server.warehouse.table("jobs").get("d0.a")
    site = row["site"]
    assert st.server._site_active[site] == [1, 0]
    st.server._rpc_report_status("d0.a", 1, "running", site)
    assert st.job_state("d0.a") == JobState.SUBMITTED.value
    assert st.server._site_active[site] == [0, 1]
    st.server._rpc_report_status("d0.a", 1, "completed", site, 50.0)
    assert st.server._site_active[site] == [0, 0]


def test_duplicate_reports_are_idempotent():
    st = Stack()
    st.submit(chain_dag())
    st.server.tick()
    st.server._rpc_report_status("d0.a", 1, "completed", "s0", 10.0)
    assert st.server._rpc_report_status("d0.a", 1, "completed", "s0", 10.0) == \
        "duplicate"
    assert st.server.feedback.completed("s0") == 1
    st.server.tick()
    site = st.server.warehouse.table("jobs").get("d0.b")["site"]
    st.server._rpc_report_status("d0.b", 1, "cancelled", site)
    assert st.server._rpc_report_status("d0.b", 1, "cancelled", site) == \
        "duplicate"
    assert st.server.feedback.cancelled(site) == 1


def test_unknown_job_report_raises():
    st = Stack()
    with pytest.raises(KeyError):
        st.server._rpc_report_status("ghost", 1, "completed", "s0", 1.0)


def test_unknown_status_raises():
    st = Stack()
    st.submit(chain_dag())
    with pytest.raises(ValueError):
        st.server._rpc_report_status("d0.a", 1, "exploded", "s0")


def test_completion_feeds_estimator():
    st = Stack()
    st.submit(chain_dag())
    st.server.tick()
    st.server._rpc_report_status("d0.a", 1, "completed", "s2", 123.0)
    assert st.server.estimator.average_s("s2") == 123.0


def test_cancelled_report_never_feeds_estimator():
    # Killed jobs must not contribute completion samples: a job
    # killed while PENDING reports completion_time_s=None (see
    # SiteJob.completion_time_s), and the cancelled branch must not
    # record anything even if a raced report carries a time.
    st = Stack()
    st.submit(chain_dag())
    st.server.tick()
    st.drain()
    st.server._rpc_report_status("d0.a", 1, "cancelled", "s0", reason="killed")
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
    st.server._rpc_report_status("q.a", 1, "cancelled", site, reason="killed")
    assert st.server.policy.used(user, site, "cpu_seconds") == 0.0


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
    st.server._rpc_report_status("d0.a", 1, "completed", "s0", 10.0)
    st.server.tick()
    row = st.server.warehouse.table("jobs").get("d0.b")
    st.server._rpc_report_status("d0.b", 1, "completed", row["site"], 10.0)
    counts = st.server.jobs_per_site()
    assert sum(counts.values()) == 2
