"""Virtual-data regeneration tests: lost files are re-derived."""

from repro.core.states import JobState
from repro.simgrid import SiteState
from repro.workflow import Dag, Job, LogicalFile

from tests.core.test_server import Stack
from tests.integration.stack import FullStack


def lf(name, size=1.0):
    return LogicalFile(name, size)


def chain2(dag_id="r"):
    return Dag(dag_id, [
        Job(f"{dag_id}.a", inputs=(lf(f"{dag_id}.raw"),),
            outputs=(lf(f"{dag_id}.a.out"),), runtime_s=30.0),
        Job(f"{dag_id}.b", inputs=(lf(f"{dag_id}.a.out"),),
            outputs=(lf(f"{dag_id}.b.out"),), runtime_s=30.0),
    ])


class TestServerRegeneration:
    def test_finished_producer_reverted(self):
        st = Stack()
        st.submit(chain2())
        st.server.tick()
        st.server._rpc_report_status("r.a", 1, "completed", "s0", 10.0)
        st.server.tick()  # b planned
        st.server._rpc_report_status(
            "r.b", 1, "cancelled", "s1", reason="stage-in",
            missing=["r.a.out"],
        )
        row = st.server.warehouse.table("jobs").get("r.a")
        assert row["state"] == JobState.CANCELLED.value
        assert row["last_status"] == "regenerate"
        assert st.server.tally("regenerations") == 1
        # Next tick replans the producer, not the child (parent not done).
        st.server.tick()
        assert st.server.warehouse.table("jobs").get("r.a")["state"] == \
            JobState.PLANNED.value
        assert st.server.warehouse.table("jobs").get("r.b")["state"] == \
            JobState.CANCELLED.value

    def test_external_input_not_regenerable(self):
        st = Stack()
        st.submit(chain2())
        st.server.tick()
        st.server._rpc_report_status(
            "r.a", 1, "cancelled", "s0", reason="stage-in",
            missing=["r.raw"],  # external: no producer
        )
        assert st.server.tally("regenerations") == 0

    def test_already_rerunning_producer_untouched(self):
        st = Stack()
        st.submit(chain2())
        st.server.tick()
        st.server._rpc_report_status("r.a", 1, "completed", "s0", 10.0)
        st.server.tick()
        st.server._rpc_report_status(
            "r.b", 1, "cancelled", "s1", reason="stage-in",
            missing=["r.a.out"],
        )
        # Second report for the same missing file: no double-revert.
        st.server._rpc_report_status("r.b", 1, "running", "s1")  # stale noise
        st.server.tick()
        st.server._rpc_report_status(
            "r.b", 2, "cancelled", "s1", reason="stage-in",
            missing=["r.a.out"],
        ) if st.server.warehouse.table("jobs").get("r.b")["state"] == \
            JobState.PLANNED.value else None
        assert st.server.tally("regenerations") == 1

    def test_removed_producer_regenerated(self):
        """A job skipped by the DAG reducer re-runs when the catalogued
        replica it relied on disappears."""
        st = Stack()
        st.rls.register_replica("r.a.out", "s0", 1.0)
        st.submit(chain2())
        st.server.tick()
        assert st.server.warehouse.table("jobs").get("r.a")["state"] == \
            JobState.REMOVED.value
        st.server._rpc_report_status(
            "r.b", 1, "cancelled", "s1", reason="stage-in",
            missing=["r.a.out"],
        )
        assert st.server.warehouse.table("jobs").get("r.a")["state"] == \
            JobState.CANCELLED.value


class TestEndToEndRegeneration:
    def test_dag_finishes_despite_permanent_loss_of_intermediate(self):
        """Exec site of job a dies for good after a finishes; b's input
        is gone; the system re-derives a elsewhere and completes."""
        st = FullStack(n_sites=3, algorithm="round-robin",
                       job_timeout_s=300.0)
        dag = chain2("v")
        # External inputs are replicated (campaign data lives on more
        # than one storage element); only the *derived* file is at risk.
        st.client.stage_external_inputs(dag, st.grid.site("s1"))
        st.client.stage_external_inputs(dag, st.grid.site("s2"))
        st.env.process(st.client.submit_dag(dag))
        holder = {}

        def killer(env):
            # The instant a's output replica appears in the RLS, kill
            # its holder — before b can stage it anywhere else.
            while not st.rls.exists("v.a.out"):
                yield env.timeout(0.1)
            sites = st.rls.locations("v.a.out")
            holder["dead"] = sites[0]
            st.grid.site(sites[0]).set_state(SiteState.DOWN)

        st.env.process(killer(st.env))
        st.run(until=4 * 3600.0)
        assert st.client.finished_dag_count == 1
        jobs = st.server.warehouse.table("jobs")
        # a ran (at least) twice: original + regeneration.
        assert jobs.get("v.a")["attempts"] >= 2
        assert st.server.tally("regenerations") >= 1
