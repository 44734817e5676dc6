"""Unit tests for the replica-aware DAG reducer."""

from repro.core.dag_reducer import DagReducer
from repro.services import ReplicaService
from repro.workflow import Dag, Job, LogicalFile


def lf(name):
    return LogicalFile(name, 1.0)


def chain():
    return Dag(
        "chain",
        [
            Job("a", inputs=(lf("raw"),), outputs=(lf("a.out"),)),
            Job("b", inputs=(lf("a.out"),), outputs=(lf("b.out"),)),
            Job("c", inputs=(lf("b.out"),), outputs=(lf("c.out"),)),
        ],
    )


def make(existing=()):
    rls = ReplicaService(["site0"])
    for lfn in existing:
        rls.register_replica(lfn, "site0", 1.0)
    return DagReducer(rls), rls


def test_nothing_to_reduce():
    reducer, _rls = make()
    dag = chain()
    assert reducer.reduce(dag) is dag  # unchanged object, zero copies


def test_removes_job_with_existing_output():
    reducer, _ = make(existing=["a.out"])
    reduced = reducer.reduce(chain())
    assert "a" not in reduced
    assert len(reduced) == 2


def test_removes_prefix_of_chain():
    reducer, _ = make(existing=["a.out", "b.out"])
    reduced = reducer.reduce(chain())
    assert reduced.job_ids == ("c",)
    # c's input is now external, satisfiable from the catalog.
    assert [f.lfn for f in reduced.external_inputs] == ["b.out"]


def test_fully_satisfied_dag_reduces_to_empty():
    reducer, _ = make(existing=["a.out", "b.out", "c.out"])
    reduced = reducer.reduce(chain())
    assert len(reduced) == 0


def test_removable_requires_all_outputs():
    dag = Dag(
        "multi",
        [Job("a", outputs=(lf("x"), lf("y")))],
    )
    reducer, _ = make(existing=["x"])  # y missing
    assert reducer.removable_jobs(dag) == ()


def test_mid_chain_removal_keeps_consumers():
    """b's output exists but a's does not: only b is removed; c stages
    b.out from the catalog; a still runs (its output may be needed by
    nothing else, but the reducer only removes *satisfied* work)."""
    reducer, _ = make(existing=["b.out"])
    reduced = reducer.reduce(chain())
    assert set(reduced.job_ids) == {"a", "c"}
    assert reduced.parents("c") == ()


def test_uses_one_bulk_rls_call():
    class CountingRls(ReplicaService):
        def __init__(self):
            super().__init__(["s"])
            self.bulk_calls = 0

        def bulk_locations(self, lfns):
            self.bulk_calls += 1
            return super().bulk_locations(lfns)

    rls = CountingRls()
    reducer = DagReducer(rls)
    reducer.reduce(chain())
    assert rls.bulk_calls == 1  # the paper's "clubbed" single call
