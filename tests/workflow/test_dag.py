"""Unit tests for the DAG model and dependency derivation."""

import pytest

from repro.workflow import Dag, DagValidationError, Job, LogicalFile


def lf(name, size=1.0):
    return LogicalFile(name, size)


def chain3():
    """a -> b -> c via files."""
    return Dag(
        "chain",
        [
            Job("a", inputs=(lf("raw"),), outputs=(lf("a.out"),)),
            Job("b", inputs=(lf("a.out"),), outputs=(lf("b.out"),)),
            Job("c", inputs=(lf("b.out"),), outputs=(lf("c.out"),)),
        ],
    )


def diamond():
    """a -> (b, c) -> d."""
    return Dag(
        "diamond",
        [
            Job("a", outputs=(lf("a.out"),)),
            Job("b", inputs=(lf("a.out"),), outputs=(lf("b.out"),)),
            Job("c", inputs=(lf("a.out"),), outputs=(lf("c.out"),)),
            Job("d", inputs=(lf("b.out"), lf("c.out")), outputs=(lf("d.out"),)),
        ],
    )


class TestJob:
    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            Job("")

    @pytest.mark.parametrize("amount", [-1.0, float("nan")])
    def test_requirement_amounts_must_be_nonnegative(self, amount):
        with pytest.raises(ValueError, match=r"job j1 .*cpu_seconds"):
            Job("j1", requirements={"cpu_seconds": amount})
        Job("j1", requirements={"cpu_seconds": 0.0})  # zero is a valid ask

    def test_nonpositive_runtime_rejected(self):
        with pytest.raises(ValueError):
            Job("j", runtime_s=0.0)

    @pytest.mark.parametrize(
        "runtime_s", [0.0, -1.0, float("nan"), float("inf"), -float("inf")]
    )
    def test_runtime_must_be_finite_and_positive(self, runtime_s):
        with pytest.raises(ValueError, match=r"job j7 runtime_s"):
            Job("j7", runtime_s=runtime_s)
        Job("j7", runtime_s=1e-3)  # any finite positive runtime is valid

    def test_read_write_same_file_rejected(self):
        with pytest.raises(ValueError, match="reads and writes"):
            Job("j", inputs=(lf("x"),), outputs=(lf("x"),))

    def test_duplicate_output_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            Job("j", outputs=(lf("x"), lf("x")))


class TestDagConstruction:
    def test_empty_dag_id_rejected(self):
        with pytest.raises(DagValidationError):
            Dag("", [])

    def test_duplicate_job_id_rejected(self):
        with pytest.raises(DagValidationError, match="duplicate"):
            Dag("d", [Job("a", outputs=(lf("x"),)), Job("a", outputs=(lf("y"),))])

    def test_two_writers_of_same_file_rejected(self):
        with pytest.raises(DagValidationError, match="written by both"):
            Dag("d", [Job("a", outputs=(lf("x"),)), Job("b", outputs=(lf("x"),))])

    def test_cycle_detected(self):
        with pytest.raises(DagValidationError, match="cycle"):
            Dag(
                "d",
                [
                    Job("a", inputs=(lf("b.out"),), outputs=(lf("a.out"),)),
                    Job("b", inputs=(lf("a.out"),), outputs=(lf("b.out"),)),
                ],
            )

    def test_edges_from_files(self):
        d = chain3()
        assert d.parents("b") == ("a",)
        assert d.children("b") == ("c",)
        assert d.parents("a") == ()
        assert d.children("c") == ()

    def test_diamond_structure(self):
        d = diamond()
        assert set(d.parents("d")) == {"b", "c"}
        assert set(d.children("a")) == {"b", "c"}

    def test_len_contains_job(self):
        d = chain3()
        assert len(d) == 3
        assert "b" in d and "z" not in d
        assert d.job("b").job_id == "b"


class TestDagQueries:
    def test_topological_order(self):
        order = diamond().job_ids
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c") < order.index("d")

    def test_roots_and_leaves(self):
        d = diamond()
        assert d.roots == ("a",)
        assert [j for j in d.job_ids if not d.children(j)] == ["d"]

    def test_external_inputs(self):
        d = chain3()
        assert [f.lfn for f in d.external_inputs] == ["raw"]

    def test_all_outputs(self):
        assert [f.lfn for f in chain3().all_outputs] == ["a.out", "b.out", "c.out"]

    def test_producer_of(self):
        d = chain3()
        assert d.producer_of("a.out") == "a"
        assert d.producer_of("raw") is None

    def test_ready_jobs_initial(self):
        assert diamond().ready_jobs([]) == ("a",)

    def test_ready_jobs_progress(self):
        d = diamond()
        assert set(d.ready_jobs(["a"])) == {"b", "c"}
        assert d.ready_jobs(["a", "b"]) == ("c",)
        assert d.ready_jobs(["a", "b", "c"]) == ("d",)
        assert d.ready_jobs(["a", "b", "c", "d"]) == ()

    def test_ready_jobs_unknown_id_raises(self):
        with pytest.raises(KeyError):
            diamond().ready_jobs(["nope"])

    def test_iteration_yields_topological_jobs(self):
        ids = [j.job_id for j in diamond()]
        assert ids == list(diamond().job_ids)

    def test_critical_path_chain(self):
        assert chain3().critical_path_s == 180.0

    def test_critical_path_diamond(self):
        # a -> b/c -> d, each 60 s: longest chain is 3 jobs.
        assert diamond().critical_path_s == 180.0


class TestDagReduction:
    def test_without_removes_jobs(self):
        d = chain3().without(["a"])
        assert len(d) == 2
        assert "a" not in d
        # b now has no in-dag parent; its input is external.
        assert d.parents("b") == ()
        assert [f.lfn for f in d.external_inputs] == ["a.out"]

    def test_without_unknown_raises(self):
        with pytest.raises(KeyError):
            chain3().without(["zzz"])

    def test_without_preserves_original(self):
        original = chain3()
        original.without(["a"])
        assert len(original) == 3
