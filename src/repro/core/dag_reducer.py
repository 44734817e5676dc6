"""DAG reducer — replica-aware job elimination (paper §3.2).

"The DAG reducer reads an incoming DAG, and eliminates previously
completed jobs in the DAG ... simply checks for the existence of the
output files of each job, and if they all exist, the job and all
precedence of the job can be deleted."

Implementation detail worth stating: a job is removable when *all its
outputs already exist* in the replica catalog **and** every one of its
ancestors is also removable — removing a job whose ancestor must still
run would be wrong only in the opposite direction (ancestors feed
descendants), so the paper's "the job and all precedence of the job can
be deleted" is exactly: walk in topological order; a job is removable
iff its outputs all exist.  Its ancestors are then removable too by the
same check *or* are kept if some other kept job needs them — but a kept
descendant never needs a removed producer, because the producer's
outputs exist in the catalog and can be staged from there.

The reducer consults the RLS with one clubbed bulk lookup.
"""

from __future__ import annotations

from repro.services.rls import ReplicaService
from repro.workflow.dag import Dag

__all__ = ["DagReducer"]


class DagReducer:
    """Eliminates jobs whose outputs already have catalogued replicas."""

    def __init__(self, rls: ReplicaService):
        self._rls = rls

    def removable_jobs(self, dag: Dag) -> tuple[str, ...]:
        """Job ids whose every output already exists in the RLS."""
        all_lfns = [f.lfn for jid in dag.job_ids for f in dag.job(jid).outputs]
        locations = self._rls.bulk_locations(all_lfns)  # one clubbed call
        return tuple(
            jid
            for jid in dag.job_ids
            if dag.job(jid).outputs
            and all(locations.get(f.lfn) for f in dag.job(jid).outputs)
        )

    def reduce(self, dag: Dag) -> Dag:
        """The reduced DAG (possibly empty of jobs == fully satisfied)."""
        removable = self.removable_jobs(dag)
        if not removable:
            return dag
        return dag.without(removable)
