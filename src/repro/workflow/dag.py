"""Abstract DAGs of jobs with file-implied dependencies.

A :class:`Job` declares the logical files it reads and writes plus a
nominal compute demand.  A :class:`Dag` collects jobs and derives the
precedence graph: job B depends on job A iff B reads a file A writes.
This mirrors Chimera's abstract plans, where edges are not stated but
implied by virtual-data I/O.

The DAG also carries per-job resource requirements used by the policy
engine (eq. 4 of the paper): CPU-seconds and disk quota demands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional

from repro.workflow.files import LogicalFile

__all__ = ["Job", "Dag", "DagValidationError"]


class DagValidationError(ValueError):
    """Raised when a DAG is structurally invalid (cycle, duplicate id...)."""


@dataclass(slots=True)
class Job:
    """One schedulable unit of work inside a DAG.

    ``runtime_s`` is the *nominal* compute time on a reference CPU; real
    execution time depends on the site's performance factor and load.
    ``requirements`` maps resource names (``"cpu_seconds"``, ``"disk_mb"``)
    to the amount a site must grant under the user's quota.
    """

    job_id: str
    inputs: tuple[LogicalFile, ...] = ()
    outputs: tuple[LogicalFile, ...] = ()
    runtime_s: float = 60.0
    executable: str = "generic-app"
    requirements: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ValueError("job_id must be non-empty")
        if not 0 < self.runtime_s < math.inf:  # also rejects NaN
            raise ValueError(
                f"job {self.job_id} runtime_s must be finite and > 0, "
                f"got {self.runtime_s!r}"
            )
        for resource, amount in self.requirements.items():
            if not amount >= 0:  # also rejects NaN
                raise ValueError(
                    f"job {self.job_id} requires {amount!r} {resource}; "
                    "amounts must be >= 0"
                )
        self.inputs = tuple(self.inputs)
        self.outputs = tuple(self.outputs)
        produced = {f.lfn for f in self.outputs}
        if len(produced) != len(self.outputs):
            raise ValueError(f"job {self.job_id} writes a file twice")
        overlap = produced & {f.lfn for f in self.inputs}
        if overlap:
            raise ValueError(
                f"job {self.job_id} both reads and writes {sorted(overlap)}"
            )


class Dag:
    """A directed acyclic graph of jobs with file-implied edges.

    Construction validates: unique job ids, single writer per file, and
    acyclicity.  Dependency queries are O(1) after construction.
    """

    def __init__(self, dag_id: str, jobs: Iterable[Job]):
        if not dag_id:
            raise DagValidationError("dag_id must be non-empty")
        self.dag_id = dag_id
        self._jobs: dict[str, Job] = {}
        for job in jobs:
            if job.job_id in self._jobs:
                raise DagValidationError(
                    f"duplicate job id {job.job_id!r} in dag {dag_id!r}"
                )
            self._jobs[job.job_id] = job

        # Map each produced file to its (single) producer.
        self._producer: dict[str, str] = {}
        for job in self._jobs.values():
            for f in job.outputs:
                if f.lfn in self._producer:
                    raise DagValidationError(
                        f"file {f.lfn!r} written by both "
                        f"{self._producer[f.lfn]!r} and {job.job_id!r}"
                    )
                self._producer[f.lfn] = job.job_id

        # Derive edges: parent -> child when child reads parent's output.
        self._parents: dict[str, tuple[str, ...]] = {}
        self._children: dict[str, list[str]] = {jid: [] for jid in self._jobs}
        for job in self._jobs.values():
            parents = []
            for f in job.inputs:
                producer = self._producer.get(f.lfn)
                if producer is not None and producer != job.job_id:
                    parents.append(producer)
            # Deduplicate preserving insertion order for determinism.
            seen: dict[str, None] = dict.fromkeys(parents)
            self._parents[job.job_id] = tuple(seen)
            for p in seen:
                self._children[p].append(job.job_id)

        self._order = self._toposort()

    # -- basic accessors ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._jobs

    def __iter__(self) -> Iterator[Job]:
        """Iterate jobs in a deterministic topological order."""
        return (self._jobs[jid] for jid in self._order)

    @property
    def job_ids(self) -> tuple[str, ...]:
        """All job ids in topological order."""
        return self._order

    def job(self, job_id: str) -> Job:
        return self._jobs[job_id]

    def parents(self, job_id: str) -> tuple[str, ...]:
        """Jobs whose outputs this job reads."""
        return self._parents[job_id]

    def children(self, job_id: str) -> tuple[str, ...]:
        """Jobs that read this job's outputs."""
        return tuple(self._children[job_id])

    def producer_of(self, lfn: str) -> Optional[str]:
        """The job id that writes ``lfn``, or None for external inputs."""
        return self._producer.get(lfn)

    @property
    def external_inputs(self) -> tuple[LogicalFile, ...]:
        """Files read by some job but produced by none (must pre-exist)."""
        seen: dict[str, LogicalFile] = {}
        for jid in self._order:
            for f in self._jobs[jid].inputs:
                if f.lfn not in self._producer and f.lfn not in seen:
                    seen[f.lfn] = f
        return tuple(seen.values())

    @property
    def all_outputs(self) -> tuple[LogicalFile, ...]:
        """Every file produced by some job, in topological producer order."""
        out: list[LogicalFile] = []
        for jid in self._order:
            out.extend(self._jobs[jid].outputs)
        return tuple(out)

    @property
    def roots(self) -> tuple[str, ...]:
        """Jobs with no in-DAG parents."""
        return tuple(jid for jid in self._order if not self._parents[jid])

    # -- scheduling-facing queries ------------------------------------------
    def ready_jobs(self, completed: Iterable[str]) -> tuple[str, ...]:
        """Jobs whose parents have all completed and that are not done.

        This is the planner's "choose a set of jobs that are ready for
        execution according to the input data availability" step.
        """
        done = set(completed)
        unknown = done - set(self._jobs)
        if unknown:
            raise KeyError(f"unknown completed job ids: {sorted(unknown)}")
        return tuple(
            jid
            for jid in self._order
            if jid not in done and all(p in done for p in self._parents[jid])
        )

    def without(self, job_ids: Iterable[str]) -> "Dag":
        """A new DAG with the given jobs removed (used by the DAG reducer).

        Removing a job whose descendants remain is allowed only when every
        remaining reader's input is satisfiable externally — the reducer
        guarantees this by only removing jobs whose outputs already exist
        in the replica catalog.
        """
        drop = set(job_ids)
        unknown = drop - set(self._jobs)
        if unknown:
            raise KeyError(f"unknown job ids: {sorted(unknown)}")
        remaining = [self._jobs[jid] for jid in self._order if jid not in drop]
        return Dag(self.dag_id, remaining)

    # -- internals -----------------------------------------------------------
    def _toposort(self) -> tuple[str, ...]:
        """Kahn's algorithm with deterministic (insertion-order) ties."""
        indeg = {jid: len(self._parents[jid]) for jid in self._jobs}
        queue = [jid for jid in self._jobs if indeg[jid] == 0]
        order: list[str] = []
        while queue:
            jid = queue.pop(0)
            order.append(jid)
            for child in self._children[jid]:
                indeg[child] -= 1
                if indeg[child] == 0:
                    queue.append(child)
        if len(order) != len(self._jobs):
            cyclic = sorted(jid for jid, d in indeg.items() if d > 0)
            raise DagValidationError(
                f"dag {self.dag_id!r} contains a cycle through {cyclic}"
            )
        return tuple(order)

    @property
    def critical_path_s(self) -> float:
        """Length of the longest chain of nominal runtimes.

        A lower bound on DAG completion time on infinite resources; used
        by experiment metrics for normalization.
        """
        longest: dict[str, float] = {}
        for jid in self._order:
            base = max(
                (longest[p] for p in self._parents[jid]), default=0.0
            )
            longest[jid] = base + self._jobs[jid].runtime_s
        return max(longest.values(), default=0.0)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Dag({self.dag_id!r}, jobs={len(self._jobs)})"
