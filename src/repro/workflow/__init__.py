"""Workflow substrate — the Chimera virtual-data-system equivalent.

The paper's SPHINX receives *abstract DAGs* produced by the Chimera
Virtual Data System: groups of jobs whose edges are implied by logical
file I/O dependencies.  This package provides:

* :mod:`repro.workflow.files` — logical/physical file model,
* :mod:`repro.workflow.dag` — jobs, DAGs, dependency analysis, validation,
* :mod:`repro.workflow.generator` — the paper's random workloads
  (10-job random-structure DAGs; 2-3 inputs, ~1 minute compute, sized
  output per job).
"""

from repro.workflow.files import LogicalFile
from repro.workflow.dag import Dag, DagValidationError, Job
from repro.workflow.generator import WorkloadGenerator, WorkloadSpec

__all__ = [
    "Dag",
    "DagValidationError",
    "Job",
    "LogicalFile",
    "WorkloadGenerator",
    "WorkloadSpec",
]
