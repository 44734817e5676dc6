"""The scheduling finite-state automaton (paper §3.2).

"SPHINX adapts finite automaton for scheduling status management.  The
scheduler moves a DAG through predefined states to complete resource
allocation to the jobs in the DAG."  Each server module owns one or two
transitions; the control process wakes the module responsible for
whatever state an entity is in.

The edges, as :data:`EDGES` holds them.  DAG automaton::

    RECEIVED -> REDUCING -> REDUCED -> RUNNING -> FINISHED
    REDUCING -> FINISHED                      every job reduced away

Job automaton::

    UNPLANNED -> PLANNED -> SUBMITTED -> FINISHED   the happy path
    UNPLANNED -> REMOVED                            reduced away
    PLANNED | SUBMITTED -> CANCELLED -> PLANNED     fail, then replan
    PLANNED | CANCELLED -> FINISHED                 completion, see below
    FINISHED | REMOVED -> CANCELLED                 output lost: re-derive

Readiness (parents done) is computed by the planner, not stored.
PLANNED -> FINISHED is a completion whose running report never came,
or a superseded attempt's; CANCELLED -> FINISHED is a completion that
outlived its attempt's requeue.  Completed work is kept, never re-run.
FINISHED and REMOVED are *almost* terminal: when a job's output loses
its last live replica, the virtual-data model re-derives it, so the
server sends the producer back to CANCELLED and replans it.

:data:`EDGES` is the whole automaton, keyed by table name because
``"finished"`` is a state of both tables.  Every state write the server
makes goes through :func:`move`; an edge the table lacks raises
:class:`IllegalTransitionError`, which in a scheduler is always a logic
bug worth failing loudly on.
"""

from __future__ import annotations

import enum
from typing import Any

__all__ = ["DagState", "JobState", "IllegalTransitionError", "EDGES",
           "move"]


class IllegalTransitionError(RuntimeError):
    """An entity was asked to move along an edge the automaton lacks."""


class DagState(enum.Enum):
    RECEIVED = "received"    # arrived from a client, not yet examined
    REDUCING = "reducing"    # DAG reducer checking the replica catalog
    REDUCED = "reduced"      # reduction done; ready for planning
    RUNNING = "running"      # jobs being planned/executed
    FINISHED = "finished"    # every job finished (or removed)


class JobState(enum.Enum):
    UNPLANNED = "unplanned"  # never planned yet
    PLANNED = "planned"      # site chosen; plan sent to the client
    SUBMITTED = "submitted"  # client staged data and handed to Condor-G
    FINISHED = "finished"    # completed; outputs registered
    CANCELLED = "cancelled"  # failed / timed out / lost; awaiting replan
    REMOVED = "removed"      # eliminated by the DAG reducer


# The stored values.  Enum ``.value`` lookups cost a descriptor call
# each and the control loop compares states hundreds of thousands of
# times per run, so readers compare against these strings.
JOB_UNPLANNED = JobState.UNPLANNED.value
JOB_PLANNED = JobState.PLANNED.value
JOB_SUBMITTED = JobState.SUBMITTED.value
JOB_FINISHED = JobState.FINISHED.value
JOB_CANCELLED = JobState.CANCELLED.value
JOB_REMOVED = JobState.REMOVED.value
DAG_RECEIVED = DagState.RECEIVED.value
DAG_REDUCING = DagState.REDUCING.value
DAG_REDUCED = DagState.REDUCED.value
DAG_RUNNING = DagState.RUNNING.value
DAG_FINISHED = DagState.FINISHED.value

#: table name -> stored state -> the states it may move to
EDGES: dict[str, dict[str, frozenset[str]]] = {
    "jobs": {
        JOB_UNPLANNED: frozenset({JOB_PLANNED, JOB_REMOVED}),
        JOB_PLANNED: frozenset({JOB_SUBMITTED, JOB_CANCELLED, JOB_FINISHED}),
        JOB_SUBMITTED: frozenset({JOB_FINISHED, JOB_CANCELLED}),
        JOB_CANCELLED: frozenset({JOB_PLANNED, JOB_FINISHED}),
        JOB_FINISHED: frozenset({JOB_CANCELLED}),
        JOB_REMOVED: frozenset({JOB_CANCELLED}),
    },
    "dags": {
        DAG_RECEIVED: frozenset({DAG_REDUCING}),
        DAG_REDUCING: frozenset({DAG_REDUCED, DAG_FINISHED}),
        DAG_REDUCED: frozenset({DAG_RUNNING}),
        DAG_RUNNING: frozenset({DAG_FINISHED}),
        DAG_FINISHED: frozenset(),
    },
}


def move(table, row: dict, new: str, now: float, **changes: Any) -> str:
    """Move ``row`` of ``table`` to state ``new``, writing ``changes``
    with it; returns the state it left.

    ``row`` must be the live row (``copy=False``): its ``state`` is the
    edge's origin.  ``now`` is the sim time, for the error message.
    """
    old = row["state"]
    if new not in EDGES[table.name].get(old, ()):
        raise IllegalTransitionError(
            f"{table.name} {row[table.key]!r} cannot move {old} -> {new} "
            f"(t={now})"
        )
    table.update(row[table.key], state=new, **changes)
    return old
