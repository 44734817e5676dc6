"""The slow, obviously-correct twin of the planning pass.

Every pass recomputes every dirty dag's ready set from the jobs table
and asks the algorithm about every ready job, each with a fresh declined
set — the pass as it was before ready sets were kept across passes and
declined ``(user, requirements)`` classes were skipped within one.
``patch_naive_planner`` runs whole scenarios on it.
"""

from repro.core.server import SphinxServer
from repro.core.states import DagState, JobState

_DONE = (JobState.FINISHED.value, JobState.REMOVED.value)
_PLANNABLE = (JobState.UNPLANNED.value, JobState.CANCELLED.value)


def naive_plan_ready_jobs(server):
    dags = server.warehouse.table("dags")
    jobs = server.warehouse.table("jobs")
    running = [
        drow for dag_id in server._dirty_dags
        if (drow := dags.get(dag_id, copy=False)) is not None
        and drow["state"] == DagState.RUNNING.value
    ]
    running.sort(key=lambda r: (r["priority"], r["received_at"], r["dag_id"]))
    still_dirty = set()
    for drow in running:
        dag = server._dag(drow["dag_id"])
        done = [jid for jid in dag.job_ids
                if jobs.get(jid, copy=False)["state"] in _DONE]
        for jid in dag.ready_jobs(done):
            jrow = jobs.get(jid, copy=False)
            if jrow["state"] not in _PLANNABLE:
                continue
            if not server._plan_job(drow, dag, jrow, set()):
                still_dirty.add(drow["dag_id"])
    server._dirty_dags = still_dirty


def patch_naive_planner(monkeypatch):
    """Run every server's planning pass on the twin."""
    monkeypatch.setattr(SphinxServer, "_plan_ready_jobs",
                        naive_plan_ready_jobs)
