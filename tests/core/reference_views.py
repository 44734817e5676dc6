"""The slow, obviously-correct twin of the planner's candidate pool.

Everything here is recomputed from the inputs on every call — the
per-site counters, the monitoring service, the estimator, the
remote-load seam, the quota ledger, the drain notices — and nothing
reads the server's site table, its drain column or the policy engine's
headroom sets.  The differential tests hold the shipped planner against
these, and ``patch_naive`` runs whole scenarios on them.
"""

from repro.core.policies import PolicyEngine
from repro.core.server import SphinxServer
from repro.federation import FederatedSphinxServer

from tests.core.reference_algorithms import (
    SiteView,
    columns_of,
    patch_twin_algorithms,
)


def naive_view(server, site):
    planned, unfinished = server._site_active[site]
    if server._remote_load is not None:
        extra_planned, extra_running = server._remote_load(site)
        planned += extra_planned
        unfinished += extra_running
    n_cpus = server.site_catalog[site]
    avg = server.estimator.average_s(site)
    predicted = None
    if avg is not None:
        predicted = avg
        if server.config.use_prediction_correction:
            predicted = server.estimator.predicted_s(site, planned, n_cpus)
    snap = server.monitoring.snapshot(site)
    return SiteView(
        name=site,
        n_cpus=n_cpus,
        planned_jobs=planned,
        unfinished_jobs=unfinished,
        monitored_queued=snap.queued_jobs if snap else None,
        monitored_running=snap.running_jobs if snap else None,
        avg_completion_s=avg,
        predicted_completion_s=predicted,
    )


def naive_views(server):
    """Every catalog site's view, in catalog order."""
    return [naive_view(server, s) for s in server.site_catalog]


def naive_columns(server):
    """The site table rebuilt from scratch."""
    return columns_of(naive_views(server))


def naive_feasible_sites(policy, user, requirements, sites):
    """Eq. 4 as an all-sites filter."""
    if user in policy._unlimited_users or not requirements:
        return tuple(sites)
    return tuple(
        s for s in sites
        if all(
            policy.remaining(user, s, resource) >= amount
            for resource, amount in requirements.items()
        )
    )


def naive_short_sites(policy, user, requirements, sites):
    """Eq. 4's complement as an all-sites filter."""
    kept = naive_feasible_sites(policy, user, requirements, sites)
    return {s for s in sites if s not in kept}


def naive_candidates(server, job_id):
    """The views ``_plan_job`` must hand the algorithm for ``job_id``:
    quota filter, draining filter, feedback filter, one view each."""
    jrow = server.warehouse.table("jobs").get(job_id)
    drow = server.warehouse.table("dags").get(jrow["dag_id"])
    requirements = server._dag(jrow["dag_id"]).job(job_id).requirements
    names = naive_feasible_sites(
        server.policy, drow["user"], requirements, server.site_catalog
    )
    names = [s for s in names if s not in server._draining]
    if server.config.use_feedback:
        names = [s for s in names if server.feedback.is_reliable(s)]
    return [naive_view(server, s) for s in names]


def patch_naive(monkeypatch):
    """Run every server on the naive builders instead of its table, and
    every algorithm as its list-scan twin."""
    for cls in (SphinxServer, FederatedSphinxServer):
        monkeypatch.setattr(cls, "_site_columns", naive_columns)
    monkeypatch.setattr(PolicyEngine, "short_sites", naive_short_sites)
    patch_twin_algorithms(monkeypatch)
