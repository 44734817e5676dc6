"""Per-figure scenario builders.

Each ``fig*_scenario`` / ``ext_*_scenario`` returns the plain
:class:`Scenario` a paper figure or extension uses — picklable, so the
suite runner (:mod:`repro.experiments.parallel`) can ship it to a
worker process.  The suite names every figure, ablation and extension
as one case built from these, and is the one path that runs them
(``repro suite``, and the ``benchmarks/bench_*.py`` tables).

``n_dags`` defaults to the paper's value but is a parameter so tests
and quick runs can use scaled-down versions with the same shape.
"""

from __future__ import annotations

from repro.experiments.metrics import rank_correlation, site_distribution_table
from repro.experiments.runner import ExperimentResult
from repro.experiments.scenarios import (
    Scenario,
    ServerSpec,
)

__all__ = [
    "fig2_scenario",
    "fig345_scenario",
    "fig5_pair_scenario",
    "fig6_scenario",
    "fig6_tables",
    "fig7_scenario",
    "fig8_scenario",
    "ext_scale_scenario",
    "ext_eviction_scenario",
    "ALGORITHM_LINEUP",
]

#: The paper's four-way comparison, with feedback (Figs. 3-5, 7).
ALGORITHM_LINEUP: tuple[ServerSpec, ...] = (
    ServerSpec("completion-time", "completion-time"),
    ServerSpec("queue-length", "queue-length"),
    ServerSpec("num-cpus", "num-cpus"),
    ServerSpec("round-robin", "round-robin"),
)


# -- scenario builders ----------------------------------------------------------
def fig2_scenario(n_dags: int = 30, seed: int = 42,
                  horizon_s: float = 24 * 3600.0) -> Scenario:
    """Fig. 2: round-robin and #CPUs, each with and without feedback."""
    return Scenario(
        name=f"fig2-{n_dags}dags",
        servers=(
            ServerSpec("round-robin+fb", "round-robin", use_feedback=True),
            ServerSpec("round-robin-nofb", "round-robin", use_feedback=False),
            ServerSpec("num-cpus+fb", "num-cpus", use_feedback=True),
            ServerSpec("num-cpus-nofb", "num-cpus", use_feedback=False),
        ),
        n_dags=n_dags,
        seed=seed,
        horizon_s=horizon_s,
    )


def fig345_scenario(n_dags: int = 30, seed: int = 42,
                    horizon_s: float = 24 * 3600.0) -> Scenario:
    """Figs. 3 (30 DAGs), 4 (60), 5 (120): the four-way comparison."""
    return Scenario(
        name=f"fig345-{n_dags}dags",
        servers=ALGORITHM_LINEUP,
        n_dags=n_dags,
        seed=seed,
        horizon_s=horizon_s,
    )


def fig5_pair_scenario(rival: str, n_dags: int = 120, seed: int = 42,
                       horizon_s: float = 36 * 3600.0,
                       ) -> Scenario:
    """One pair-wise Fig. 5 run: the hybrid vs one rival algorithm."""
    return Scenario(
        name=f"fig5-pair-{rival}-{n_dags}dags",
        servers=(
            ServerSpec("completion-time", "completion-time"),
            ServerSpec(rival, rival),
        ),
        n_dags=n_dags,
        seed=seed,
        horizon_s=horizon_s,
    )


def fig6_scenario(n_dags: int = 120, seed: int = 42,
                  horizon_s: float = 24 * 3600.0) -> Scenario:
    """Fig. 6: completion-time vs #CPUs for the site-distribution plot."""
    return Scenario(
        name=f"fig6-{n_dags}dags",
        servers=(
            ServerSpec("completion-time", "completion-time"),
            ServerSpec("num-cpus", "num-cpus"),
        ),
        n_dags=n_dags,
        seed=seed,
        horizon_s=horizon_s,
    )


def fig7_scenario(n_dags: int = 120, seed: int = 42,
                  horizon_s: float = 24 * 3600.0) -> Scenario:
    """Fig. 7: the four-way comparison under per-user usage quotas."""
    # Each job needs 60 CPU-seconds; a site may take at most 15% of
    # one user's total demand, so the quota genuinely forces the
    # scheduler to spread (no site can absorb more than 180 of a
    # 1200-job campaign).
    cpu_quota_s = 0.15 * n_dags * 10 * 60.0
    return Scenario(
        name=f"fig7-{n_dags}dags",
        servers=ALGORITHM_LINEUP,
        n_dags=n_dags,
        seed=seed,
        horizon_s=horizon_s,
        job_requirements={"cpu_seconds": 60.0},
        quota_per_site={"cpu_seconds": cpu_quota_s},
    )


def fig8_scenario(n_dags: int = 120, seed: int = 42,
                  horizon_s: float = 24 * 3600.0) -> Scenario:
    """Fig. 8: the four-way lineup plus #CPUs without feedback."""
    return Scenario(
        name=f"fig8-{n_dags}dags",
        servers=ALGORITHM_LINEUP + (
            ServerSpec("num-cpus-nofb", "num-cpus", use_feedback=False),
        ),
        n_dags=n_dags,
        seed=seed,
        horizon_s=horizon_s,
    )


def ext_scale_scenario(n_sites: int = 250, n_jobs: int = 10_000,
                       seed: int = 42) -> Scenario:
    """Extension: extreme-scale planning (``n_sites`` x ``n_jobs``).

    A single completion-time server plans a ``n_jobs``-job campaign
    over a synthetic catalog extrapolating the Grid3 shape to
    ``n_sites`` sites (see :func:`repro.simgrid.grid.synthetic_sites`).
    Faults are off and monitoring is slow (600 s) — the run measures
    the *scheduling kernel*, not fault response: incremental site-view
    scoring, the O(dirty) warehouse, and batched background arrivals
    are what keep 2,500 x 10^5 runs tractable.
    """
    from repro.simgrid.grid import synthetic_sites

    if n_jobs < 10:
        raise ValueError("need at least 10 jobs (one DAG)")
    return Scenario(
        name=f"ext-scale-{n_sites}x{n_jobs}",
        servers=(ServerSpec("completion-time", "completion-time"),),
        n_dags=n_jobs // 10,
        jobs_per_dag=10,
        seed=seed,
        sites=synthetic_sites(n_sites),
        background_batch_s=300.0,
        fault_windows=(),
        monitoring_interval_s=600.0,
        horizon_s=48 * 3600.0,
    )


def ext_eviction_scenario(n_sites: int = 250, n_dags: int = 30,
                          seed: int = 42,
                          horizon_s: float = 24 * 3600.0,
                          ) -> Scenario:
    """Extension: kill-and-resubmit vs checkpoint-and-migrate under
    spot-style eviction churn.

    Two completion-time servers compete on a synthetic ``n_sites``
    catalog with the scenario's own faults *off* — a spot-eviction
    chaos plan supplies the churn, so both servers see the identical
    drain schedule.  The ``resubmit`` spec pins ``migrate_on_drain``
    off (an evicted attempt restarts from zero); the ``migrate`` spec
    leaves it unset, so the plan arms drain migration and, with it, job
    checkpointing.  Jobs carry CPU-second requirements against a quota
    sized to never bind, purely so the quota-conservation invariant
    audits the refund/recharge ledger across every migration.

    Jobs run 300 s (vs the paper's 60 s) so an attempt spans several
    checkpoint intervals and cannot finish inside a default 120 s
    eviction notice — the regime where checkpoint + migrate and
    kill-and-resubmit genuinely diverge.
    """
    from repro.simgrid.grid import synthetic_sites

    return Scenario(
        name=f"ext-eviction-{n_sites}x{n_dags}dags",
        servers=(
            ServerSpec("resubmit", "completion-time", migrate_on_drain=False),
            ServerSpec("migrate", "completion-time"),
        ),
        n_dags=n_dags,
        seed=seed,
        sites=synthetic_sites(n_sites),
        background_batch_s=300.0,
        fault_windows=(),
        monitoring_interval_s=600.0,
        horizon_s=horizon_s,
        job_requirements={"cpu_seconds": 300.0},
        quota_per_site={"cpu_seconds": n_dags * 10 * 300.0},
        workload_overrides={"runtime_s": 300.0},
    )


def fig6_tables(result: ExperimentResult):
    """Fig. 6's derived series: per-server distribution tables and the
    Spearman rank correlation between jobs-per-site and avg completion.

    Returns ``(tables, correlations)``: ``tables[label]`` holds (site,
    jobs, avg-completion) rows.  Expected shape: strongly negative for
    completion-time (Fig. 6a), weak or indifferent for num-cpus (6b).
    """
    tables = {}
    correlations = {}
    for label, server in result.servers.items():
        rows = site_distribution_table(
            server.jobs_per_site, server.avg_completion_per_site
        )
        tables[label] = rows
        usable = [(jobs, avg) for _s, jobs, avg in rows if avg == avg]
        if len(usable) >= 2:
            correlations[label] = rank_correlation(
                [j for j, _a in usable], [a for _j, a in usable]
            )
        else:
            correlations[label] = float("nan")
    return tables, correlations
