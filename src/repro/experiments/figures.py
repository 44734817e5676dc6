"""Per-figure experiment drivers.

Each figure has two layers:

* a **scenario builder** (``fig*_scenario``) returning the plain
  :class:`Scenario` the paper figure used — picklable, so the suite
  runner (:mod:`repro.experiments.parallel`) can ship it to a worker
  process;
* a **driver** (the original ``fig*`` function) that runs the scenario
  and returns the raw :class:`ExperimentResult` plus any derived
  series.

``n_dags`` defaults to the paper's value but is a parameter so tests
and quick benchmarks can run scaled-down versions with the same shape.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.metrics import rank_correlation, site_distribution_table
from repro.experiments.runner import ExperimentResult, run_scenario
from repro.experiments.scenarios import (
    Scenario,
    ServerSpec,
)

__all__ = [
    "fig2_feedback",
    "fig2_scenario",
    "fig3_algorithms",
    "fig345_scenario",
    "fig5_pairwise",
    "fig5_pair_scenario",
    "fig6_site_distribution",
    "fig6_scenario",
    "fig6_tables",
    "fig7_policy",
    "fig7_scenario",
    "fig8_timeouts",
    "fig8_scenario",
    "ext_reservation",
    "ext_reservation_scenario",
    "ext_scale",
    "ext_scale_scenario",
    "ext_eviction",
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
                  horizon_s: float = 24 * 3600.0,
                  cpu_quota_s: Optional[float] = None) -> Scenario:
    """Fig. 7: the four-way comparison under per-user usage quotas."""
    if cpu_quota_s is None:
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


def ext_reservation_scenario(n_dags: int = 30, seed: int = 42,
                             horizon_s: float = 24 * 3600.0,
                             ) -> Scenario:
    """Extension: reactive feedback vs proactive stage reservations.

    Two completion-time servers compete under the standard Grid3 fault
    script; the ``reservation`` variant additionally books site slots
    ahead for downstream DAG stages (EASY-backfilled advance
    reservations), while ``reactive`` relies purely on feedback after
    the fact.  The interesting series: finished DAGs, average DAG
    completion, and the reservation/backfill counters in the obs
    metrics snapshot.
    """
    return Scenario(
        name=f"ext-reservation-{n_dags}dags",
        servers=(
            ServerSpec("reactive", "completion-time"),
            ServerSpec("reservation", "completion-time",
                       reserve_ahead=True),
        ),
        n_dags=n_dags,
        seed=seed,
        horizon_s=horizon_s,
    )


def ext_scale_scenario(n_sites: int = 250, n_jobs: int = 10_000,
                       seed: int = 42,
                       horizon_s: float = 48 * 3600.0,
                       background_batch_s: float = 300.0,
                       ) -> Scenario:
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
        background_batch_s=background_batch_s,
        fault_windows=(),
        monitoring_interval_s=600.0,
        horizon_s=horizon_s,
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
    drain schedule.  The ``resubmit`` spec pins every tolerance knob
    off (an evicted attempt restarts from zero); the ``migrate`` spec
    leaves them on auto, so the plan arms job checkpointing and drain
    migration.  Jobs carry CPU-second requirements against a quota
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
            ServerSpec("resubmit", "completion-time",
                       migrate_on_drain=False,
                       job_checkpoint_interval_s=0.0,
                       job_checkpoint_cost_s=0.0),
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


# -- drivers ---------------------------------------------------------------------
def fig2_feedback(n_dags: int = 30, seed: int = 42,
                  horizon_s: float = 24 * 3600.0,
                  ) -> ExperimentResult:
    """Fig. 2: round-robin and #CPUs, each with and without feedback.

    Expected shape: each with-feedback variant beats its without-
    feedback twin on average DAG completion time (paper: by 20-29%).
    """
    return run_scenario(fig2_scenario(n_dags, seed, horizon_s))


def fig3_algorithms(n_dags: int = 30, seed: int = 42,
                    horizon_s: float = 24 * 3600.0,
                    ) -> ExperimentResult:
    """Figs. 3 (30 DAGs), 4 (60), 5 (120): the four-way comparison.

    Expected shape: completion-time wins average DAG completion, and
    its margin grows with load (17% at 30 DAGs -> 33-50% at 60-120);
    its jobs also spend less idle (queue) time.
    """
    return run_scenario(fig345_scenario(n_dags, seed, horizon_s))


def fig5_pairwise(n_dags: int = 120, seed: int = 42,
                  horizon_s: float = 36 * 3600.0) -> dict:
    """Fig. 5 via the paper's *pair-wise* protocol.

    At 120 DAGs a four-way group run doubles the SPHINX-side grid load
    relative to pair-wise runs and pushes the simulated testbed into
    saturation; the paper notes comparisons were made "in the pair-wise
    or group-wise approach".  Here the completion-time hybrid meets
    each rival head-to-head on an otherwise identical grid.

    Returns ``{rival_label: ExperimentResult}`` — each result holds the
    hybrid and that rival under equal conditions.
    """
    return {
        rival: run_scenario(
            fig5_pair_scenario(rival, n_dags, seed, horizon_s)
        )
        for rival in ("queue-length", "num-cpus", "round-robin")
    }


def fig6_tables(result: ExperimentResult):
    """Fig. 6's derived series: per-server distribution tables and the
    Spearman rank correlation between jobs-per-site and avg completion."""
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


def fig6_site_distribution(n_dags: int = 120, seed: int = 42,
                           horizon_s: float = 24 * 3600.0):
    """Fig. 6: per-site job distribution vs avg completion time.

    Returns ``(result, tables, correlations)`` where ``tables[label]``
    holds (site, jobs, avg-completion) rows and ``correlations[label]``
    the Spearman rank correlation between the two series.  Expected
    shape: strongly negative for completion-time (inverse proportional,
    Fig. 6a); weak/indifferent for num-cpus (Fig. 6b).
    """
    result = run_scenario(fig6_scenario(n_dags, seed, horizon_s))
    tables, correlations = fig6_tables(result)
    return result, tables, correlations


def fig7_policy(n_dags: int = 120, seed: int = 42,
                horizon_s: float = 24 * 3600.0,
                cpu_quota_s: Optional[float] = None,
                ) -> ExperimentResult:
    """Fig. 7: the four-way comparison under per-user usage quotas.

    Every job demands its nominal CPU-seconds; each user holds a per-
    site CPU-second quota sized so no single site can absorb the whole
    workload — the quota genuinely constrains placement.  Expected
    shape: per-algorithm results within a modest factor of the
    unconstrained run (the paper: "similar to those without policy").
    """
    return run_scenario(fig7_scenario(n_dags, seed, horizon_s, cpu_quota_s))


def fig8_timeouts(n_dags: int = 120, seed: int = 42,
                  horizon_s: float = 24 * 3600.0,
                  ) -> ExperimentResult:
    """Fig. 8: rescheduling (timeout) counts per strategy.

    The paper's series: completion-time 125, round-robin(+fb) 154,
    ... and #CPUs *without* feedback 2258.  Expected shape: the
    without-feedback variant resubmits an order of magnitude more than
    the feedback-driven strategies.
    """
    return run_scenario(fig8_scenario(n_dags, seed, horizon_s))


def ext_reservation(n_dags: int = 30, seed: int = 42,
                    horizon_s: float = 24 * 3600.0,
                    ) -> ExperimentResult:
    """Extension: reactive feedback vs proactive stage reservations.

    Expected shape: the reservation variant finishes at least as many
    DAGs as the reactive one under the chaos fault script (reservations
    on crashed sites expire site-side and the planner falls back to the
    normal queue, so proactivity never *costs* completions).
    """
    return run_scenario(ext_reservation_scenario(n_dags, seed, horizon_s))


def ext_eviction(n_sites: int = 250, n_dags: int = 30, seed: int = 42,
                 horizon_s: float = 24 * 3600.0,
                 eviction_mtbf_s: float = 2 * 3600.0,
                 obs=None):
    """Extension: preemption tolerance under spot-eviction churn.

    Runs :func:`ext_eviction_scenario` under the ``spot-eviction``
    chaos plan (same seed => same drain schedule for both servers) and
    returns the :class:`~repro.chaos.run.ChaosRunResult` — its
    ``.result`` holds the per-server migration/restore/preemption-loss
    counters, its ``.report`` the invariant audit.  Expected shape:
    the ``migrate`` server loses measurably less work (lower
    ``preempted_work_s``) and finishes no fewer DAGs than ``resubmit``
    at the same eviction rate.
    """
    from dataclasses import replace

    from repro.chaos.plan import make_plan
    from repro.chaos.run import run_chaos

    plan = replace(make_plan("spot-eviction", seed=seed),
                   eviction_mtbf_s=eviction_mtbf_s)
    scenario = ext_eviction_scenario(n_sites, n_dags, seed, horizon_s)
    return run_chaos(scenario, plan, obs=obs)


def ext_scale(n_sites: int = 250, n_jobs: int = 10_000, seed: int = 42,
              horizon_s: float = 48 * 3600.0,
              background_batch_s: float = 300.0) -> ExperimentResult:
    """Extension: extreme-scale planning throughput.

    Expected shape: the campaign finishes within the horizon and
    ``event_count / wall-clock`` stays in the tens of thousands of
    events per second up to 2,500 sites x 10^5 jobs (the acceptance
    gate for the incremental-scoring + O(dirty) warehouse work; see
    ``repro suite --ext-scale`` and the ``plan-2500x600`` /
    ``scale-250x2400`` workloads of ``benchmarks/perf``).
    """
    return run_scenario(ext_scale_scenario(
        n_sites, n_jobs, seed, horizon_s, background_batch_s,
    ))
