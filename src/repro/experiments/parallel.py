"""Parallel experiment suite — fan independent scenarios across CPUs.

Every paper figure (and ablation) is an independent simulation: its
own :class:`~repro.sim.engine.Environment`, its own RNG streams seeded
from the scenario, no shared mutable state.  That makes the suite
embarrassingly parallel — each :class:`SuiteCase` runs in a worker
process and the merged output is **bit-identical** to a sequential
run:

* every case is fully described by its picklable :class:`Scenario`;
  workers rebuild the whole stack from it, exactly as ``workers=1``
  does in-process;
* results are collected in *submission* order, never completion order,
  so the merge is deterministic regardless of worker scheduling;
* wall-clock timings are measured inside the worker and reported
  separately from the simulation metrics, which depend only on the
  scenario.

``run_suite`` powers the ``repro suite`` CLI subcommand, which writes
``BENCH_SUITE.json`` — per-figure wall-clock, kernel event counts,
events/second throughput, and headline metrics.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro import obs as obs_mod
from repro.experiments.figures import (
    ext_eviction_scenario,
    ext_reservation_scenario,
    ext_scale_scenario,
    fig2_scenario,
    fig345_scenario,
    fig5_pair_scenario,
    fig6_scenario,
    fig7_scenario,
    fig8_scenario,
)
from repro.experiments.runner import ExperimentResult
from repro.experiments.scenarios import (
    Scenario,
    ServerSpec,
)

__all__ = [
    "SuiteCase",
    "SuiteRun",
    "default_suite",
    "eviction_suite",
    "federation_suite",
    "scale_suite",
    "run_suite",
    "headline_metrics",
    "planning_latency_percentiles",
    "project",
    "suite_payload",
]

#: BENCH_SUITE.json schema identifier; bump on breaking payload changes.
SCHEMA = "repro-bench-suite/v1"


@dataclass(frozen=True, slots=True)
class SuiteCase:
    """One unit of suite work: a named, self-contained scenario.

    ``plan`` optionally attaches a :class:`repro.chaos.plan.ChaosPlan`;
    the case then runs under :func:`repro.chaos.run.run_chaos` and a
    violated invariant fails the whole suite (a chaos case that merely
    *degrades* would silently poison the report).  Both pieces are
    frozen, picklable data, so chaos cases parallelise like any other.
    """

    name: str
    scenario: Scenario
    plan: object | None = None


@dataclass(slots=True)
class SuiteRun:
    """One finished case: its result plus the worker-side wall-clock
    and the case's metrics-registry snapshot (with raw histogram
    samples, so suite-level merges keep exact pooled percentiles).

    ``rss_mb`` is the worker's peak RSS when the case finished.  With
    pooled workers that is a *process-lifetime* peak — a worker that
    ran a big case first reports that high-water mark for every later
    case too — so per-case attribution is exact only at ``workers=1``
    (how the CI memory gate runs it)."""

    name: str
    result: ExperimentResult
    wall_s: float
    metrics: dict = field(default_factory=dict)
    rss_mb: float = 0.0


def _scaled(paper_n: int, scale: float, minimum: int = 4) -> int:
    """A paper DAG count under the suite scale factor (cf. benchmarks)."""
    return max(minimum, round(paper_n * scale))


def default_suite(scale: float = 1.0,
                  seed: int = 42) -> tuple[SuiteCase, ...]:
    """The full evaluation: Figs. 2-8 plus the two ablations.

    ``scale`` shrinks every workload proportionally (floor of 4 DAGs),
    mirroring ``REPRO_BENCH_SCALE`` in the benchmark harness; shape
    criteria are only meaningful at scale 1.0.
    """
    if not scale > 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    cases = [
        SuiteCase("fig2", fig2_scenario(_scaled(30, scale), seed)),
        SuiteCase("fig3", fig345_scenario(_scaled(30, scale), seed)),
        SuiteCase("fig4", fig345_scenario(_scaled(60, scale), seed)),
    ]
    for rival in ("queue-length", "num-cpus", "round-robin"):
        cases.append(SuiteCase(
            f"fig5-pair-{rival}",
            fig5_pair_scenario(rival, _scaled(120, scale), seed),
        ))
    cases += [
        SuiteCase("fig6", fig6_scenario(_scaled(120, scale), seed)),
        SuiteCase("fig7", fig7_scenario(_scaled(120, scale), seed)),
        SuiteCase("fig8", fig8_scenario(_scaled(120, scale), seed)),
        SuiteCase("ablation-estimator", Scenario(
            name=f"ablation-estimator-{_scaled(30, scale)}dags",
            servers=(
                ServerSpec("default(ewma+corr)", "completion-time"),
                ServerSpec("mean-estimator", "completion-time",
                           estimator_mode="mean"),
                ServerSpec("no-correction", "completion-time",
                           use_prediction_correction=False),
            ),
            n_dags=_scaled(30, scale),
            seed=seed,
        )),
    ]
    for interval in (30.0, 300.0, 900.0):
        cases.append(SuiteCase(
            f"ablation-staleness-{interval:.0f}s",
            Scenario(
                name=f"ablation-staleness-{interval:.0f}s",
                servers=(
                    ServerSpec("queue-length", "queue-length"),
                    ServerSpec("completion-time", "completion-time"),
                ),
                n_dags=_scaled(30, scale),
                seed=seed,
                monitoring_interval_s=interval,
            ),
        ))
    cases.append(SuiteCase(
        "ext-reservation",
        ext_reservation_scenario(_scaled(30, scale), seed),
    ))
    return tuple(cases)


def federation_suite(shard_counts: Sequence[int], seed: int = 42,
                     scale: float = 1.0) -> tuple[SuiteCase, ...]:
    """Federated cases: one ``ext-federation-Nshards`` per shard count.

    ``scale`` shrinks the per-user DAG count (floor of 2); the shard
    counts are the point of the sweep and stay as requested.  Cases
    run under :func:`repro.federation.run_federation` —
    :func:`repro.federation.runner.run_topology` picks it from the
    scenario type.
    """
    if not scale > 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    # Lazy import: repro.federation.runner imports back into the
    # experiments package, so binding it at module-import time would
    # be circular.
    from repro.federation.runner import ext_federation_scenario

    cases = []
    for n_shards in shard_counts:
        cases.append(SuiteCase(
            f"ext-federation-{n_shards}shards",
            ext_federation_scenario(
                n_shards=n_shards,
                dags_per_user=max(2, round(5 * scale)),
                seed=seed,
            ),
        ))
    return tuple(cases)


def scale_suite(sizes: Sequence[tuple[int, int]], seed: int = 42,
                scale: float = 1.0) -> tuple[SuiteCase, ...]:
    """Extreme-scale cases: one ``ext-scale-SxJ`` per (sites, jobs).

    ``scale`` shrinks the *job* counts (floor of 10 = one DAG); the
    site counts are the point of the sweep and stay as requested.
    """
    if not scale > 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    cases = []
    for n_sites, n_jobs in sizes:
        jobs = max(10, round(n_jobs * scale / 10) * 10)
        cases.append(SuiteCase(
            f"ext-scale-{n_sites}x{jobs}",
            ext_scale_scenario(n_sites, jobs, seed),
        ))
    return tuple(cases)


def eviction_suite(scale: float = 1.0,
                   seed: int = 42) -> tuple[SuiteCase, ...]:
    """The eviction-tolerance case: ``ext-eviction`` under the
    ``spot-eviction`` chaos preset.

    Runs the kill-and-resubmit baseline and the checkpoint+migrate
    server side by side on the 250-site synthetic catalog while the
    preset's per-site eviction storm drains sites out from under them.
    ``scale`` shrinks the DAG count (floor of 4); migration counts and
    preemption-loss percentiles land in the report via
    :func:`project`.
    """
    if not scale > 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    # Lazy import: repro.chaos.run imports back into this module.
    from repro.chaos.plan import make_plan

    return (SuiteCase(
        "ext-eviction",
        ext_eviction_scenario(n_dags=_scaled(30, scale), seed=seed),
        plan=make_plan("spot-eviction", seed),
    ),)


def _dispatch(scenario, obs, heartbeat, plan=None) -> ExperimentResult:
    """Run one scenario, drilled or bare, on whichever topology its
    type names (``run_topology`` decides).

    With ``plan`` set the case runs as a chaos drill (no heartbeat —
    drills audit end state, they are not perf probes) and an invariant
    violation raises instead of returning a quietly-broken result.
    """
    # Lazy imports: both modules import back into this package.
    if plan is not None:
        from repro.chaos.run import run_chaos

        drill = run_chaos(scenario, plan, obs=obs)
        if not drill.ok:
            raise RuntimeError(
                f"chaos invariants violated in {scenario.name}:\n"
                f"{drill.report.format_text()}"
            )
        return drill.result
    from repro.federation.runner import run_topology

    return run_topology(scenario, obs=obs, heartbeat=heartbeat)[0]


def _run_case(case: SuiteCase,
              trace_dir: Optional[str] = None,
              stream_spans: bool = False,
              reservoir: Optional[int] = None,
              progress_interval: Optional[float] = None) -> SuiteRun:
    """Worker entry point: run one case, time it (module-level: pickled
    by name into the pool workers; every argument is a picklable
    primitive — sinks and heartbeats are built *inside* the worker).

    Every case runs under a metrics-only observability facade (strictly
    passive: ``event_count`` and all scheduling metrics are untouched).
    With ``trace_dir`` set, spans are collected too and each worker
    writes its own ``<case>.spans.jsonl`` / ``<case>.trace.json`` pair
    — span payloads never ride through pickling.  ``stream_spans``
    flushes closed spans to the JSONL incrementally instead (tracer
    memory stays at open-spans-only; the Chrome trace, which needs the
    full span list, is skipped).  ``reservoir`` bounds every histogram
    to that many samples.  ``progress_interval`` turns on the wall-clock
    heartbeat: stderr lines plus ``<case>.heartbeat.jsonl`` under
    ``trace_dir`` (when given).
    """
    from repro.obs.export import JsonlSpanSink, write_trace_pair
    from repro.obs.runtime import Heartbeat, rss_mb

    out = None
    if trace_dir is not None:
        out = Path(trace_dir)
        out.mkdir(parents=True, exist_ok=True)
    sink = None
    if stream_spans and out is not None:
        sink = JsonlSpanSink(out / f"{case.name}.spans.jsonl")
    config = obs_mod.ObsConfig(
        spans=trace_dir is not None,
        histogram_max_samples=reservoir,
        span_sink=sink,
    )
    obs = obs_mod.Obs(config)
    heartbeat = None
    if progress_interval is not None:
        heartbeat = Heartbeat(
            progress_interval,
            path=(out / f"{case.name}.heartbeat.jsonl"
                  if out is not None else None),
            label=case.name,
        )
    t0 = time.perf_counter()
    result = _dispatch(case.scenario, obs=obs, heartbeat=heartbeat,
                       plan=case.plan)
    wall_s = time.perf_counter() - t0
    if out is not None:
        write_trace_pair(obs, out, case.name, result.elapsed_sim_s)
    return SuiteRun(name=case.name, result=result, wall_s=wall_s,
                    metrics=obs.metrics.snapshot(include_samples=True),
                    rss_mb=rss_mb())


def run_suite(cases: Iterable[SuiteCase],
              workers: int = 1,
              trace_dir: Optional[str] = None,
              stream_spans: bool = False,
              reservoir: Optional[int] = None,
              progress_interval: Optional[float] = None) -> list[SuiteRun]:
    """Run every case; results come back in case order.

    ``workers=1`` runs in-process (no pool, no pickling); ``workers>1``
    fans cases over a :class:`ProcessPoolExecutor`.  Simulation metrics
    are bit-identical either way — only ``wall_s`` differs.

    ``trace_dir`` additionally collects spans per case and writes, on
    top of each worker's per-case files, a merged ``suite.spans.jsonl``
    (cases concatenated in case order — deterministic regardless of
    worker scheduling) and ``suite.metrics.json`` (snapshots folded
    with :func:`repro.obs.merge_snapshots`, same order).

    Flight-recorder knobs (see :func:`_run_case`): ``stream_spans``
    flushes spans incrementally (requires ``trace_dir``); ``reservoir``
    bounds histogram memory; ``progress_interval`` emits a live
    heartbeat per case.
    """
    cases = list(cases)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if stream_spans and trace_dir is None:
        raise ValueError("stream_spans requires trace_dir")
    if workers == 1 or len(cases) <= 1:
        runs = [_run_case(c, trace_dir, stream_spans, reservoir,
                          progress_interval) for c in cases]
    else:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(cases))
        ) as pool:
            futures = [pool.submit(_run_case, c, trace_dir, stream_spans,
                                   reservoir, progress_interval)
                       for c in cases]
            # Submission order, not completion order: determinism.
            runs = [f.result() for f in futures]
    if trace_dir is not None:
        _merge_trace_dir(Path(trace_dir), runs)
    return runs


def _merge_trace_dir(out: Path, runs: Sequence[SuiteRun]) -> None:
    """Fold per-case worker files into suite-level artifacts."""
    with (out / "suite.spans.jsonl").open("w") as fh:
        for run in runs:
            case_file = out / f"{run.name}.spans.jsonl"
            if case_file.exists():
                fh.write(case_file.read_text())
    merged = obs_mod.merge_snapshots(run.metrics for run in runs)
    # Raw samples served their purpose (exact pooled percentiles);
    # drop them from the artifact.
    for hist in merged["histograms"]:
        hist.pop("samples", None)
    (out / "suite.metrics.json").write_text(
        json.dumps(merged, indent=2, sort_keys=True) + "\n"
    )


def _json_safe(value: float) -> Optional[float]:
    """NaN -> None (JSON has no NaN; empty series average is 'absent')."""
    return None if value != value else value


def headline_metrics(result: ExperimentResult) -> dict:
    """The deterministic summary of one result — everything here
    depends only on the scenario, never on wall-clock or worker count
    (what the sequential-vs-parallel equivalence test compares)."""
    return {
        "scenario": result.scenario_name,
        "horizon_reached": result.horizon_reached,
        "elapsed_sim_s": result.elapsed_sim_s,
        "event_count": result.event_count,
        "rpc_count": result.rpc_count,
        "servers": {
            label: {
                "finished_dags": s.finished_dags,
                "total_dags": s.total_dags,
                "avg_dag_completion_s": _json_safe(s.avg_dag_completion_s),
                "avg_job_execution_s": _json_safe(s.avg_job_execution_s),
                "avg_job_idle_s": _json_safe(s.avg_job_idle_s),
                "resubmissions": s.resubmissions,
                "timeouts": s.timeouts,
                "migrations": s.migrations,
                "checkpoint_restores": s.checkpoint_restores,
                "preempted_work_s": s.preempted_work_s,
            }
            for label, s in result.servers.items()
        },
    }


def _nearest_rank(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile over a sorted sample list (the same
    definition :class:`repro.obs.metrics.Histogram` uses, so pooled
    and single-histogram numbers are directly comparable)."""
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def planning_latency_percentiles(
    snapshot: dict,
) -> tuple[Optional[float], Optional[float]]:
    """(p50, p95) of the ``server.planning_latency_s`` histogram in a
    registry snapshot; (None, None) when absent or empty.

    Single-server runs record into the unlabeled histogram.  Federated
    runs record per shard (``shard=<label>``) and leave the unlabeled
    one empty, so when it has no observations this pools the raw
    samples of every labeled sibling instead — the federation-wide
    percentiles (requires the snapshot to carry samples, as suite-run
    snapshots do)."""
    pooled: list[float] = []
    for hist in snapshot.get("histograms", ()):
        if hist["name"] != "server.planning_latency_s":
            continue
        if not hist["labels"]:
            if hist.get("count"):
                return hist.get("p50"), hist.get("p95")
            continue
        pooled.extend(hist.get("samples", ()))
    if not pooled:
        return None, None
    pooled.sort()
    return _nearest_rank(pooled, 50), _nearest_rank(pooled, 95)


_RESERVATION_OUTCOMES = ("confirmed", "rejected", "released", "expired",
                         "cancelled")

#: Counter sections of a case's report: section -> key -> (counter
#: name, ``outcome`` label the counter carries, if any).  A key sums
#: every matching counter (per site, per server), so a section is all
#: zeros when its feature never ran.
_COUNTER_SECTIONS = {
    "reservations": {
        **{outcome: ("site.reservations", outcome)
           for outcome in _RESERVATION_OUTCOMES},
        "backfill_starts": ("site.backfill_starts", None),
    },
    "evictions": {
        # running jobs killed at slot reclaim; evict messages sent off
        # draining sites; attempts planned with a checkpoint resume
        "evictions": ("site.evictions", None),
        "migrations": ("server.migrations", None),
        "checkpoint_restores": ("job.checkpoint_restores", None),
    },
    "federation": {
        "admitted": ("meta.dags_admitted", None),
        "spilled": ("meta.dags_spilled", None),
        "rehomed": ("meta.dags_rehomed", None),
    },
}
_COUNTER_KEYS = {source: (section, key)
                 for section, keys in _COUNTER_SECTIONS.items()
                 for key, source in keys.items()}

_QUANTILES = {"p50": "p50", "p95": "p95", "count": "count"}

#: Histogram sections: section -> (histogram name, the label whose
#: values name the rows, report key -> snapshot field, whether a row
#: with no observations is reported).  Every shard gets its planning-
#: latency row; a server loses work (CPU-seconds of attempt progress
#: discarded per kill, net of checkpoint restores) only once preempted.
_HISTOGRAM_SECTIONS = {
    "shards": ("server.planning_latency_s", "shard", _QUANTILES, True),
    "preemption_loss_s": ("server.preemption_loss_s", "server",
                          {**_QUANTILES, "total_s": "sum"}, False),
}


def project(snapshot: dict) -> dict:
    """The feature sections of one case's report, read off its
    metrics-registry snapshot as :data:`_COUNTER_SECTIONS` and
    :data:`_HISTOGRAM_SECTIONS` say.

    ``reservations`` and ``evictions`` are always there (zeros when the
    feature never ran); a histogram section appears only with a row to
    show, and ``federation`` only beside ``shards`` — routing counts
    mean nothing on a single server."""
    out = {section: dict.fromkeys(keys, 0)
           for section, keys in _COUNTER_SECTIONS.items()}
    for counter in snapshot.get("counters", ()):
        section_key = _COUNTER_KEYS.get(
            (counter["name"], counter["labels"].get("outcome")))
        if section_key is not None:
            section, key = section_key
            out[section][key] += int(counter["value"])
    histograms = snapshot.get("histograms", ())
    for section, (name, label, fields,
                  keep_empty) in _HISTOGRAM_SECTIONS.items():
        rows = {
            hist["labels"][label]: {key: hist[field]
                                    for key, field in fields.items()}
            for hist in histograms
            if hist["name"] == name and label in hist["labels"]
            and (keep_empty or hist["count"])
        }
        if rows:
            out[section] = dict(sorted(rows.items()))
    if "shards" not in out:
        del out["federation"]
    return out


def suite_payload(runs: Sequence[SuiteRun], scale: float,
                  workers: int) -> dict:
    """The BENCH_SUITE.json document for one suite invocation."""
    figures = {}
    for run in runs:
        lat_p50, lat_p95 = planning_latency_percentiles(run.metrics)
        figures[run.name] = {
            "wall_s": run.wall_s,
            "events_per_s": (run.result.event_count / run.wall_s
                             if run.wall_s > 0 else None),
            "rss_mb": run.rss_mb,
            "planning_latency_p50_s": lat_p50,
            "planning_latency_p95_s": lat_p95,
            **project(run.metrics),
            **headline_metrics(run.result),
        }
    return {
        "schema": SCHEMA,
        "scale": scale,
        "workers": workers,
        "cases": [run.name for run in runs],
        "total_wall_s": sum(run.wall_s for run in runs),
        "total_events": sum(run.result.event_count for run in runs),
        "figures": figures,
    }
