"""Command-line interface: run paper experiments from the shell.

Usage::

    python -m repro fig2 [--dags 30] [--seed 42]
    python -m repro fig345 --dags 60
    python -m repro fig6
    python -m repro fig7
    python -m repro fig8
    python -m repro suite [--workers 4] [--scale 0.25] [--only fig2 ...]
    python -m repro suite --progress --stream-spans ...
    python -m repro trace fig2 [--dags 4] [--out traces] [--stream]
    python -m repro list-algorithms

Each figure command runs the corresponding experiment and prints the
paper-style table to stdout.  ``suite`` runs every figure plus the
ablations — fanned over a process pool — and writes BENCH_SUITE.json
(per-figure wall-clock, kernel event counts, events/second, headline
metrics); metrics are bit-identical at any worker count.  ``trace``
runs one figure scenario with full observability on and writes the
span JSONL, a Perfetto-loadable Chrome trace, and a Markdown summary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional, Sequence

from repro.core.algorithms import available_algorithms
from repro.experiments import (
    default_suite,
    eviction_suite,
    federation_suite,
    format_table,
    run_scenario,
    run_suite,
    scale_suite,
    suite_payload,
)
from repro.experiments.figures import (
    ext_eviction_scenario,
    fig2_scenario,
    fig345_scenario,
    fig6_scenario,
    fig6_tables,
    fig7_scenario,
    fig8_scenario,
)

__all__ = ["main"]

#: scenario builders by name, each called ``(n_dags, seed, horizon_s=)``:
#: a figure subcommand runs its own, ``trace`` and ``chaos`` take any
#: (ext-eviction keeps its 250-site catalog; ``--dags`` sets the DAGs)
SCENARIOS = {
    "fig2": fig2_scenario,
    "fig345": fig345_scenario,
    "fig6": fig6_scenario,
    "fig7": fig7_scenario,
    "fig8": fig8_scenario,
    "ext-eviction": lambda n_dags, seed, horizon_s: ext_eviction_scenario(
        n_dags=n_dags, seed=seed, horizon_s=horizon_s),
}


def _add_common(p: argparse.ArgumentParser, default_dags: int) -> None:
    p.add_argument("--dags", type=int, default=default_dags,
                   help=f"number of DAGs (paper: {default_dags})")
    p.add_argument("--seed", type=int, default=42, help="experiment seed")
    p.add_argument("--horizon-hours", type=float, default=36.0,
                   help="simulation horizon in hours")


def _add_scenario(p: argparse.ArgumentParser) -> None:
    """The arguments ``trace`` and ``chaos`` pick their scenario with
    (read back by :func:`_scenario_from_args`)."""
    p.add_argument("scenario",
                   choices=sorted(SCENARIOS) + ["ext-federation"],
                   help="which figure scenario to run (ext-federation: "
                        "meta + N shards; --dags becomes DAGs per user)")
    _add_common(p, 4)
    p.add_argument(
        "--shards", type=int, default=3, metavar="N",
        help="ext-federation only: number of peer shards (default: 3)")
    p.add_argument(
        "--submit-interval", type=float, default=300.0, metavar="S",
        help="ext-federation only: stagger DAG submissions this many "
             "sim seconds apart so admissions overlap fault windows "
             "(default: 300; 0 = submit everything at t=0)")


def _scenario_from_args(args, horizon: float):
    if args.scenario == "ext-federation":
        from repro.federation import ext_federation_scenario

        return ext_federation_scenario(
            n_shards=args.shards, dags_per_user=args.dags,
            seed=args.seed, horizon_s=horizon,
            submit_interval_s=args.submit_interval,
        )
    return SCENARIOS[args.scenario](args.dags, args.seed, horizon_s=horizon)


def _parse_scale_size(spec: str) -> tuple[int, int]:
    """'250x10000' -> (250, 10000) for ``suite --ext-scale``."""
    try:
        sites_s, jobs_s = spec.lower().split("x")
        sites, jobs = int(sites_s), int(jobs_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{spec!r} is not SITESxJOBS (e.g. 250x10000)")
    if sites < 1 or jobs < 10:
        raise argparse.ArgumentTypeError(
            f"{spec!r}: need >= 1 site and >= 10 jobs")
    return sites, jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPHINX reproduction: regenerate the paper's figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("fig2", help="feedback effect"), 30)
    _add_common(sub.add_parser(
        "fig345", help="four-way algorithm comparison"), 30)
    _add_common(sub.add_parser(
        "fig6", help="site-wise distribution vs avg completion"), 120)
    _add_common(sub.add_parser("fig7", help="policy-constrained runs"), 120)
    _add_common(sub.add_parser("fig8", help="timeout counts"), 120)
    suite = sub.add_parser(
        "suite", help="run every figure + ablation; write BENCH_SUITE.json")
    suite.add_argument(
        "--workers", type=int, default=max(os.cpu_count() or 1, 1),
        help="worker processes (default: CPU count; 1 = in-process)")
    suite.add_argument(
        "--scale", type=float,
        default=float(os.environ.get("REPRO_BENCH_SCALE", "1.0")),
        help="workload scale factor (default: $REPRO_BENCH_SCALE or 1.0)")
    suite.add_argument("--seed", type=int, default=42, help="experiment seed")
    suite.add_argument(
        "--output", default="BENCH_SUITE.json",
        help="where to write the JSON report (default: BENCH_SUITE.json)")
    suite.add_argument(
        "--ext-scale", nargs="*", default=None, metavar="SITESxJOBS",
        type=_parse_scale_size,
        help="also run extreme-scale cases, e.g. --ext-scale 250x10000 "
             "2500x100000 (synthetic catalog, batched background; "
             "job counts shrink with --scale)")
    suite.add_argument(
        "--ext-eviction", action="store_true",
        help="also run the eviction-tolerance case: kill-and-resubmit "
             "vs checkpoint+migrate under the spot-eviction chaos "
             "preset (migration counts and preemption-loss percentiles "
             "land in the report; an invariant violation fails the "
             "suite)")
    suite.add_argument(
        "--shards", nargs="*", default=None, metavar="N", type=int,
        help="also run federated cases, e.g. --shards 3 10: a "
             "meta-scheduler routing DAGs over N peer SPHINX shards "
             "(per-shard planning-latency percentiles land in the "
             "report's 'shards' section)")
    suite.add_argument(
        "--only", nargs="*", default=None, metavar="CASE",
        help="run only cases whose name starts with one of these "
             "(e.g. fig2 fig5 ablation)")
    suite.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="also collect spans per case and write per-case + merged "
             "trace artifacts into DIR")
    suite.add_argument(
        "--progress", action="store_true",
        help="emit a live wall-clock heartbeat per case: stderr lines "
             "plus <case>.heartbeat.jsonl under --trace-dir (progress, "
             "events/s, RSS, stall detection)")
    suite.add_argument(
        "--progress-interval", type=float, default=5.0, metavar="S",
        help="heartbeat period in wall seconds (default: 5)")
    suite.add_argument(
        "--stream-spans", action="store_true",
        help="with --trace-dir: flush closed spans to the per-case "
             "JSONL incrementally instead of retaining them in memory "
             "(skips the Chrome trace, which needs the full span list)")
    trace = sub.add_parser(
        "trace", help="run one scenario fully instrumented; write "
                      "span JSONL + Chrome trace + summary")
    _add_scenario(trace)
    trace.add_argument(
        "--out", default="traces", metavar="DIR",
        help="output directory (default: traces/)")
    trace.add_argument(
        "--telemetry-interval", type=float, default=60.0, metavar="S",
        help="site telemetry sampling period in sim seconds "
             "(default: 60)")
    trace.add_argument(
        "--stream", action="store_true",
        help="stream closed spans straight to the JSONL (bounded "
             "tracer memory; skips the Chrome trace)")
    trace.add_argument(
        "--max-open", type=int, default=None, metavar="N",
        help="with --stream: evict the oldest open span past N "
             "(backstop against span leaks on huge runs)")
    chaos = sub.add_parser(
        "chaos", help="run one scenario under a deterministic fault plan "
                      "and audit end-state invariants")
    _add_scenario(chaos)
    chaos.add_argument(
        "--plan", default="full", metavar="PLAN",
        help="preset plan name (see repro.chaos.PRESET_PLANS) or "
             "'random' for a seeded random plan (default: full)")
    chaos.add_argument(
        "--plan-seed", type=int, default=None, metavar="N",
        help="seed for the fault schedule (default: --seed)")
    chaos.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the full JSON report here")
    sub.add_parser("list-algorithms", help="show available algorithms")
    return parser


def _print_lineup(result) -> None:
    rows = []
    for label, s in result.servers.items():
        rows.append([label, f"{s.finished_dags}/{s.total_dags}",
                     s.avg_dag_completion_s, s.avg_job_execution_s,
                     s.avg_job_idle_s, s.resubmissions, s.timeouts])
    print(format_table(
        ["strategy", "dags", "avg dag (s)", "avg exec (s)",
         "avg idle (s)", "resubs", "timeouts"],
        rows,
    ))


def _run_suite_command(args) -> int:
    if args.workers < 1:
        print("repro suite: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.stream_spans and not args.trace_dir:
        print("repro suite: --stream-spans requires --trace-dir",
              file=sys.stderr)
        return 2
    if not 0 < args.progress_interval < math.inf:
        print("repro suite: --progress-interval must be > 0 and finite",
              file=sys.stderr)
        return 2
    cases = default_suite(scale=args.scale, seed=args.seed)
    if args.ext_scale:
        cases += scale_suite(args.ext_scale, seed=args.seed,
                             scale=args.scale)
    if args.shards:
        cases += federation_suite(args.shards, seed=args.seed,
                                  scale=args.scale)
    if args.ext_eviction:
        cases += eviction_suite(scale=args.scale, seed=args.seed)
    if args.only:
        cases = tuple(
            c for c in cases
            if any(c.name.startswith(prefix) for prefix in args.only)
        )
        if not cases:
            print(f"no suite cases match {args.only}", file=sys.stderr)
            return 2
    runs = run_suite(cases, workers=args.workers,
                     trace_dir=args.trace_dir,
                     stream_spans=args.stream_spans,
                     progress_interval=(args.progress_interval
                                        if args.progress else None))
    payload = suite_payload(runs, scale=args.scale, workers=args.workers)

    rows = []
    for run in runs:
        fig = payload["figures"][run.name]
        best = min(
            (s for s in fig["servers"].values()
             if s["avg_dag_completion_s"] is not None),
            key=lambda s: s["avg_dag_completion_s"],
            default=None,
        )
        rows.append([
            run.name,
            f"{run.wall_s:.2f}",
            fig["event_count"],
            f"{fig['events_per_s']:.0f}" if fig["events_per_s"] else "-",
            f"{best['avg_dag_completion_s']:.0f}" if best else "-",
        ])
    print(format_table(
        ["case", "wall (s)", "events", "events/s", "best avg dag (s)"],
        rows,
        title=(f"suite: {len(runs)} cases, scale={args.scale:g}, "
               f"workers={args.workers}, "
               f"total wall {payload['total_wall_s']:.1f}s"),
    ))
    for run in runs:
        fig = payload["figures"][run.name]
        ev = fig.get("evictions", {})
        if not any(ev.values()):
            continue
        loss = ", ".join(
            f"{label}: lost {s['preempted_work_s']:.0f}s "
            f"over {s['migrations']} migrations"
            for label, s in fig["servers"].items()
        )
        print(f"{run.name}: evictions={ev['evictions']} "
              f"checkpoint_restores={ev['checkpoint_restores']} | {loss}")
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")
    if args.trace_dir:
        print(f"wrote trace artifacts under {args.trace_dir}/")
    return 0


def _run_trace_command(args, horizon: float) -> int:
    from pathlib import Path

    from repro import obs as obs_mod
    from repro.federation.runner import run_topology
    from repro.obs.export import summary_markdown, write_trace_pair

    if not 0 < args.telemetry_interval < math.inf:
        print("repro trace: --telemetry-interval must be > 0 and finite",
              file=sys.stderr)
        return 2
    if args.max_open is not None and not args.stream:
        print("repro trace: --max-open requires --stream", file=sys.stderr)
        return 2
    scenario = _scenario_from_args(args, horizon)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sink = None
    if args.stream:
        from repro.obs.export import JsonlSpanSink

        sink = JsonlSpanSink(out / f"{scenario.name}.spans.jsonl")
    obs = obs_mod.Obs(obs_mod.ObsConfig(
        spans=True, sample_sites=True,
        telemetry_interval_s=args.telemetry_interval,
        span_sink=sink, max_open_spans=args.max_open,
    ))
    result, _ = run_topology(scenario, obs=obs)

    spans = write_trace_pair(obs, out, scenario.name, result.elapsed_sim_s)
    wrote = ["spans.jsonl", "summary.md"]
    if not args.stream:
        wrote.insert(1, "trace.json")
    summary = summary_markdown(
        obs.metrics, spans,
        title=f"Trace summary: {scenario.name}",
    )
    (out / f"{scenario.name}.summary.md").write_text(summary + "\n")

    print(summary)
    print(f"sim elapsed: {result.elapsed_sim_s:.0f} s, "
          f"kernel events: {result.event_count}, "
          f"rpc calls: {result.rpc_count}")
    if args.stream and obs.tracer.evicted:
        print(f"note: {obs.tracer.evicted} open spans evicted by "
              f"--max-open {args.max_open}", file=sys.stderr)
    for suffix in wrote:
        print(f"wrote {out / f'{scenario.name}.{suffix}'}")
    return 0


def _run_chaos_command(args, horizon: float) -> int:
    import json
    from pathlib import Path

    # Lazy import: ordinary figure runs never load the chaos layer.
    from repro.chaos import PRESET_PLANS, make_plan, random_plan, run_chaos

    plan_seed = args.plan_seed if args.plan_seed is not None else args.seed
    if args.plan == "random":
        plan = random_plan(plan_seed, horizon_s=horizon)
    elif args.plan in PRESET_PLANS:
        plan = make_plan(args.plan, plan_seed)
    else:
        print(f"repro chaos: unknown plan {args.plan!r}; presets: "
              f"{', '.join(sorted(PRESET_PLANS))}, random",
              file=sys.stderr)
        return 2
    res = run_chaos(_scenario_from_args(args, horizon), plan)
    print(res.format_text())
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(res.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {path}")
    return 0 if res.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run_command(args)
    except ValueError as exc:
        # A number argparse's types let through (0, negative, NaN) is
        # refused where the scenario, plan or suite is built.
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


def _run_command(args) -> int:
    horizon = getattr(args, "horizon_hours", 36.0) * 3600.0

    if args.command == "list-algorithms":
        for name in available_algorithms():
            print(name)
        return 0

    if args.command == "suite":
        return _run_suite_command(args)

    if args.command == "trace":
        return _run_trace_command(args, horizon)

    if args.command == "chaos":
        return _run_chaos_command(args, horizon)

    result = run_scenario(
        SCENARIOS[args.command](args.dags, args.seed, horizon_s=horizon))
    if args.command == "fig6":
        tables, correlations = fig6_tables(result)
        for label, rows in tables.items():
            print(format_table(
                ["site", "# jobs", "avg completion (s)"],
                [[s, j, a] for s, j, a in rows],
                title=f"{label}: Spearman r = {correlations[label]:+.2f}",
            ))
            print()
    elif args.command == "fig8":
        rows = [[label, s.resubmissions, s.timeouts]
                for label, s in result.servers.items()]
        print(format_table(["strategy", "resubmissions", "timeouts"], rows))
    else:
        _print_lineup(result)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
