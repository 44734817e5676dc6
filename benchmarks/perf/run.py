"""The repo's benchmark: one command, five workloads, every metric by name.

    python3 benchmarks/perf/run.py                       # all workloads, end to end
    python3 benchmarks/perf/run.py --traced              # ... plus the per-layer run
    python3 benchmarks/perf/run.py --baseline            # ... and rewrite BASELINE.{json,md}
    python3 benchmarks/perf/run.py --compare A.json B.json
    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

The last form is the driver's contract (see BENCHMARK.json at the repo
root, which also declares the workload names, the metrics, their units
and their bounds — this file reads them from there): it prints one JSON
object as the last line of stdout.

Each repeat of a workload is a fresh ``child.py`` process; a run keeps
starting repeats until ``--seconds`` are used up.  Host timings report
the fastest repeat (see ``BEST``), everything else the median.
Two clocks, always labelled: *host* time is what the Python process
costs, *sim* time is what the modelled grid does.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: an untraced run always makes this many repeats, so the
#: same-digest-on-every-repeat check has something to compare
MIN_REPEATS = 2
#: The box is a few cores of a shared host: a neighbour only ever *adds*
#: time, in bursts of up to half a minute that can cover most of a run,
#: so the median repeat measures the neighbour (22 % inter-quartile spread
#: between runs of one commit) while the fastest repeat measures the
#: program (2-6 %; README.md).  Metrics not named here report the median.
BEST = {"setup_s": min, "wall_s": min, "jobs_per_s": max}
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


# -- one workload, one seed ----------------------------------------------------
def spawn(workload: str, seed: int, base_seed: int | None, mode: str,
          toy: bool) -> dict:
    """Run one repeat in a fresh child process; its JSON result."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if base_seed is not None:
        cmd += ["--base-seed", str(base_seed)]
    if toy:
        cmd.append("--toy")
    # A fixed hash seed pins set/dict layout, one source of run-to-run
    # host-time scatter; the simulation itself does not depend on it.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: {mode} child exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, traced: bool,
            base_seed: int | None = None, toy: bool = False) -> dict:
    """Repeat ``workload`` for ``seconds`` of host time.

    Untraced: bare repeats only.  Traced: cycles bare -> traced -> obs
    (at least one full cycle), so the per-layer numbers, the tracing
    overhead and the obs overhead all come from neighbouring runs.
    """
    cycle = ("bare", "traced", "obs") if traced else ("bare",)
    minimum = len(cycle) if traced else MIN_REPEATS
    runs: dict[str, list[dict]] = {mode: [] for mode in cycle}
    cost: dict[str, float] = {}
    start = time.perf_counter()
    n = 0
    while True:
        mode = cycle[n % len(cycle)]
        began = time.perf_counter()
        if n >= minimum and began - start + cost[mode] > seconds:
            break
        runs[mode].append(spawn(workload, seed, base_seed, mode, toy))
        # the next repeat is expected to cost what an undisturbed one did:
        # one slow repeat must not end the run while a neighbour is busy
        cost[mode] = min(cost.get(mode, float("inf")),
                         time.perf_counter() - began)
        n += 1

    every = [r for rs in runs.values() for r in rs]
    problems = []
    if len({r["sim_digest"] for r in every}) != 1:
        problems.append("sim_digest differs between repeats "
                        "(bare, traced and obs runs must model the same grid)")
    attempted = failed = 0
    for r in every:
        attempted += r["dags_attempted"]
        # an audit violation fails the whole repeat
        failed += (r["dags_attempted"] if r["violations"]
                   else r["dags_attempted"] - r["dags_finished"])
    if any(r["violations"] for r in every):
        problems.append("invariant violations reported by run_chaos")
    if any(r["horizon_reached"] for r in every):
        problems.append("horizon reached before every DAG finished")
    if failed:
        problems.append(f"{failed} of {attempted} DAGs failed")

    declared = PER_LAYER if traced else END_TO_END
    values = per_layer(runs) if traced else end_to_end(runs["bare"])
    missing = sorted(set(declared) - set(values))
    if missing:
        problems.append(f"declared metrics not measured: {missing}")
    first = runs["bare"][0]
    return {
        "workload": workload, "seed": seed, "base_seed": first["base_seed"],
        "traced": traced, "repeats": {m: len(rs) for m, rs in runs.items()},
        "attempted": attempted, "failed": failed, "problems": problems,
        "sim_digest": first["sim_digest"], "events": first["events"],
        "rpcs": first["rpcs"],
        "metrics": {name: {**values[name], "unit": declared[name]["unit"]}
                    for name in declared if name in values},
        "edges": runs["traced"][-1]["edges"] if traced else [],
    }


def _summary(name: str, samples: list[float]) -> dict:
    value = BEST.get(name, statistics.median)(samples)
    return {"value": value, "min": min(samples), "max": max(samples),
            "samples": samples}


def end_to_end(bare: list[dict]) -> dict:
    samples = {name: [r[name] for r in bare]
               for name in END_TO_END if name != "jobs_per_s"}
    samples["jobs_per_s"] = [r["jobs_finished"] / r["wall_s"] for r in bare]
    return {name: _summary(name, s) for name, s in samples.items()}


def per_layer(runs: dict[str, list[dict]]) -> dict:
    bare, traced, obs = runs["bare"], runs["traced"], runs["obs"]
    first = bare[0]
    wall_s = statistics.median(r["wall_s"] for r in bare)
    samples: dict[str, list[float]] = {}
    for r in traced:
        for name, value in r["layers"].items():
            samples.setdefault(name, []).append(value)
    for name in PER_LAYER:  # exact per seed: straight from the run's summary
        if name in first:
            samples[name] = [first[name]]
    samples["sim.events"] = [first["events"]]
    samples["sim.us_per_event"] = [r["wall_s"] / r["events"] * 1e6 for r in bare]
    samples["host.cpu_s"] = [r["cpu_s"] for r in bare]
    samples["host.gc_collections"] = [r["gc_collections"] for r in bare]
    samples["host.trace_overhead_frac"] = [r["wall_s"] / wall_s - 1 for r in traced]
    samples["host.unattributed_frac"] = [
        r["layers"]["sim.run.self_ms"] / 1e3 / r["wall_s"] for r in traced]
    samples["obs.metrics_overhead_frac"] = [r["wall_s"] / wall_s - 1 for r in obs]
    return {name: _summary(name, s) for name, s in samples.items()}


# -- the contract: one JSON object, last line of stdout -------------------------
def contract(args) -> int:
    m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in m["problems"]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not m["problems"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {name: {"value": s["value"], "unit": s["unit"]}
                    for name, s in m["metrics"].items()},
    }))
    return 0


# -- the suite: every workload, every metric, printed by name -------------------
def fingerprint() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # not a git checkout
    return {
        "nproc": os.cpu_count(), "cpu": model,
        "python": platform.python_version(), "platform": platform.platform(),
        "git_commit": commit,
    }


def print_metrics(m: dict) -> None:
    print(f"\n{m['workload']}  seed={m['seed']} base_seed={m['base_seed']}  "
          f"dags_attempted={m['attempted']} failed={m['failed']}  "
          f"repeats={m['repeats']}  events={m['events']} rpcs={m['rpcs']}  "
          f"sim_digest={m['sim_digest'][:16]}")
    for name, s in m["metrics"].items():
        print(f"  {name:<46} {s['value']:>14.6g} {s['unit']:<8} "
              f"R={len(s['samples'])} min={s['min']:.6g} max={s['max']:.6g}")


def suite(args) -> int:
    names = WORKLOADS + list(END_TO_END) + list(PER_LAYER)
    bad = [n for n in names if not NAME_RE.fullmatch(n)]
    if bad:
        raise SystemExit(f"names outside [A-Za-z0-9_.-]+: {bad}")
    traced = args.traced or args.baseline
    out = {"fingerprint": fingerprint(), "seed": args.seed,
           "seconds": args.seconds, "workloads": {}}
    failures = []
    for workload in WORKLOADS:
        entry = out["workloads"][workload] = {}
        for key, want in (("end_to_end", False), ("per_layer", True)):
            if want and not traced:
                continue
            m = measure(workload, args.seed, args.seconds, want, args.base_seed)
            print_metrics(m)
            failures += [f"{workload}: {p}" for p in m["problems"]]
            entry[key] = m
    out_path = HERE / "BASELINE.json" if args.baseline else Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"\nwrote {out_path}")
    if args.baseline:
        (HERE / "BASELINE.md").write_text(render_baseline(out))
        print(f"wrote {HERE / 'BASELINE.md'}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


def render_baseline(out: dict) -> str:
    fp = out["fingerprint"]
    lines = [
        "# Benchmark baseline",
        "",
        "Generated by `python3 benchmarks/perf/run.py --baseline` from "
        "`BASELINE.json`; do not edit.",
        "",
        f"Machine: {fp['nproc']} x {fp['cpu']}, Python {fp['python']}, "
        f"{fp['platform']}; commit `{fp['git_commit']}`; `--seed {out['seed']}`, "
        f"`--seconds {out['seconds']}`.",
        "",
        "## End to end (R untraced repeats: fastest for setup_s, wall_s and "
        "jobs_per_s, median for the rest; min-max)",
        "",
        "| workload | R | " + " | ".join(
            f"{n} [{m['unit']}]" for n, m in END_TO_END.items()) + " |",
        "|---|---|" + "---|" * len(END_TO_END),
    ]
    for workload, entry in out["workloads"].items():
        m = entry["end_to_end"]
        cells = [f"{s['value']:.4g} ({s['min']:.4g}-{s['max']:.4g})"
                 for s in m["metrics"].values()]
        lines.append(f"| `{workload}` | {m['repeats']['bare']} | "
                     + " | ".join(cells) + " |")
    lines += ["", "## Per layer (traced run; self time carries the tracing "
              "overhead: attribution, not speed)", ""]
    for workload, entry in out["workloads"].items():
        value = {n: s["value"]
                 for n, s in entry["per_layer"]["metrics"].items()}
        self_ms = {n[:-len(".self_ms")]: v
                   for n, v in value.items() if n.endswith(".self_ms")}
        total = sum(self_ms.values())
        lines += [
            f"### `{workload}`",
            "",
            f"events {value['sim.events']:.0f}, {value['sim.us_per_event']:.1f} "
            f"us/event untraced; `host.unattributed_frac` "
            f"{value['host.unattributed_frac']:.3f}, `host.trace_overhead_frac` "
            f"{value['host.trace_overhead_frac']:.3f}, `obs.metrics_overhead_frac` "
            f"{value['obs.metrics_overhead_frac']:.3f}",
            "",
            "| span | calls | self_ms | share of traced wall |",
            "|---|---|---|---|",
        ]
        top = sorted(self_ms.items(), key=lambda kv: -kv[1])[:8]
        for span, ms in top:
            calls = value.get(f"{span}.calls", 1)  # the two root spans
            lines.append(f"| `{span}` | {calls:.0f} | {ms:.1f} | {ms / total:.1%} |")
        lines.append("")
    return "\n".join(lines)


# -- compare two suite outputs --------------------------------------------------
def _spread(samples: list[float]) -> float:
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    status_count = {"ok": 0, "regressed": 0, "unresolved": 0}
    sim_changed = False
    print(f"{'workload':<16} {'metric':<16} {'A':>12} {'B':>12} "
          f"{'worse by':>9} {'bound':>6}  status")
    for workload in WORKLOADS:
        ma = a["workloads"][workload]["end_to_end"]
        mb = b["workloads"][workload]["end_to_end"]
        if (ma["seed"], ma["base_seed"]) == (mb["seed"], mb["base_seed"]) \
                and ma["sim_digest"] != mb["sim_digest"]:
            sim_changed = True
            print(f"{workload:<16} sim_digest differs at equal seed: "
                  f"{ma['sim_digest'][:16]} vs {mb['sim_digest'][:16]}")
        for name, decl in END_TO_END.items():
            sa, sb = ma["metrics"][name], mb["metrics"][name]
            sign = 1.0 if decl["better"] == "lower" else -1.0
            worse_by = sign * (sb["value"] - sa["value"]) / sa["value"]
            bound = decl["bound"]
            noisy = max(_spread(sa["samples"]), _spread(sb["samples"])) > bound
            if sign > 0:
                b_always_better = sb["max"] < sa["min"]
                interleave = sb["min"] <= sa["max"]
            else:
                b_always_better = sb["min"] > sa["max"]
                interleave = sb["max"] >= sa["min"]
            if worse_by > bound:
                status = "unresolved" if noisy and interleave else "regressed"
            elif noisy and not b_always_better:
                status = "unresolved"
            else:
                status = "ok"
            status_count[status] += 1
            print(f"{workload:<16} {name:<16} {sa['value']:>12.5g} "
                  f"{sb['value']:>12.5g} {worse_by:>+9.2%} {bound:>6.0%}  {status}")
    print(f"\n{status_count}  sim_changed: {str(sim_changed).lower()}")
    return 1 if status_count["regressed"] or sim_changed else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload and print the contract's JSON line")
    ap.add_argument("--seed", type=int, default=42,
                    help="picks the member of the perturbed-input ensemble")
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="host seconds each workload measures for")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 = the per-layer (traced) run")
    ap.add_argument("--traced", action="store_true",
                    help="suite: also make the per-layer run of every workload")
    ap.add_argument("--base-seed", type=int, default=None,
                    help="suite: scenario seed (default 42; 7 is held back)")
    ap.add_argument("--out", default=str(HERE / "out" / "latest.json"),
                    help="suite: where the results go")
    ap.add_argument("--baseline", action="store_true",
                    help="suite: traced, and rewrite BASELINE.json/BASELINE.md")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'} missing")
    # byte-compile up front so no repeat pays (or times) .pyc writes
    for tree in (ROOT / "src", HERE):
        compileall.compile_dir(str(tree), quiet=2)
    return contract(args) if args.workload else suite(args)


if __name__ == "__main__":
    sys.exit(main())
