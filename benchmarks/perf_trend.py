"""CI perf trajectory: append a suite run to BENCH_TREND.json, compare.

Reads one ``BENCH_SUITE.json`` (written by ``repro suite``), appends a
compact per-case record (events/s, wall-clock, event count) to a
``BENCH_TREND.json`` history file persisted across CI runs, and
compares against the most recent *comparable* previous entry — same
scale and control plane, since wall-clock at 10% workload says nothing
about full scale.  Exits 1 when any case's ``wall_s`` grows by more
than the threshold (default 20%) or its peak RSS grows by more than
``--rss-threshold`` (default 30%) — the memory axis the flight
recorder exists to keep bounded.

Markdown comparison lines go to stdout so CI can append them to the
step summary::

    python benchmarks/perf_trend.py \
        --suite BENCH_SUITE.json --trend BENCH_TREND.json \
        >> "$GITHUB_STEP_SUMMARY"

Simulation *metrics* are deterministic and covered by golden tests;
this guards the other axis — the wall-clock cost of a fixed case, the
thing the extreme-scale optimizations bought.  The gate is on
``wall_s``, not events/s: an optimisation that removes kernel events
(the same simulated work from fewer of them) lowers events/s while the
case gets faster.  Events/s and the event count stay in the table as
information, so a slowdown can be told apart from a workload change.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

__all__ = ["append_run", "compare", "main"]

#: BENCH_TREND.json schema identifier; bump on breaking changes.
SCHEMA = "repro-bench-trend/v1"

DEFAULT_THRESHOLD = 0.20
DEFAULT_RSS_THRESHOLD = 0.30
DEFAULT_MAX_ENTRIES = 100


def _entry_from_suite(suite: dict, timestamp: float) -> dict:
    """The compact trend record for one suite run."""
    return {
        "timestamp": timestamp,
        "scale": suite.get("scale"),
        "control_plane": suite.get("control_plane", "push"),
        "shards": suite.get("shards", []),
        "workers": suite.get("workers"),
        "cases": {
            name: {
                "events_per_s": fig.get("events_per_s"),
                "wall_s": fig.get("wall_s"),
                "event_count": fig.get("event_count"),
                "rss_mb": fig.get("rss_mb"),
            }
            for name, fig in suite.get("figures", {}).items()
        },
    }


def _comparable(entry: dict, other: dict) -> bool:
    # Shard counts change the per-case workloads (federated cases only
    # exist with --shards), so runs with different --shards sets are
    # different experiments, not a trend.
    return (entry.get("scale") == other.get("scale")
            and entry.get("control_plane") == other.get("control_plane")
            and entry.get("shards", []) == other.get("shards", []))


def compare(entry: dict, previous: dict | None,
            threshold: float = DEFAULT_THRESHOLD,
            rss_threshold: float = DEFAULT_RSS_THRESHOLD,
            ) -> tuple[list[str], list[str]]:
    """(markdown lines, regression descriptions) for one new entry.

    A case regresses when its ``wall_s`` grows by more than
    ``threshold`` or its peak RSS grows by more than ``rss_threshold``
    relative to the previous comparable run.  Cases new to the suite
    (or with the relevant number missing on either side) are reported
    but never fail the build.  Events/s and event count are shown, not
    gated.
    """
    lines = ["| case | wall (s) | previous | delta | events/s | events "
             "| rss (MB) | delta |",
             "|---|---:|---:|---:|---:|---:|---:|---:|"]
    regressions: list[str] = []
    prev_cases = previous["cases"] if previous else {}
    for name, case in sorted(entry["cases"].items()):
        now = case.get("wall_s")
        before = prev_cases.get(name, {}).get("wall_s")
        rate = case.get("events_per_s")
        events = case.get("event_count")
        info = (f"{'-' if rate is None else f'{rate:.0f}'} "
                f"| {'-' if events is None else events}")
        rss_now = case.get("rss_mb")
        rss_before = prev_cases.get(name, {}).get("rss_mb")
        rss_cell, rss_delta_cell = "-", "-"
        if rss_now:
            rss_cell = f"{rss_now:.0f}"
            if rss_before:
                rss_delta = rss_now / rss_before - 1.0
                rss_delta_cell = f"{rss_delta:+.1%}"
                if rss_delta > rss_threshold:
                    rss_delta_cell += " :warning:"
                    regressions.append(
                        f"{name}: {rss_now:.0f} MB RSS vs "
                        f"{rss_before:.0f} MB ({rss_delta:+.1%}, "
                        f"threshold +{rss_threshold:.0%})"
                    )
        if now is None or before is None or before <= 0:
            lines.append(
                f"| {name} | {'-' if now is None else f'{now:.2f}'} | - "
                f"| new | {info} | {rss_cell} | {rss_delta_cell} |")
            continue
        delta = now / before - 1.0
        flag = ""
        if delta > threshold:
            flag = " :warning:"
            regressions.append(
                f"{name}: {now:.2f} s wall vs {before:.2f} s "
                f"({delta:+.1%}, threshold +{threshold:.0%})"
            )
        lines.append(f"| {name} | {now:.2f} | {before:.2f} "
                     f"| {delta:+.1%}{flag} | {info} | {rss_cell} "
                     f"| {rss_delta_cell} |")
    return lines, regressions


def append_run(suite: dict, trend: dict | None,
               threshold: float = DEFAULT_THRESHOLD,
               rss_threshold: float = DEFAULT_RSS_THRESHOLD,
               max_entries: int = DEFAULT_MAX_ENTRIES,
               timestamp: float | None = None,
               ) -> tuple[dict, list[str], list[str]]:
    """Fold one suite run into the trend document.

    Returns ``(new_trend, markdown_lines, regressions)``; the caller
    persists ``new_trend`` and fails the build when ``regressions`` is
    non-empty.
    """
    if trend is None or trend.get("schema") != SCHEMA:
        trend = {"schema": SCHEMA, "entries": []}
    entry = _entry_from_suite(
        suite, time.time() if timestamp is None else timestamp
    )
    previous = next(
        (e for e in reversed(trend["entries"]) if _comparable(entry, e)),
        None,
    )
    lines, regressions = compare(entry, previous, threshold, rss_threshold)
    entries = (trend["entries"] + [entry])[-max_entries:]
    return {"schema": SCHEMA, "entries": entries}, lines, regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="append a suite run to the perf trend; "
                    "exit 1 on wall-clock regression")
    parser.add_argument("--suite", default="BENCH_SUITE.json",
                        help="suite report to ingest")
    parser.add_argument("--trend", default="BENCH_TREND.json",
                        help="trend history file (created if absent)")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help="fractional wall_s growth that fails "
                             "(default: 0.20)")
    parser.add_argument("--rss-threshold", type=float,
                        default=DEFAULT_RSS_THRESHOLD,
                        help="fractional peak-RSS growth that fails "
                             "(default: 0.30)")
    parser.add_argument("--max-entries", type=int,
                        default=DEFAULT_MAX_ENTRIES,
                        help="history entries to keep (default: 100)")
    args = parser.parse_args(argv)
    if args.threshold <= 0:
        print("perf_trend: --threshold must be > 0",
              file=sys.stderr)
        return 2
    if args.rss_threshold <= 0:
        print("perf_trend: --rss-threshold must be > 0",
              file=sys.stderr)
        return 2

    suite = json.loads(Path(args.suite).read_text())
    trend_path = Path(args.trend)
    trend = (json.loads(trend_path.read_text())
             if trend_path.exists() else None)

    new_trend, lines, regressions = append_run(
        suite, trend, threshold=args.threshold,
        rss_threshold=args.rss_threshold,
        max_entries=args.max_entries,
    )
    trend_path.write_text(json.dumps(new_trend, indent=2) + "\n")

    n = len(new_trend["entries"])
    print(f"### Perf trajectory (run {n}, scale "
          f"{suite.get('scale')}, wall_s threshold "
          f"+{args.threshold:.0%})")
    print()
    print("\n".join(lines))
    if regressions:
        print()
        print("**regressions:**")
        for r in regressions:
            print(f"- {r}")
        print(f"perf_trend: {len(regressions)} case(s) regressed",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
