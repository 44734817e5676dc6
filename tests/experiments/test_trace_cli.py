"""Acceptance tests for ``repro trace`` and the suite's trace-dir mode.

The issue's bar: ``repro trace`` on a fig2-class scenario emits a valid
Chrome trace plus a span JSONL in which every terminal job span links
back to its DAG root span.
"""

import json

import pytest

from repro.cli import main
from repro.experiments.figures import fig2_scenario
from repro.experiments.parallel import SuiteCase, run_suite

N_DAGS = 2
SEED = 7


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("traces")
    code = main([
        "trace", "fig2", "--dags", str(N_DAGS), "--seed", str(SEED),
        "--horizon-hours", "6", "--out", str(out),
    ])
    assert code == 0
    return out


def test_trace_writes_all_three_artifacts(trace_dir):
    stem = f"fig2-{N_DAGS}dags"
    for suffix in ("spans.jsonl", "trace.json", "summary.md"):
        assert (trace_dir / f"{stem}.{suffix}").exists(), suffix


def test_every_terminal_job_span_links_to_its_dag_root(trace_dir):
    lines = (trace_dir / f"fig2-{N_DAGS}dags.spans.jsonl").read_text()
    spans = [json.loads(line) for line in lines.splitlines()]
    by_id = {s["span_id"]: s for s in spans}
    jobs = [s for s in spans if s["kind"] == "job"]
    dags = [s for s in spans if s["kind"] == "dag"]
    assert jobs and dags
    terminal = [j for j in jobs if j["status"] in ("ok", "cancelled")]
    assert terminal  # jobs still in flight at the horizon close "unfinished"
    for job in jobs:
        assert job["end_s"] is not None  # run-end close clamps the rest
        assert job["status"] in ("ok", "cancelled", "unfinished")
        root = by_id[job["parent_id"]]
        assert root["kind"] == "dag"
        assert root["parent_id"] is None          # the trace root
        assert job["trace_id"] == root["span_id"]
        assert job["attrs"]["dag_id"] == root["attrs"]["dag_id"]


def test_chrome_trace_is_valid_and_perfetto_shaped(trace_dir):
    doc = json.loads(
        (trace_dir / f"fig2-{N_DAGS}dags.trace.json").read_text()
    )
    events = doc["traceEvents"]
    phases = {e["ph"] for e in events}
    assert {"X", "M", "C"} <= phases
    for e in events:
        assert isinstance(e["pid"], int)
        if e["ph"] in ("X", "i", "C"):
            assert e["ts"] >= 0
        if e["ph"] == "X":
            assert e["dur"] >= 0


def test_summary_mentions_key_instruments(trace_dir):
    text = (trace_dir / f"fig2-{N_DAGS}dags.summary.md").read_text()
    for needle in ("rpc.calls", "server.planning_latency_s",
                   "kernel.events", "### Spans"):
        assert needle in text


def test_trace_rejects_bad_telemetry_interval(tmp_path):
    code = main(["trace", "fig2", "--telemetry-interval", "0",
                 "--out", str(tmp_path)])
    assert code == 2


def test_trace_runs_a_federation(tmp_path):
    """``trace`` builds its scenario and picks its topology the way
    ``chaos`` does, so the meta + shards run leaves a trace directory
    too (``ext-federation`` used to be an invalid choice here)."""
    assert main(["trace", "ext-federation", "--shards", "2", "--dags", "1",
                 "--out", str(tmp_path)]) == 0
    stem = "ext-federation-2shards"
    for suffix in ("spans.jsonl", "trace.json", "summary.md"):
        assert (tmp_path / f"{stem}.{suffix}").exists(), suffix
    lines = (tmp_path / f"{stem}.spans.jsonl").read_text().splitlines()
    kinds = [json.loads(line)["kind"] for line in lines]
    assert kinds.count("dag") == 4 and kinds.count("job") == 40


def test_suite_trace_dir_writes_per_case_and_merged(tmp_path):
    cases = [
        SuiteCase("case-a", fig2_scenario(N_DAGS, SEED,
                                          horizon_s=6 * 3600.0)),
        SuiteCase("case-b", fig2_scenario(N_DAGS, SEED + 1,
                                          horizon_s=6 * 3600.0)),
    ]
    out = tmp_path / "suite-traces"
    runs = run_suite(cases, workers=1, trace_dir=str(out))
    assert [r.name for r in runs] == ["case-a", "case-b"]

    for name in ("case-a", "case-b"):
        assert (out / f"{name}.spans.jsonl").exists()
        json.loads((out / f"{name}.trace.json").read_text())

    # The merged span log is the per-case files concatenated in case
    # order — deterministic regardless of worker scheduling.
    merged = (out / "suite.spans.jsonl").read_text()
    assert merged == ((out / "case-a.spans.jsonl").read_text()
                      + (out / "case-b.spans.jsonl").read_text())

    metrics = json.loads((out / "suite.metrics.json").read_text())
    rpc = [c for c in metrics["counters"] if c["name"] == "rpc.calls"]
    assert rpc and rpc[0]["value"] == sum(
        r.result.rpc_count for r in runs
    )
    lat = [h for h in metrics["histograms"]
           if h["name"] == "server.planning_latency_s"]
    assert lat and lat[0]["count"] > 0
    assert "samples" not in lat[0]  # stripped from the artifact
