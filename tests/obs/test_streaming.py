"""Streaming span sink: bounded tracer memory, identical span payloads.

The flight-recorder contract for spans: switching the tracer from
retain-everything to stream-on-close changes *where* spans live (the
JSONL file instead of the heap) but not *what* is recorded — the same
spans, the same payloads, recoverable into the same canonical order by
sorting on the fixed-width span id.  And because the sink is plain file
I/O outside the kernel, the simulation itself stays bit-identical.
"""

import dataclasses
import json

import pytest

from repro.experiments.figures import ext_scale_scenario, fig2_scenario
from repro.experiments.runner import run_scenario
from repro.obs import Obs, ObsConfig, Tracer, export
from repro.obs.export import JsonlSpanSink
from repro.sim import Environment


def bound_tracer(sink=None, max_open=None):
    tracer = Tracer(sink=sink, max_open=max_open)
    tracer.bind(Environment())
    return tracer


class ListSink:
    def __init__(self):
        self.spans = []
        self.closed = False

    def write(self, span):
        self.spans.append(span.to_dict())

    def close(self):
        self.closed = True


# ------------------------------------------------------------------ the sink
def test_jsonl_sink_writes_incrementally(tmp_path, monkeypatch):
    monkeypatch.setattr(export, "_FLUSH_EVERY", 1)
    path = tmp_path / "spans.jsonl"
    sink = JsonlSpanSink(path)
    tracer = bound_tracer(sink=sink)
    for i in range(3):
        tracer.end_span(tracer.start_span(f"work-{i}"))
        # Flushed before the run is anywhere near done:
        assert len(path.read_text().splitlines()) == i + 1
    sink.close()
    assert sink.written == 3


def test_jsonl_sink_refuses_writes_after_close(tmp_path):
    sink = JsonlSpanSink(tmp_path / "s.jsonl")
    tracer = bound_tracer(sink=sink)
    span = tracer.start_span("late")
    sink.close()
    sink.close()  # idempotent
    with pytest.raises(ValueError):
        tracer.end_span(span)


# -------------------------------------------------------- streaming retention
def test_streaming_tracer_retains_only_open_spans():
    sink = ListSink()
    tracer = bound_tracer(sink=sink)
    open_span = tracer.start_span("stays-open")
    for i in range(100):
        tracer.end_span(tracer.start_span(f"done-{i}"))
    assert tracer.open_count == 1
    assert tracer.spans == (open_span,)
    assert len(sink.spans) == 100
    tracer.close()
    assert tracer.open_count == 0
    assert sink.closed
    assert sink.spans[-1]["status"] == "unfinished"
    assert sink.spans[-1]["span_id"] == open_span.span_id


def test_streaming_instants_go_straight_to_the_sink():
    sink = ListSink()
    tracer = bound_tracer(sink=sink)
    tracer.instant("marker", n=1)
    assert tracer.open_count == 0
    assert [s["name"] for s in sink.spans] == ["marker"]


def test_max_open_evicts_oldest_and_eviction_wins():
    sink = ListSink()
    tracer = bound_tracer(sink=sink, max_open=2)
    first = tracer.start_span("a")
    tracer.start_span("b")
    tracer.start_span("c")  # pushes the population past 2: evicts "a"
    assert tracer.evicted == 1
    assert [s.name for s in tracer.spans] == ["b", "c"]
    flushed = sink.spans[-1]
    assert (flushed["name"], flushed["status"]) == ("a", "evicted")
    assert flushed["end_s"] is None
    n_written = len(sink.spans)
    tracer.end_span(first, "ok")  # late close of an evictee: no-op
    assert len(sink.spans) == n_written
    assert first.status == "evicted" and first.end is None


def test_max_open_requires_a_sink():
    with pytest.raises(ValueError):
        Tracer(max_open=10)
    with pytest.raises(ValueError):
        Tracer(sink=ListSink(), max_open=0)


# ------------------------------------------------- whole-run span equivalence
def _by_span_id(jsonl_text):
    records = [json.loads(line) for line in jsonl_text.splitlines()]
    return sorted(records, key=lambda r: r["span_id"])


def test_streamed_spans_equal_retained_spans_sorted_by_id(tmp_path):
    from repro.obs.export import spans_to_jsonl

    scenario = fig2_scenario(2, 7, horizon_s=6 * 3600.0)

    obs_mem = Obs(ObsConfig(spans=True))
    run_scenario(scenario, obs=obs_mem)
    retained = _by_span_id(spans_to_jsonl(obs_mem.tracer.spans))

    path = tmp_path / "streamed.jsonl"
    obs_stream = Obs(ObsConfig(
        spans=True, span_sink=JsonlSpanSink(path)))
    run_scenario(scenario, obs=obs_stream)
    streamed = _by_span_id(path.read_text())

    assert obs_stream.tracer.spans == ()  # nothing retained
    assert streamed == retained


def test_flush_cadence_cannot_change_the_stream(tmp_path, monkeypatch):
    scenario = fig2_scenario(2, 7, horizon_s=6 * 3600.0)
    texts = []
    for flush_every in (1, export._FLUSH_EVERY):
        monkeypatch.setattr(export, "_FLUSH_EVERY", flush_every)
        path = tmp_path / f"f{flush_every}.jsonl"
        obs = Obs(ObsConfig(spans=True, span_sink=JsonlSpanSink(path)))
        run_scenario(scenario, obs=obs)
        texts.append(path.read_text())
    assert texts[0] == texts[1]


# ----------------------------------------- full flight recorder at ext scale
def test_ext_scale_decisions_identical_under_full_flight_recorder(
        tmp_path):
    """The acceptance criterion at proxy scale: an ext-scale run with
    streaming spans + histograms + max_open + heartbeat makes
    the same scheduling decisions, event for event, as a bare run."""
    from repro.obs import Heartbeat

    scenario = dataclasses.replace(ext_scale_scenario(10, 50, seed=42),
                                   horizon_s=24 * 3600.0)
    bare = run_scenario(scenario)

    sink = JsonlSpanSink(tmp_path / "spans.jsonl")
    obs = Obs(ObsConfig(spans=True, span_sink=sink, max_open_spans=500))
    hb = Heartbeat(path=tmp_path / "heartbeat.jsonl",
                   stream=None, every_events=1000)
    result = run_scenario(scenario, obs=obs, heartbeat=hb)

    assert result.event_count == bare.event_count
    assert result.elapsed_sim_s == bare.elapsed_sim_s
    assert result.rpc_count == bare.rpc_count
    for label, server in result.servers.items():
        assert server.job_completion_times == \
            bare.servers[label].job_completion_times
        assert server.jobs_per_site == bare.servers[label].jobs_per_site

    # No span retained; every histogram kept each sample it counted.
    assert obs.tracer.spans == ()
    for _name, _labels, kind, inst in obs.metrics:
        if kind == "histogram":
            assert len(inst.samples) == inst.count
    # And the artifacts are real.
    assert (tmp_path / "spans.jsonl").stat().st_size > 0
    final = json.loads(
        (tmp_path / "heartbeat.jsonl").read_text()
        .splitlines()[-1])
    assert final["final"] is True
    assert final["events"] == result.event_count
