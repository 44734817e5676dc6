"""Exporters: span JSONL, Chrome ``trace_event`` JSON, Markdown summary.

Three consumers, three formats:

* **JSONL** — one span per line, machine-greppable, the format the
  acceptance tooling and tests read back;
* **Chrome trace** — a ``{"traceEvents": [...]}`` document loadable in
  Perfetto or ``chrome://tracing``: spans become complete (``"X"``)
  events grouped into named process/thread tracks, instant spans become
  ``"i"`` events, and metric series become counter (``"C"``) tracks
  (per-site queue depth next to the job spans that caused it);
* **Markdown** — the console/step-summary digest of the metrics
  registry and span population.

Sim time is seconds; Chrome traces use microseconds, so one sim second
renders as one millisecond-scale unit without float noise.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span

__all__ = [
    "spans_to_jsonl",
    "write_spans_jsonl",
    "JsonlSpanSink",
    "chrome_trace",
    "write_chrome_trace",
    "write_trace_pair",
    "summary_markdown",
]

_US = 1e6  # sim seconds -> trace microseconds


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """Newline-delimited JSON, one span per line, insertion order."""
    return "".join(
        json.dumps(span.to_dict(), sort_keys=True) + "\n" for span in spans
    )


def write_spans_jsonl(spans: Iterable[Span], path) -> None:
    with open(path, "w") as fh:
        fh.write(spans_to_jsonl(spans))


#: spans a :class:`JsonlSpanSink` writes between two flushes
_FLUSH_EVERY = 1000


class JsonlSpanSink:
    """Streaming span sink: one JSONL line per span, written at close
    time.

    Wire into ``Tracer(sink=...)`` to keep span memory bounded: each
    span is serialized and handed to the OS the moment it closes (or is
    evicted), so a crash loses at most the buffered tail.  Lines land
    in *close* order, not start order; span ids are fixed-width, so
    ``sort`` by the ``span_id`` field recovers canonical start order.
    """

    def __init__(self, path):
        self._fh = open(path, "w")
        self.path = path
        self.written = 0

    def write(self, span: Span) -> None:
        if self._fh is None:
            raise ValueError(f"span sink {self.path} is closed")
        self._fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
        self.written += 1
        if self.written % _FLUSH_EVERY == 0:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlSpanSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Ids:
    """Deterministic name -> small-integer id assignment."""

    def __init__(self):
        self._ids: dict[str, int] = {}

    def __call__(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._ids) + 1
        return self._ids[name]

    def items(self):
        return self._ids.items()


def chrome_trace(spans: Sequence[Span],
                 metrics: Optional[MetricsRegistry] = None,
                 clock_end_s: Optional[float] = None) -> dict:
    """Build a Chrome ``trace_event`` document from spans + series.

    Spans still open (no run-end close) are clamped to ``clock_end_s``
    (default: the latest timestamp seen), so the trace always loads.
    Track mapping: a span's ``component`` attribute names its process
    row and ``lane`` its thread row (falling back to the trace root and
    span name), keeping each server's DAGs visually grouped.
    """
    pids, tids = _Ids(), _Ids()
    events: list[dict] = []

    horizon = clock_end_s if clock_end_s is not None else 0.0
    for span in spans:
        horizon = max(horizon, span.start, span.end or span.start,
                      *(t for t, _n, _a in span.events))

    for span in spans:
        component = str(span.attrs.get("component", "sphinx"))
        lane = str(span.attrs.get("lane", span.trace_id or span.name))
        pid, tid = pids(component), tids(f"{component}/{lane}")
        args = {
            "span_id": span.span_id,
            "trace_id": span.trace_id,
            "parent_id": span.parent_id,
            **{k: v for k, v in span.attrs.items()
               if k not in ("component", "lane")},
        }
        if span.kind == "instant":
            events.append({
                "name": span.name, "cat": span.kind, "ph": "i",
                "ts": span.start * _US, "pid": pid, "tid": tid,
                "s": "p", "args": args,
            })
        else:
            end = span.end if span.end is not None else horizon
            if span.end is None:
                args["status"] = "open"
            elif span.status is not None:
                args["status"] = span.status
            events.append({
                "name": span.name, "cat": span.kind, "ph": "X",
                "ts": span.start * _US, "dur": (end - span.start) * _US,
                "pid": pid, "tid": tid, "args": args,
            })
        for t, name, attrs in span.events:
            events.append({
                "name": name, "cat": "event", "ph": "i",
                "ts": t * _US, "pid": pid, "tid": tid, "s": "t",
                "args": {"span_id": span.span_id, **attrs},
            })

    if metrics is not None:
        pid = pids("telemetry")
        for name, labels, kind, inst in metrics:
            if kind != "series" or not len(inst):
                continue
            label_txt = ",".join(f"{k}={v}" for k, v in labels.items())
            track = f"{name}{{{label_txt}}}" if label_txt else name
            for t, v in zip(inst.times, inst.values):
                events.append({
                    "name": track, "cat": "metric", "ph": "C",
                    "ts": t * _US, "pid": pid, "args": {"value": v},
                })

    meta = [
        {"name": "process_name", "ph": "M", "pid": pid,
         "args": {"name": name}}
        for name, pid in pids.items()
    ] + [
        {"name": "thread_name", "ph": "M",
         "pid": pids(name.split("/", 1)[0]), "tid": tid,
         "args": {"name": name.split("/", 1)[-1]}}
        for name, tid in tids.items()
    ]
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "sim-seconds-as-microseconds"},
    }


def write_chrome_trace(spans: Sequence[Span], path,
                       metrics: Optional[MetricsRegistry] = None,
                       clock_end_s: Optional[float] = None) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(spans, metrics, clock_end_s), fh)
        fh.write("\n")


def write_trace_pair(obs, out_dir, name: str,
                     clock_end_s: Optional[float] = None) -> Sequence[Span]:
    """Write a finished run's ``<name>.spans.jsonl`` and
    ``<name>.trace.json`` under ``out_dir``; returns the spans written.

    A run that streamed its spans to a sink already has its JSONL and
    kept nothing for the Chrome trace (which needs the full span list):
    nothing is written and ``()`` comes back.
    """
    if obs.config.span_sink is not None:
        return ()
    spans = obs.tracer.spans
    out = Path(out_dir)
    write_spans_jsonl(spans, out / f"{name}.spans.jsonl")
    write_chrome_trace(spans, out / f"{name}.trace.json",
                       metrics=obs.metrics, clock_end_s=clock_end_s)
    return spans


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 1000 else f"{value:.0f}"
    return str(value)


def summary_markdown(metrics: Optional[MetricsRegistry] = None,
                     spans: Sequence[Span] = (),
                     title: str = "Observability summary") -> str:
    """The console/CI digest: counters, histograms, span population."""
    lines = [f"## {title}", ""]
    snap = metrics.snapshot() if metrics is not None else {
        "counters": [], "gauges": [], "histograms": [], "series": []}

    if snap["counters"]:
        lines += ["### Counters", "", "| metric | labels | value |",
                  "|---|---|---:|"]
        for c in snap["counters"]:
            labels = ",".join(f"{k}={v}" for k, v in c["labels"].items())
            lines.append(f"| {c['name']} | {labels or '-'} | {c['value']} |")
        lines.append("")

    if snap["histograms"]:
        lines += ["### Histograms", "",
                  "| metric | labels | count | mean | p50 | p95 | max |",
                  "|---|---|---:|---:|---:|---:|---:|"]
        for h in snap["histograms"]:
            labels = ",".join(f"{k}={v}" for k, v in h["labels"].items())
            mean = h["sum"] / h["count"] if h["count"] else None
            lines.append(
                f"| {h['name']} | {labels or '-'} | {h['count']} "
                f"| {_fmt(mean)} | {_fmt(h['p50'])} | {_fmt(h['p95'])} "
                f"| {_fmt(h['max'])} |"
            )
        lines.append("")

    if spans:
        by_name: dict[str, list[int]] = {}
        for span in spans:
            ok = span.status in ("ok", None)
            tally = by_name.setdefault(span.attrs.get("op", span.kind), [0, 0])
            tally[0] += 1
            tally[1] += 0 if ok else 1
        lines += [f"### Spans ({len(spans)} total)", "",
                  "| kind | count | non-ok |", "|---|---:|---:|"]
        for name in sorted(by_name):
            total, bad = by_name[name]
            lines.append(f"| {name} | {total} | {bad} |")
        lines.append("")
    return "\n".join(lines)
