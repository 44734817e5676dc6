"""``repro.obs`` — end-to-end tracing + metrics for the scheduling stack.

One :class:`Obs` object rides through a whole experiment: the
**tracer** records causally-linked spans as DAGs and jobs move through
the finite-state automaton (submit → plan → site-select → dispatch →
run → complete/cancel/replan), and the **metrics registry** collects
counters/gauges/histograms/series in sim time (planning latency, queue
depth, reliability verdicts, RPC traffic, kernel events by type).

Everything is opt-in and strictly passive: the default is
:data:`NULL_OBS`, whose tracer and registry are shared no-op
singletons, so an uninstrumented run schedules **zero** extra kernel
events, draws no randomness, and keeps every headline metric
bit-identical — the property the fig2 golden regression pins down.

Exporters (:mod:`repro.obs.export`) turn a finished run into a span
JSONL, a Perfetto-loadable Chrome trace, and a Markdown summary.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Optional

from repro.obs.metrics import (
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    merge_snapshots,
)
from repro.obs.runtime import Heartbeat
from repro.obs.tracer import NULL_SPAN, NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Obs",
    "ObsConfig",
    "NULL_OBS",
    "NULL_SPAN",
    "NULL_TRACER",
    "NULL_REGISTRY",
    "Heartbeat",
    "MetricsRegistry",
    "NullRegistry",
    "NullTracer",
    "Span",
    "Tracer",
    "get",
    "merge_snapshots",
]


@dataclass(frozen=True, slots=True)
class ObsConfig:
    """What one observability run collects.

    ``spans`` turns on the span tracer *and* the kernel event-type
    tally (one dict update per processed event, so it is kept out of
    metrics-only runs whose wall-clock feeds benchmark reports).
    ``sample_sites`` additionally runs a :class:`~repro.experiments.
    telemetry.GridTelemetry` probe against the registry — the only
    collection mode that schedules kernel events (its sampler ticks),
    so it is off wherever event counts are compared.

    Flight-recorder knobs (all strictly passive):

    * ``span_sink`` — stream closed spans to this sink (e.g. a
      :class:`~repro.obs.export.JsonlSpanSink`) instead of retaining
      them, keeping tracer memory at open-spans-only;
    * ``max_open_spans`` — the streaming backstop: evict the oldest
      open span past this population (requires ``span_sink``).
    """

    spans: bool = True
    sample_sites: bool = False
    telemetry_interval_s: float = 60.0
    span_sink: Optional[object] = None
    max_open_spans: Optional[int] = None


class Obs:
    """Tracer + metrics registry, handed through the whole stack."""

    enabled = True

    def __init__(self, config: ObsConfig = ObsConfig()):
        self.config = config
        if config.spans:
            self.tracer = Tracer(sink=config.span_sink,
                                 max_open=config.max_open_spans)
        else:
            self.tracer = NULL_TRACER
        self.metrics = MetricsRegistry()

    def bind(self, env) -> None:
        """Late-bind the sim clock (drivers build Obs before the env)."""
        self.tracer.bind(env)


class _NullObs:
    """The default: everything off, every call free."""

    enabled = False
    config = ObsConfig(spans=False, sample_sites=False)

    def __init__(self):
        self.tracer = NULL_TRACER
        self.metrics = NULL_REGISTRY

    def bind(self, env) -> None:
        pass


#: Shared disabled facade — what every component defaults to.
NULL_OBS = _NullObs()


def get(obs) -> "Obs":
    """Normalize an optional ``obs`` argument (None -> :data:`NULL_OBS`)."""
    return obs if obs is not None else NULL_OBS
