"""Causally-linked span tracing in simulation time.

A :class:`Span` records one interval of the scheduling automaton — a
DAG's lifetime, one job placement attempt, a control pass — stamped in
*sim* seconds and linked to its parent, so a job span always leads back
to its DAG root span.  The tracer is strictly passive: it never touches
the event heap, never draws randomness, and never advances the clock,
so enabling it cannot perturb a run (kernel ``event_count`` included).

Two retention modes:

* **in-memory** (default, ``sink=None``) — every span is kept and
  exposed through :attr:`Tracer.spans` for post-run export;
* **streaming** (``sink=...``) — a closed span is handed to the sink
  (e.g. :class:`~repro.obs.export.JsonlSpanSink`) the instant it ends
  and is *not* retained, so memory holds only the currently-open spans.
  ``max_open`` is the backstop for leak-shaped workloads: when the open
  population exceeds it, the oldest open span is flushed with status
  ``"evicted"`` (its eventual ``end_span`` becomes a no-op).

:class:`NullTracer` is the zero-overhead stand-in wired in by default:
every method is a no-op returning the shared :data:`NULL_SPAN`, so
instrumentation sites cost one attribute load and one call when tracing
is off, and exactly zero kernel events in either case.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

__all__ = ["Span", "Tracer", "NullTracer", "NULL_SPAN", "NULL_TRACER"]


class Span:
    """One traced interval (or instant) in sim time."""

    __slots__ = ("span_id", "trace_id", "parent_id", "name", "kind",
                 "start", "end", "status", "attrs", "events")

    def __init__(self, span_id: str, trace_id: str, parent_id: Optional[str],
                 name: str, kind: str, start: float,
                 attrs: Optional[dict] = None):
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        self.status: Optional[str] = None
        self.attrs: dict[str, Any] = attrs if attrs is not None else {}
        #: point events inside the span: (sim_time, name, attrs)
        self.events: list[tuple[float, str, dict]] = []

    @property
    def open(self) -> bool:
        return self.end is None

    def to_dict(self) -> dict:
        """JSON-safe representation (one JSONL line per span)."""
        return {
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start_s": self.start,
            "end_s": self.end,
            "status": self.status,
            "attrs": self.attrs,
            "events": [
                {"t_s": t, "name": n, "attrs": a} for t, n, a in self.events
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else self.status
        return f"<Span {self.name!r} [{state}] id={self.span_id}>"


class Tracer:
    """Collects spans against a simulation clock.

    The clock is late-bound via :meth:`bind` because experiment drivers
    construct the tracer before the :class:`~repro.sim.engine.
    Environment` exists.

    ``sink`` switches on streaming retention (see module docstring);
    ``max_open`` bounds the open-span population in streaming mode.
    Span ids are zero-padded to 12 digits, so lexicographic order
    equals creation order up to 10^12 spans — JSONL files from any
    flush cadence sort back into one canonical order.
    """

    enabled = True

    def __init__(self, sink=None, max_open: Optional[int] = None):
        if max_open is not None and max_open < 1:
            raise ValueError(f"max_open must be >= 1, got {max_open}")
        if max_open is not None and sink is None:
            raise ValueError("max_open requires a sink (nowhere to evict to)")
        self._env = None
        self._ids = itertools.count(1)
        self._spans: list[Span] = []
        self._sink = sink
        self._max_open = max_open
        #: span_id -> Span for every currently-open span, in open order
        self._open: dict[str, Span] = {}
        #: open spans force-flushed past ``max_open`` (streaming only)
        self.evicted = 0

    def bind(self, env) -> None:
        """Attach the simulation clock the spans are stamped with."""
        self._env = env

    @property
    def now(self) -> float:
        if self._env is None:
            raise RuntimeError("tracer is not bound to an environment")
        return self._env.now

    @property
    def spans(self) -> tuple[Span, ...]:
        """Retained spans. Streaming tracers retain only *open* spans —
        closed ones already went to the sink."""
        if self._sink is not None:
            return tuple(self._open.values())
        return tuple(self._spans)

    @property
    def open_count(self) -> int:
        """Currently-open spans (the heartbeat's memory signal)."""
        return len(self._open)

    # -- recording ---------------------------------------------------------
    def start_span(self, name: str, *, parent: Optional[Span] = None,
                   kind: str = "span", **attrs: Any) -> Span:
        """Open a span; a parentless span roots a new trace."""
        span_id = f"s{next(self._ids):012d}"
        if parent is not None and parent is not NULL_SPAN:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = span_id, None
        span = Span(span_id, trace_id, parent_id, name, kind, self.now,
                    attrs=attrs)
        self._open[span_id] = span
        if self._sink is None:
            self._spans.append(span)
        elif self._max_open is not None and len(self._open) > self._max_open:
            oldest = next(iter(self._open))
            evictee = self._open.pop(oldest)
            evictee.status = "evicted"
            self._sink.write(evictee)
            self.evicted += 1
        return span

    def end_span(self, span: Span, status: str = "ok", **attrs: Any) -> None:
        """Close a span.

        Idempotent: ending an already-closed (or evicted) span is a
        no-op — crash-path teardown in chaos drills may race the normal
        close, and the first close wins.
        """
        if span is NULL_SPAN or span.end is not None:
            return
        tracked = self._open.pop(span.span_id, None) is not None
        if not tracked and span.status == "evicted":
            return  # already flushed past max_open; first write wins
        span.end = self.now
        span.status = status
        if attrs:
            span.attrs.update(attrs)
        if self._sink is not None and tracked:
            self._sink.write(span)

    def add_event(self, span: Span, name: str, **attrs: Any) -> None:
        """Record a point event inside ``span`` at the current instant."""
        if span is not NULL_SPAN:
            span.events.append((self.now, name, attrs))

    def instant(self, name: str, **attrs: Any) -> Span:
        """A zero-length root span marking a global moment (e.g. a site
        state flip, a feedback verdict change)."""
        span_id = f"s{next(self._ids):012d}"
        span = Span(span_id, span_id, None, name, "instant", self.now,
                    attrs=attrs)
        span.end = span.start
        span.status = "ok"
        if self._sink is not None:
            self._sink.write(span)
        else:
            self._spans.append(span)
        return span

    def close(self) -> None:
        """End every still-open span at the current instant (run end),
        with status ``"unfinished"``.

        Idempotent; in streaming mode also flushes them to the sink and
        closes it.
        """
        for span in self._open.values():
            span.end = self.now
            span.status = "unfinished"
            if self._sink is not None:
                self._sink.write(span)
        self._open.clear()
        if self._sink is not None:
            sink_close = getattr(self._sink, "close", None)
            if sink_close is not None:
                sink_close()


class NullTracer:
    """The disabled tracer: free to call, records nothing."""

    enabled = False
    spans: tuple[Span, ...] = ()
    open_count = 0
    evicted = 0

    def bind(self, env) -> None:
        pass

    def start_span(self, name, *, parent=None, kind="span", **attrs):
        return NULL_SPAN

    def end_span(self, span, status="ok", **attrs):
        pass

    def add_event(self, span, name, **attrs):
        pass

    def instant(self, name, **attrs):
        return NULL_SPAN

    def close(self):
        pass


#: Shared do-nothing span handed out by :class:`NullTracer`.
NULL_SPAN = Span("", "", None, "", "null", 0.0)
#: Shared disabled tracer (stateless; safe to share everywhere).
NULL_TRACER = NullTracer()
