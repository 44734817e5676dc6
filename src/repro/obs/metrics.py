"""Sim-time metrics registry: counters, gauges, histograms, time series.

The registry replaces the ad-hoc tallies that used to be scattered
across the experiment layer.  Instruments are identified by a name plus
a frozen label set (``counter("rpc.calls", method="deliver")``), are
created on first touch, and keep insertion order so every snapshot is
deterministic for a given scenario regardless of worker count.

Like the tracer, instruments are strictly passive — no kernel events,
no RNG draws, no clock reads except the timestamps callers pass to
:class:`Series` — so a metrics-only observability run leaves every
simulation headline metric (kernel ``event_count`` included)
bit-identical.

Histograms keep every raw sample and answer *exact* percentiles; a
run holds about three samples per job, so even 30k-job runs spend a
few MB on them (EXPERIMENTS.md, "One histogram mode").

:class:`NullRegistry` is the disabled twin: it hands out shared no-op
instruments so instrumented call sites stay branch-free.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "merge_snapshots",
]

_Key = tuple[str, tuple[tuple[str, str], ...]]


def _key(name: str, labels: dict[str, Any]) -> _Key:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotone count of occurrences."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class _Reading:
    """A counter that keeps no count: its value is read, when read,
    from the one store the count lives in (see
    :meth:`MetricsRegistry.reading`)."""

    __slots__ = ("read",)

    def __init__(self, read: Callable[[], float]):
        self.read = read

    @property
    def value(self) -> float:
        return self.read()


class Gauge:
    """Last-written value of some level (queue depth, score...)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Distribution of observed values.

    Keeps raw samples and answers exact nearest-rank percentiles from a
    sorted pass that is *cached* — ``observe`` invalidates it, so a
    snapshot's p50 and p95 share one sort instead of re-sorting per
    call.
    """

    __slots__ = ("_samples", "_sorted", "_count", "_sum", "_min", "_max")

    def __init__(self):
        self._samples: list[float] = []
        self._sorted: Optional[list[float]] = None
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        v = float(value)
        if not math.isfinite(v):
            # A NaN would poison sum/min/max for the rest of the run and
            # make the snapshot unencodable as JSON.
            raise ValueError(f"histogram value must be finite, got {v}")
        self._count += 1
        self._sum += v
        if self._min is None or v < self._min:
            self._min = v
        if self._max is None or v > self._max:
            self._max = v
        self._samples.append(v)
        self._sorted = None

    @property
    def samples(self) -> list[float]:
        return self._samples

    @samples.setter
    def samples(self, values: list[float]) -> None:
        """Replace the sample set (merge plumbing)."""
        self._samples = list(values)
        self._sorted = None
        self._count = len(self._samples)
        self._sum = math.fsum(self._samples)
        self._min = min(self._samples) if self._samples else None
        self._max = max(self._samples) if self._samples else None

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def min(self) -> Optional[float]:
        return self._min

    @property
    def max(self) -> Optional[float]:
        return self._max

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else float("nan")

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile; NaN when empty."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            return float("nan")
        ordered = self._sorted
        if ordered is None:
            ordered = self._sorted = sorted(self._samples)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]


class Series:
    """Timestamped samples (sim-time) — the telemetry backbone."""

    __slots__ = ("times", "values")

    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, t: float, value: float) -> None:
        self.times.append(float(t))
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.times)


class MetricsRegistry:
    """Instrument factory + deterministic snapshot/export surface."""

    enabled = True
    _KINDS = {"counter": Counter, "gauge": Gauge,
              "histogram": Histogram, "series": Series}

    def __init__(self):
        self._instruments: dict[_Key, tuple[str, Any]] = {}

    def _get(self, kind: str, name: str, labels: dict[str, Any]):
        key = _key(name, labels)
        entry = self._instruments.get(key)
        if entry is None:
            entry = (kind, self._KINDS[kind]())
            self._instruments[key] = entry
        elif entry[0] != kind:
            raise ValueError(
                f"metric {name!r}{dict(key[1])} already registered "
                f"as a {entry[0]}, not a {kind}"
            )
        return entry[1]

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", name, labels)

    def reading(self, name: str, read: Callable[[], float],
                **labels: Any) -> None:
        """Register counter ``name`` as a read of ``read()``: the count
        lives in one store (a warehouse tally, an attribute of its
        owner) and the registry reads it there instead of mirroring
        it.  Registering it again rebinds the read, so a recovered
        incarnation's store takes over."""
        key = _key(name, labels)
        entry = self._instruments.get(key)
        if entry is None:
            self._instruments[key] = ("counter", _Reading(read))
        elif isinstance(entry[1], _Reading):
            entry[1].read = read
        else:
            raise ValueError(f"metric {name!r}{dict(key[1])} already "
                             "counts for itself")

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get("histogram", name, labels)

    def series(self, name: str, **labels: Any) -> Series:
        return self._get("series", name, labels)

    # -- introspection -----------------------------------------------------
    def __iter__(self) -> Iterable[tuple[str, dict, str, Any]]:
        """Yields (name, labels, kind, instrument) in insertion order."""
        for (name, labels), (kind, inst) in self._instruments.items():
            yield name, dict(labels), kind, inst

    def find(self, name: str) -> list[tuple[dict, Any]]:
        """Every (labels, instrument) registered under ``name``."""
        return [
            (dict(labels), inst)
            for (n, labels), (_k, inst) in self._instruments.items()
            if n == name
        ]

    def snapshot(self, include_samples: bool = False) -> dict:
        """JSON-safe dump of every instrument.

        Histograms export count/sum/min/max/p50/p95 (plus raw samples
        when ``include_samples``).  Series export parallel time/value
        arrays; NaN never appears (JSON has no NaN).
        """
        out: dict[str, list] = {"counters": [], "gauges": [],
                                "histograms": [], "series": []}
        for name, labels, kind, inst in self:
            entry: dict[str, Any] = {"name": name, "labels": labels}
            if kind == "counter":
                entry["value"] = inst.value
                out["counters"].append(entry)
            elif kind == "gauge":
                value = inst.value
                entry["value"] = None if value != value else value
                out["gauges"].append(entry)
            elif kind == "histogram":
                empty = not inst.count
                entry.update(
                    count=inst.count,
                    sum=inst.sum,
                    min=inst.min,
                    max=inst.max,
                    p50=None if empty else inst.percentile(50),
                    p95=None if empty else inst.percentile(95),
                )
                if include_samples:
                    entry["samples"] = list(inst.samples)
                out["histograms"].append(entry)
            else:
                entry["times"] = list(inst.times)
                entry["values"] = list(inst.values)
                out["series"].append(entry)
        return out


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class _NullSeries(Series):
    __slots__ = ()

    def record(self, t: float, value: float) -> None:
        pass


class NullRegistry:
    """Disabled registry: shared no-op instruments, empty snapshots."""

    enabled = False

    _COUNTER = _NullCounter()
    _GAUGE = _NullGauge()
    _HISTOGRAM = _NullHistogram()
    _SERIES = _NullSeries()

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._COUNTER

    def reading(self, name: str, read: Callable[[], float],
                **labels: Any) -> None:
        pass

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._GAUGE

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._HISTOGRAM

    def series(self, name: str, **labels: Any) -> Series:
        return self._SERIES

    def __iter__(self):
        return iter(())

    def find(self, name: str) -> list:
        return []

    def snapshot(self, include_samples: bool = False) -> dict:
        return {"counters": [], "gauges": [], "histograms": [], "series": []}


#: Shared disabled registry (stateless; safe to share everywhere).
NULL_REGISTRY = NullRegistry()


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Fold per-worker/per-case snapshots into one, deterministically.

    Inputs are merged in the order given (the suite passes case order,
    never completion order).  Counters with the same (name, labels) sum;
    gauges keep the last value seen; series concatenate.  Histograms
    pool two ways per instrument:

    * every input carries raw samples — exact pooled percentiles,
      samples re-exported for further merging;
    * otherwise — count/sum/min/max pool, percentiles degrade to None.
    """
    merged = MetricsRegistry()
    pooled_hists: dict[_Key, dict] = {}
    for snap in snapshots:
        for c in snap.get("counters", ()):
            merged.counter(c["name"], **c["labels"]).inc(c["value"])
        for g in snap.get("gauges", ()):
            merged.gauge(g["name"], **g["labels"]).set(g["value"])
        for s in snap.get("series", ()):
            series = merged.series(s["name"], **s["labels"])
            for t, v in zip(s["times"], s["values"]):
                series.record(t, v)
        for h in snap.get("histograms", ()):
            key = _key(h["name"], h["labels"])
            agg = pooled_hists.setdefault(key, {
                "name": h["name"], "labels": h["labels"], "count": 0,
                "sum": 0.0, "min": None, "max": None, "samples": [],
                "complete": True,
            })
            agg["count"] += h["count"]
            agg["sum"] += h["sum"]
            for bound, pick in (("min", min), ("max", max)):
                if h[bound] is not None:
                    agg[bound] = (h[bound] if agg[bound] is None
                                  else pick(agg[bound], h[bound]))
            if "samples" in h:
                agg["samples"].extend(h["samples"])
            elif h["count"]:
                agg["complete"] = False  # percentiles not poolable

    out = merged.snapshot()
    for agg in pooled_hists.values():
        samples = agg.pop("samples")
        complete = agg.pop("complete")
        if complete and samples:
            hist = Histogram()
            hist.samples = samples
            agg["p50"] = hist.percentile(50)
            agg["p95"] = hist.percentile(95)
            agg["samples"] = samples
        else:
            agg["p50"] = agg["p95"] = None
        out["histograms"].append(agg)
    return out
