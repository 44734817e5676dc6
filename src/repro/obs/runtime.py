"""Run-time flight instrument: the live heartbeat.

Everything else in ``repro.obs`` is stamped in *sim* time; this module
is the one place a run reads the *wall* clock, because its job is to
make a two-hour run legible while it executes, not to describe the
simulated world.  (Where host time *went* is measured from outside, by
``benchmarks/perf``.)  The heartbeat stays strictly passive
with respect to the simulation: no kernel events, no RNG draws, no
sim-clock reads beyond the values the kernel hands it — so a
heartbeat-instrumented run is bit-identical to a bare one (pinned by
the obs no-op tests).

:class:`Heartbeat`
    A progress reporter threaded through the kernel event loop.  Every
    few thousand processed events the loop calls :meth:`Heartbeat.tick`;
    when the configured wall interval (or, in deterministic test mode,
    event cadence) has elapsed, a progress record goes to stderr and a
    JSONL file: sim time, cumulative and instantaneous events/s, jobs
    planned/completed, RSS, GC collections, open-span count, and an ETA
    extrapolated from job completions.  A **stall detector** flags runs
    whose sim clock stops advancing or whose instantaneous throughput
    collapses below a fixed fraction of its trailing mean.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from typing import Any, Callable, Optional

__all__ = ["Heartbeat", "rss_mb"]

#: a beat whose events/s falls below this fraction of the mean over the
#: last ``_TRAILING`` beats is flagged as a throughput collapse
_STALL_FRACTION = 0.25
_TRAILING = 5


def rss_mb() -> float:
    """Peak resident set size of this process, in MB.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; on
    platforms without :mod:`resource` (Windows) this returns 0.0 rather
    than guessing.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return peak / 1e6
    return peak / 1024.0


def _gc_collections() -> int:
    return sum(s["collections"] for s in gc.get_stats())


class Heartbeat:
    """Wall-clock progress reporter + stall detector for long runs.

    The kernel's event loop calls :meth:`tick` every few
    thousand events with the current sim time and processed-event
    count; a beat fires when ``interval_s`` wall seconds have passed
    (or every ``every_events`` events when set — the deterministic mode
    tests byte-compare).  Each beat appends one JSON record to ``path``
    (when given) and a human line to ``stream`` (default stderr; pass
    ``stream=None`` to silence).

    Stall detection: a beat whose sim clock has not advanced since the
    previous beat, or whose instantaneous events/s falls below
    ``_STALL_FRACTION`` of the mean over the last ``_TRAILING`` beats,
    is flagged ``stalled`` with a reason.

    ``clock``, ``rss_fn`` and ``gc_fn`` are injectable so tests can pin
    byte-identical output; the defaults read the real process.
    """

    def __init__(self, interval_s: float = 5.0, *,
                 path=None,
                 stream: Any = "<stderr>",
                 every_events: Optional[int] = None,
                 label: str = "run",
                 clock: Callable[[], float] = time.monotonic,
                 rss_fn: Callable[[], float] = rss_mb,
                 gc_fn: Callable[[], int] = _gc_collections):
        if not interval_s >= 0:
            raise ValueError(f"interval_s must be >= 0, got {interval_s}")
        self.interval_s = interval_s
        self.label = label
        self.every_events = every_events
        self._clock = clock
        self._rss_fn = rss_fn
        self._gc_fn = gc_fn
        self._path = path
        self._fh = None
        self._stream = stream
        self._tracer = None
        self._metrics = None
        self._total_jobs: Optional[int] = None
        # beat state
        self._t0: Optional[float] = None
        self._last_wall: Optional[float] = None
        self._start_events = 0
        self._last_events = 0
        self._last_sim: Optional[float] = None
        self._rates: list[float] = []  # trailing instantaneous events/s
        self.seq = 0
        self.stall_count = 0
        self.records: list[dict] = []  # kept small: one dict per beat
        self._finalized = False

    # -- wiring ------------------------------------------------------------
    def bind(self, env, obs=None, total_jobs: Optional[int] = None) -> None:
        """Attach the run: obs supplies job counters + open-span count,
        ``total_jobs`` (when known) powers the ETA extrapolation."""
        env.heartbeat = self
        if obs is not None and getattr(obs, "enabled", False):
            self._tracer = obs.tracer
            self._metrics = obs.metrics
        self._total_jobs = total_jobs

    # -- beat engine -------------------------------------------------------
    def tick(self, sim_now: float, events_now: int) -> None:
        """Cheap cadence check — called from the kernel loop."""
        if self._t0 is None:
            self._start(sim_now, events_now)
            return
        if self.every_events is not None:
            if events_now - self._last_events >= self.every_events:
                self.beat(sim_now, events_now)
        elif self._clock() - self._last_wall >= self.interval_s:
            self.beat(sim_now, events_now)

    def _start(self, sim_now: float, events_now: int) -> None:
        self._t0 = self._last_wall = self._clock()
        self._start_events = self._last_events = events_now
        self._last_sim = sim_now

    def _job_counters(self) -> tuple[Optional[int], Optional[int]]:
        if self._metrics is None:
            return None, None
        planned = sum(
            inst.value
            for _l, inst in self._metrics.find("server.jobs_planned"))
        completed = sum(
            inst.value
            for _l, inst in self._metrics.find("server.jobs_completed"))
        return planned, completed

    def beat(self, sim_now: float, events_now: int,
             final: bool = False) -> dict:
        """Emit one progress record (and return it)."""
        now = self._clock()
        if self._t0 is None:
            self._t0 = self._last_wall = now
            self._last_sim = sim_now
        wall_s = now - self._t0
        dt = now - self._last_wall
        d_events = events_now - self._last_events
        inst = d_events / dt if dt > 0 else 0.0
        run_events = events_now - self._start_events
        cum = run_events / wall_s if wall_s > 0 else 0.0

        stalled, reason = False, None
        if not final:
            if self._last_sim is not None and sim_now <= self._last_sim \
                    and d_events > 0:
                stalled, reason = True, "sim-clock not advancing"
            elif (len(self._rates) >= _TRAILING and
                  inst < _STALL_FRACTION *
                  (sum(self._rates[-_TRAILING:]) / _TRAILING)):
                stalled, reason = True, (
                    f"events/s collapsed below {_STALL_FRACTION:g}x "
                    f"trailing mean")
            if stalled:
                self.stall_count += 1
            self._rates.append(inst)
            if len(self._rates) > 4 * _TRAILING:
                del self._rates[: -2 * _TRAILING]

        planned, completed = self._job_counters()
        eta_s = None
        if (not final and self._total_jobs and completed
                and wall_s > 0 and 0 < completed < self._total_jobs):
            eta_s = wall_s * (self._total_jobs / completed - 1.0)

        self.seq += 1
        record = {
            "seq": self.seq,
            "label": self.label,
            "wall_s": wall_s,
            "sim_s": sim_now,
            "events": events_now,
            "events_per_s": cum,
            "events_per_s_inst": inst,
            "jobs_planned": planned,
            "jobs_completed": completed,
            "open_spans": (self._tracer.open_count
                           if self._tracer is not None else None),
            "rss_mb": self._rss_fn(),
            "gc_collections": self._gc_fn(),
            "eta_s": eta_s,
            "stalled": stalled,
            "stall_reason": reason,
            "final": final,
        }
        self._emit(record)
        self.records.append(record)
        if len(self.records) > 64:  # the log file keeps the full history
            del self.records[:32]
        self._last_wall = now
        self._last_events = events_now
        self._last_sim = sim_now
        return record

    def _emit(self, record: dict) -> None:
        if self._path is not None:
            if self._fh is None:
                self._fh = open(self._path, "w")
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()
        stream = self._stream
        if stream is not None:
            if stream == "<stderr>":
                stream = sys.stderr
            jobs = ""
            if record["jobs_completed"] is not None:
                total = f"/{self._total_jobs}" if self._total_jobs else ""
                jobs = f" jobs={record['jobs_completed']}{total}"
            eta = (f" eta={record['eta_s']:.0f}s"
                   if record["eta_s"] is not None else "")
            stall = (f" STALLED({record['stall_reason']})"
                     if record["stalled"] else "")
            spans = (f" open_spans={record['open_spans']}"
                     if record["open_spans"] is not None else "")
            print(
                f"[hb {self.label} #{record['seq']}] "
                f"wall={record['wall_s']:.1f}s sim={record['sim_s']:.0f}s "
                f"ev={record['events']} "
                f"({record['events_per_s']:.0f}/s cum, "
                f"{record['events_per_s_inst']:.0f}/s inst)"
                f"{jobs}{spans} rss={record['rss_mb']:.0f}MB"
                f" gc={record['gc_collections']}{eta}{stall}"
                + (" [final]" if record["final"] else ""),
                file=stream,
            )

    def finalize(self, sim_now: float, events_now: int) -> Optional[dict]:
        """Emit the closing record and close the log (idempotent)."""
        if self._finalized:
            return None
        self._finalized = True
        record = self.beat(sim_now, events_now, final=True)
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        return record
