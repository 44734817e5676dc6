"""The job tracker — the client-side module powering fault tolerance.

"The tracking module in the client keeps track of execution status of
submitted jobs.  If the execution is held or killed on remote sites,
then the client reports the status change to the server, and requests
replanning ... The client also sends the job cancellation message to
the remote sites ... The tracker also maintains timing information for
the submitted jobs" (§3.3).

The tracker adds the one mechanism no grid service provided: a
**timeout**.  A job that reaches no terminal state within
``timeout_s`` is cancelled at the site and reported as cancelled with
reason ``"timeout"`` — this is what catches blackhole sites, and what
the paper's Figure 8 counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import obs as obs_mod
from repro.services.condorg import CondorG, GridJobHandle, GridJobStatus
from repro.sim.engine import Environment

__all__ = ["JobTracker", "TrackingResult"]


@dataclass(frozen=True, slots=True)
class TrackingResult:
    """Outcome of tracking one job attempt."""

    job_id: str
    site: str
    outcome: str                # "completed" | "cancelled"
    reason: Optional[str]       # None | "timeout" | "killed" | "failed"
    completion_time_s: Optional[float]
    idle_time_s: Optional[float]
    execution_time_s: Optional[float]
    #: fraction of the work preserved by the attempt's last checkpoint
    #: (nonzero only for cancelled attempts of checkpointing jobs) and
    #: the CPU-seconds the kill discarded — what the server needs to
    #: resume the next attempt instead of restarting it from zero.
    checkpointed_fraction: float = 0.0
    lost_work_s: float = 0.0


@dataclass
class TrackerStats:
    completed: int = 0
    cancelled: int = 0
    timeouts: int = 0
    #: per-site tallies: site -> [completed, cancelled]
    by_site: dict = field(default_factory=dict)
    #: timing samples of completed jobs (experiment metrics)
    completion_times: list = field(default_factory=list)
    idle_times: list = field(default_factory=list)
    execution_times: list = field(default_factory=list)


class JobTracker:
    """Watches Condor-G handles, applies timeouts, collects timings."""

    def __init__(self, env: Environment, condorg: CondorG, obs=None):
        self.env = env
        self.condorg = condorg
        self.stats = TrackerStats()
        self.obs = obs_mod.get(obs)
        m = self.obs.metrics
        self._m_completed = m.counter("tracker.completed")
        self._m_cancelled = m.counter("tracker.cancelled")
        self._m_timeouts = m.counter("tracker.timeouts")
        self._m_completion = m.histogram("tracker.completion_time_s")
        self._m_idle = m.histogram("tracker.idle_time_s")

    def track(self, handle: GridJobHandle, timeout_s: float,
              started_at: Optional[float] = None):
        """A generator resolving to a :class:`TrackingResult`.

        ``started_at`` anchors the completion-time measurement; it
        defaults to the handle's submission time, but the client passes
        the moment planning began so staging is included — the paper's
        completion times include input transfer.
        """
        if timeout_s <= 0:
            raise ValueError("timeout must be > 0")
        t0 = started_at if started_at is not None else handle.submitted_at

        if handle.status.terminal:
            # Already resolved: no need to arm the timeout/AnyOf pair.
            status = handle.status
            if status is GridJobStatus.COMPLETED:
                return self._completed(handle, t0)
            return self._cancelled(handle, reason=status.value)

        terminal = self.env.event()

        def _watch(h: GridJobHandle, status: GridJobStatus) -> None:
            if status.terminal and not terminal.triggered:
                terminal.succeed(status)

        handle.on_status_change(_watch)

        deadline = self.env.timeout(timeout_s)
        yield self.env.any_of([terminal, deadline])

        if terminal.triggered:  # prefer a real outcome over a same-instant timeout
            if not deadline.processed:
                # The job resolved first; the safety-net timer would sit
                # in the heap until timeout_s — withdraw it.
                deadline.cancel()
            status = terminal.value
            if status is GridJobStatus.COMPLETED:
                return self._completed(handle, t0)
            return self._cancelled(handle, reason=status.value)

        # Timeout: cancel remotely, report, request replanning.  Drop our
        # watcher first — cancellation triggers a synchronous KILLED
        # transition that would otherwise settle the orphaned `terminal`
        # event, and the callback must not outlive this tracking attempt.
        handle.off_status_change(_watch)
        self.condorg.cancel(handle.job_id)
        self.stats.timeouts += 1
        self._m_timeouts.inc()
        return self._cancelled(handle, reason="timeout")

    # -- internals ------------------------------------------------------------
    def _completed(self, handle: GridJobHandle, t0: float) -> TrackingResult:
        self.stats.completed += 1
        self._m_completed.inc()
        self._m_completion.observe(self.env.now - t0)
        tally = self.stats.by_site.setdefault(handle.site, [0, 0])
        tally[0] += 1
        self.stats.completion_times.append(self.env.now - t0)
        if handle.idle_time_s is not None:
            self.stats.idle_times.append(handle.idle_time_s)
            self._m_idle.observe(handle.idle_time_s)
        if handle.execution_time_s is not None:
            self.stats.execution_times.append(handle.execution_time_s)
        return TrackingResult(
            job_id=handle.job_id,
            site=handle.site,
            outcome="completed",
            reason=None,
            completion_time_s=self.env.now - t0,
            idle_time_s=handle.idle_time_s,
            execution_time_s=handle.execution_time_s,
        )

    def _cancelled(self, handle: GridJobHandle,
                   reason: str) -> TrackingResult:
        self.stats.cancelled += 1
        self._m_cancelled.inc()
        tally = self.stats.by_site.setdefault(handle.site, [0, 0])
        tally[1] += 1
        return TrackingResult(
            job_id=handle.job_id,
            site=handle.site,
            outcome="cancelled",
            reason=reason,
            completion_time_s=None,
            idle_time_s=handle.idle_time_s,
            execution_time_s=None,
            checkpointed_fraction=handle.checkpointed_fraction,
            lost_work_s=handle.lost_work_s,
        )
