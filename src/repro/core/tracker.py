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

from repro import obs as obs_mod
from repro.services.condorg import CondorG
from repro.sim.engine import Environment
from repro.simgrid.local_scheduler import SiteJob, SiteJobStatus

__all__ = ["JobTracker"]


@dataclass
class TrackerStats:
    """Timing samples of completed jobs (experiment metrics); the
    outcome counts are the registry's ``tracker.*`` counters."""

    completion_times: list = field(default_factory=list)
    idle_times: list = field(default_factory=list)
    execution_times: list = field(default_factory=list)


class JobTracker:
    """Watches the grid jobs Condor-G hands back, applies timeouts,
    collects timings."""

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

    def track(self, job: SiteJob, timeout_s: float, started_at: float):
        """A generator resolving to the cancel reason: None when ``job``
        completed, else ``"timeout"``, ``"killed"`` or ``"failed"``.

        ``started_at`` anchors the completion-time measurement; the
        client passes the moment planning began so staging is included
        — the paper's completion times include input transfer.
        """
        if not timeout_s > 0:  # <= 0 or NaN
            raise ValueError(f"timeout must be > 0, got {timeout_s!r}")

        # An already resolved job (a FAILED submission) arms nothing.
        if not job.status.terminal:
            terminal = self.env.event()

            def _watch(_job: SiteJob, _old: SiteJobStatus,
                       new: SiteJobStatus) -> None:
                if new.terminal and not terminal.triggered:
                    terminal.succeed()

            job.on_status_change(_watch)
            deadline = self.env.timeout(timeout_s)
            yield self.env.any_of([terminal, deadline])

            if not terminal.triggered:
                # Timeout: cancel remotely, report, request replanning.
                # Drop our watcher first — cancellation triggers a
                # synchronous KILLED transition that would otherwise
                # settle the orphaned `terminal` event.
                job.off_status_change(_watch)
                self.condorg.cancel(job.job_id)
                self._m_timeouts.inc()
                self._m_cancelled.inc()
                return "timeout"
            # A real outcome beats a same-instant timeout.
            if not deadline.processed:
                # The safety-net timer would sit in the heap until
                # timeout_s — withdraw it.
                deadline.cancel()

        if job.status is SiteJobStatus.COMPLETED:
            self._completed(job, self.env.now - started_at)
            return None
        self._m_cancelled.inc()
        return job.status.value

    # -- internals ------------------------------------------------------------
    def _completed(self, job: SiteJob, completion_time_s: float) -> None:
        self._m_completed.inc()
        self._m_completion.observe(completion_time_s)
        self.stats.completion_times.append(completion_time_s)
        if job.idle_time_s is not None:
            self.stats.idle_times.append(job.idle_time_s)
            self._m_idle.observe(job.idle_time_s)
        if job.execution_time_s is not None:
            self.stats.execution_times.append(job.execution_time_s)
