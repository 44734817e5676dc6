"""A grid site: CPUs, local batch system, storage, and fault states.

Grid3 sites were heterogeneous (different CPU counts and speeds),
independently administered (local priorities per VO proxy), and
unreliable in two qualitatively different ways the paper's feedback
mechanism must catch:

* **downtime** — the site goes away; queued and running jobs are killed
  (a loud failure, visible to the job tracker immediately);
* **blackhole** — the site keeps accepting jobs but never runs them
  ("slow response time" / "a job planned on a site may never complete");
  nothing fails loudly, so only a scheduler-side timeout notices.

:class:`GridSite` composes a :class:`~repro.simgrid.local_scheduler.
LocalScheduler` with a performance model (per-site speed factor +
log-normal service noise), a file store, and the fault state machine.
"""

from __future__ import annotations

import enum
import math
from typing import Optional, Sequence

from repro import obs as _obs
from repro.sim.engine import Environment
from repro.sim.rng import RngStreams
from repro.simgrid.local_scheduler import LocalScheduler, SiteJob

__all__ = ["GridSite", "SiteState", "SiteUnavailableError", "StorageFullError"]


class SiteUnavailableError(RuntimeError):
    """Submission to a site that is down."""


class StorageFullError(RuntimeError):
    """A file write would exceed the site's disk capacity."""


class SiteState(enum.Enum):
    """Operational state of a site."""

    UP = "up"                # normal operation
    DOWN = "down"            # offline: submissions rejected, jobs killed
    BLACKHOLE = "blackhole"  # accepts jobs, never starts them
    DEGRADED = "degraded"    # running, but much slower than normal
    DRAINING = "draining"    # spot-style notice: still running, but the
    #                          site's slots will be reclaimed at the
    #                          published drain deadline


class GridSite:
    """One site of the grid.

    Parameters
    ----------
    env, rng:
        Simulation environment and this site's private RNG streams
        (spawned from the experiment root so sites are independent).
    name:
        Site identifier (e.g. ``"ufloridapg"``).
    n_cpus:
        Batch slots.
    perf_factor:
        Service-time multiplier relative to the reference CPU: 1.0 =
        reference speed, 2.0 = half speed.  Grid3 hardware spanned
        several generations, so factors in [0.6, 2.5] are realistic.
    service_noise_sigma:
        Sigma of the log-normal noise applied to every service time
        (shared-node jitter, I/O interference).
    degraded_factor:
        Extra multiplier applied while the site is DEGRADED.
    disk_capacity_mb:
        Storage element size; writes beyond it raise
        :class:`StorageFullError` (the paper's "hard disk quota"
        concern made physical).  Default: unlimited.
    """

    def __init__(
        self,
        env: Environment,
        rng: RngStreams,
        name: str,
        n_cpus: int,
        perf_factor: float = 1.0,
        service_noise_sigma: float = 0.1,
        degraded_factor: float = 4.0,
        disk_capacity_mb: float = float("inf"),
    ):
        # `not x > 0` rather than `x <= 0`: NaN stops here, not mid-run
        for field, value in (("perf_factor", perf_factor),
                             ("degraded_factor", degraded_factor),
                             ("disk_capacity_mb", disk_capacity_mb)):
            if not value > 0:
                raise ValueError(
                    f"GridSite.{field} must be > 0, got {value!r}")
        if not service_noise_sigma >= 0:
            raise ValueError("GridSite.service_noise_sigma must be >= 0, "
                             f"got {service_noise_sigma!r}")
        self.env = env
        self.name = name
        self.perf_factor = perf_factor
        self.service_noise_sigma = service_noise_sigma
        self.degraded_factor = degraded_factor
        self.disk_capacity_mb = disk_capacity_mb
        self._rng = rng.stream("service-noise")
        self._noise: list[float] = []  # standard normals drawn ahead
        self._state = SiteState.UP
        self.scheduler = LocalScheduler(env, n_cpus, self._service_time, name=name)
        #: logical files present at this site (lfn -> size_mb)
        self._storage: dict[str, float] = {}
        #: per-proxy priority overrides (site-local relegation)
        self._proxy_priority: dict[str, int] = {}
        #: state transition history [(time, state)] for analysis
        self.state_history: list[tuple[float, SiteState]] = [(env.now, SiteState.UP)]
        #: eviction deadline while DRAINING (spot-style notice), else None
        self.drain_deadline: Optional[float] = None
        #: callbacks fired on every state transition with
        #: ``(site, old_state, new_state)`` — the hook schedulers use to
        #: hear drain notices the instant they are published.
        self._state_listeners: list = []
        # Observability hook; the experiment runner swaps in a live
        # :class:`repro.obs.Obs` so fault transitions land in the trace.
        # (Attribute assignment, not a constructor argument, because
        # sites are built deep inside :class:`~repro.simgrid.grid.Grid`.)
        self._obs = _obs.NULL_OBS

    @property
    def obs(self) -> "_obs.Obs":
        return self._obs

    @obs.setter
    def obs(self, value) -> None:
        # Forward to the scheduler so reservation/backfill metrics carry
        # the site label without the runner knowing about the calendar.
        self._obs = value
        self.scheduler.obs = value

    # -- static attributes the paper's algorithms read -----------------------------
    @property
    def n_cpus(self) -> int:
        return self.scheduler.n_cpus

    @property
    def state(self) -> SiteState:
        return self._state

    @property
    def is_up(self) -> bool:
        return self._state is not SiteState.DOWN

    # -- fault state machine ---------------------------------------------------------
    def set_state(self, state: SiteState) -> None:
        """Transition the site; side effects follow the state semantics."""
        if state is self._state:
            return
        old, self._state = self._state, state
        if state is not SiteState.DRAINING:
            self.drain_deadline = None
        self.state_history.append((self.env.now, state))
        if self.obs.enabled:
            self.obs.metrics.counter(
                "site.state_transitions", site=self.name, state=state.value
            ).inc()
            self.obs.tracer.instant(
                f"site {self.name}: {old.value} -> {state.value}",
                component="grid", lane=self.name,
                site=self.name, state=state.value,
            )
        if state is SiteState.DOWN:
            # Loud failure: everything in the batch system dies, and
            # confirmed reservations release their held slots instead of
            # leaking them into the frozen pool.
            self.scheduler.release_reservations()
            self.scheduler.kill_all()
            self.scheduler.freeze()
        elif state is SiteState.BLACKHOLE:
            # Silent failure: stop starting jobs, keep accepting them.
            self.scheduler.freeze()
        elif state is SiteState.DRAINING:
            # Notice window: the site keeps accepting and running work
            # until the drain deadline; no batch-system side effects.
            pass
        else:
            if old in (SiteState.DOWN, SiteState.BLACKHOLE):
                self.scheduler.thaw()
        listeners = self._state_listeners
        if listeners:
            # Fired after the batch-system side effects so listeners see
            # the post-transition world; copy because a callback may
            # (de)register listeners while we iterate.
            for cb in list(listeners):
                cb(self, old, state)

    def add_state_listener(self, callback) -> None:
        """Register ``callback(site, old_state, new_state)`` on every
        transition (e.g. a scheduler watching for drain notices)."""
        self._state_listeners.append(callback)

    def start_drain(self, notice_s: float) -> float:
        """Publish a spot-style eviction notice and enter DRAINING.

        The site keeps accepting and running work for ``notice_s`` more
        seconds; the caller (normally the failure injector) is expected
        to reclaim the slots at the returned deadline.  State listeners
        fire with the DRAINING transition and can read
        :attr:`drain_deadline` to migrate work inside the window.
        """
        if notice_s < 0:
            raise ValueError("drain notice must be >= 0 seconds")
        self.drain_deadline = self.env.now + notice_s
        self.set_state(SiteState.DRAINING)
        return self.drain_deadline

    # -- local policy -------------------------------------------------------------------
    def set_proxy_priority(self, proxy: str, priority: int) -> None:
        """Site-local relegation/promotion of a VO proxy's priority."""
        self._proxy_priority[proxy] = priority

    def priority_for(self, proxy: str, default: int = 10) -> int:
        return self._proxy_priority.get(proxy, default)

    # -- storage -----------------------------------------------------------------------
    def store_file(self, lfn: str, size_mb: float) -> None:
        if size_mb < 0:
            raise ValueError("size must be >= 0")
        growth = size_mb - self._storage.get(lfn, 0.0)
        if self.stored_mb + growth > self.disk_capacity_mb:
            raise StorageFullError(
                f"{self.name}: {size_mb} MB does not fit "
                f"({self.free_mb:.0f} MB free)"
            )
        self._storage[lfn] = size_mb

    @property
    def free_mb(self) -> float:
        return self.disk_capacity_mb - self.stored_mb

    def delete_file(self, lfn: str) -> None:
        self._storage.pop(lfn, None)

    def has_file(self, lfn: str) -> bool:
        return lfn in self._storage

    @property
    def stored_mb(self) -> float:
        return sum(self._storage.values())

    @property
    def files(self) -> tuple[str, ...]:
        return tuple(self._storage)

    # -- advance reservations -------------------------------------------------------------
    def reserve(
        self, res_id: str, start_s: float, duration_s: float, cpus: int = 1
    ) -> bool:
        """Admit a reservation window; False when rejected or site DOWN.

        BLACKHOLE sites confirm reservations just as they accept jobs —
        silently and uselessly; the window-end timer cleans them up.
        """
        if self._state is SiteState.DOWN:
            return False
        return self.scheduler.reserve(res_id, start_s, duration_s, cpus)

    def cancel_reservation(self, res_id: str) -> bool:
        """Withdraw a reservation (client replan or server give-up)."""
        return self.scheduler.cancel_reservation(res_id)

    # -- job submission -------------------------------------------------------------------
    def submit(
        self,
        job_id: str,
        runtime_s: float,
        owner: str = "anonymous",
        priority: Optional[int] = None,
        reservation_id: Optional[str] = None,
        checkpoint_interval_s: float = 0.0,
        checkpoint_cost_s: float = 0.0,
    ) -> SiteJob:
        """Submit a job to this site's batch system.

        Raises :class:`SiteUnavailableError` when the site is DOWN — the
        Globus gatekeeper does not answer.  BLACKHOLE sites accept the
        job silently, which is precisely their danger.  DRAINING sites
        still accept work — the notice window is exactly for finishing
        or moving jobs.  ``reservation_id`` claims a slot of a
        confirmed reservation; ``checkpoint_interval_s`` > 0 makes the
        job persist progress every interval at ``checkpoint_cost_s``
        CPU-seconds per write; see :meth:`LocalScheduler.submit`.
        """
        if self._state is SiteState.DOWN:
            raise SiteUnavailableError(f"site {self.name} is down")
        prio = priority if priority is not None else self.priority_for(owner)
        job = SiteJob(
            job_id=job_id, owner=owner, runtime_s=runtime_s, priority=prio,
            checkpoint_interval_s=checkpoint_interval_s,
            checkpoint_cost_s=checkpoint_cost_s,
        )
        return self.scheduler.submit(job, reservation_id=reservation_id)

    def submit_local(
        self, runtimes: Sequence[float], owner: str, priority: int,
        prefix: str, first_id: int,
    ) -> None:
        """One arrival of local load — jobs nobody watches; job ``i`` is
        ``prefix + str(first_id + i)``.  The gatekeeper rule of
        :meth:`submit`; see :meth:`LocalScheduler.submit_local`."""
        if self._state is SiteState.DOWN:
            raise SiteUnavailableError(f"site {self.name} is down")
        self.scheduler.submit_local(runtimes, owner, priority, prefix, first_id)

    def kill(self, job_id: str) -> bool:
        """Remote cancellation (what the SPHINX client sends on timeout)."""
        return self.scheduler.kill(job_id)

    # -- monitoring observables ----------------------------------------------------------
    @property
    def queued_jobs(self) -> int:
        return self.scheduler.queued_jobs

    @property
    def running_jobs(self) -> int:
        return self.scheduler.running_jobs

    # -- internals ----------------------------------------------------------------------
    def _service_time(self, runtime_s: float) -> float:
        factor = self.perf_factor
        if self._state is SiteState.DEGRADED:
            factor *= self.degraded_factor
        sigma = self.service_noise_sigma
        if sigma > 0:
            # normal(0, sigma) is 0.0 + sigma * z over the same z's, and
            # nothing else draws from this stream: one numpy call per 32
            noise = self._noise
            if not noise:
                noise.extend(self._rng.standard_normal(32)[::-1].tolist())
            factor *= math.exp(0.0 + sigma * noise.pop())
        return runtime_s * factor

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"GridSite({self.name!r}, cpus={self.n_cpus}, "
            f"perf={self.perf_factor}, state={self._state.value})"
        )
