"""Competing background load on grid sites.

Grid3 was shared by seven applications; from any one scheduler's point
of view, the others are exogenous load that fills batch queues and
steals CPU slots.  The paper stresses that "the site with more number
of CPUs might already be overloaded" — this module produces exactly
that situation.

:class:`BackgroundLoad` runs a Poisson arrival process per site.  The
arrival rate is expressed as a *target utilization* so configurations
stay meaningful across sites of different sizes, and can be modulated
over time with a day/night-style sinusoid to keep the environment
dynamic.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.sim.engine import Environment
from repro.sim.rng import RngStreams
from repro.simgrid.site import GridSite, SiteState

__all__ = ["BackgroundLoad"]


class BackgroundLoad:
    """Poisson background job stream against one site.

    Parameters
    ----------
    target_utilization:
        Long-run fraction of the site's CPUs the background stream
        tries to keep busy (0 disables it).
    mean_runtime_s:
        Mean background-job length (exponential).
    modulation_amplitude / modulation_period_s:
        Sinusoidal modulation of the arrival rate, so site load
        genuinely changes over the experiment (amplitude 0 disables it).
    surge_interval_s / surge_jobs_factor / surge_runtime_s:
        Occasionally another VO dumps a whole production batch on the
        site — ``surge_jobs_factor * n_cpus`` jobs at once, each of
        exponential mean ``surge_runtime_s`` — saturating the queue for
        hours.  These sustained saturation events, common on Grid3, are
        what make static capacity numbers useless (paper §2: "the site
        with more number of CPUs might already be overloaded").
        ``surge_interval_s`` is the mean time between surges per site;
        0 disables them.

        The defaults are the Grid3 calibration every grid runs with.
    batch_interval_s:
        0 (default) keeps the legacy per-arrival Poisson process: one
        kernel event per background job, pinned bit-identical by the
        golden regression test.  > 0 switches to **batched arrivals**:
        one kernel event per interval draws the interval's arrival
        count from the same Poisson law (``N ~ Poisson(lambda * dt)``,
        lambda evaluated at the interval midpoint so the sinusoidal
        modulation integrates correctly to first order) and submits
        the whole batch at once.  At 2,500 sites the per-arrival
        process dominates total event volume; batching trades
        within-interval arrival jitter (bounded by the interval) for
        an order-of-magnitude event reduction while preserving
        per-site arrival counts and utilization in distribution.
    """

    def __init__(
        self,
        env: Environment,
        rng: RngStreams,
        site: GridSite,
        target_utilization: float = 0.5,
        mean_runtime_s: float = 1200.0,
        modulation_amplitude: float = 0.6,
        modulation_period_s: float = 4 * 3600.0,
        surge_interval_s: float = 6 * 3600.0,
        surge_jobs_factor: float = 1.0,
        surge_runtime_s: float = 1200.0,
        batch_interval_s: float = 0.0,
    ):
        if not 0.0 <= target_utilization < 1.0:
            raise ValueError("target utilization must be in [0, 1)")
        if not 0.0 <= modulation_amplitude <= 1.0:
            raise ValueError("modulation amplitude must be in [0, 1]")
        # `not x > 0` rather than `x <= 0`: NaN stops here, not mid-run
        for name, value in (("mean_runtime_s", mean_runtime_s),
                            ("modulation_period_s", modulation_period_s),
                            ("surge_jobs_factor", surge_jobs_factor),
                            ("surge_runtime_s", surge_runtime_s)):
            if not value > 0:
                raise ValueError(
                    f"BackgroundLoad.{name} must be > 0, got {value!r}")
        if not surge_interval_s >= 0:
            raise ValueError("BackgroundLoad.surge_interval_s must be >= 0, "
                             f"got {surge_interval_s!r}")
        if not batch_interval_s >= 0:
            raise ValueError("batch interval must be >= 0")
        self.env = env
        self.site = site
        self.target_utilization = target_utilization
        self.mean_runtime_s = mean_runtime_s
        self.modulation_amplitude = modulation_amplitude
        self.modulation_period_s = modulation_period_s
        self.surge_interval_s = surge_interval_s
        self.surge_jobs_factor = surge_jobs_factor
        self.surge_runtime_s = surge_runtime_s
        self.batch_interval_s = batch_interval_s
        self.surges = 0
        self._rng = rng.stream(f"background-{site.name}")
        #: random phase so sites peak at different times — the grid's
        #: load ordering genuinely changes over a run, which is what
        #: makes static capacity information misleading (paper §2).
        self._phase_offset = float(self._rng.uniform(0.0, 2.0 * math.pi))
        #: the next job number; per-arrival, batched and surge share it
        self._next_id = 0
        self.submitted = 0
        self._proc: Optional[object] = None
        #: arrival rate at zero modulation; n_cpus and the target are
        #: fixed for the object's lifetime, so this is loop-invariant
        self._base_rate = target_utilization * site.n_cpus / mean_runtime_s

    def start(self) -> None:
        """Begin generating load (idempotent)."""
        if self.target_utilization == 0.0 or self._proc is not None:
            return
        generate = (
            self._generate_batched if self.batch_interval_s > 0
            else self._generate
        )
        self._proc = self.env.process(generate())
        if self.surge_interval_s > 0:
            self.env.process(self._surge_loop())

    # -- internals --------------------------------------------------------------
    def _rate_per_s(self, at: Optional[float] = None) -> float:
        """Instantaneous arrival rate lambda(t) in jobs/second.

        ``at`` defaults to now; the batched generator evaluates at the
        interval midpoint instead.
        """
        base = self._base_rate
        if self.modulation_amplitude == 0.0:
            return base
        t = self.env.now if at is None else at
        phase = (2.0 * math.pi * t / self.modulation_period_s
                 + self._phase_offset)
        return base * (1.0 + self.modulation_amplitude * math.sin(phase))

    def _submit(self, prefix: str, owner: str, runtimes: list[float]) -> None:
        """Hand one arrival to the site; jobs shorter than 1 s run for 1 s."""
        n = len(runtimes)
        first_id, self._next_id = self._next_id, self._next_id + n
        self.site.submit_local(
            [r if r > 1.0 else 1.0 for r in runtimes],
            owner, prefix, first_id,
        )
        self.submitted += n

    def _generate(self):
        # One arrival per iteration for the whole run; everything stable
        # is hoisted out of the loop.
        timeout = self.env.timeout
        site = self.site
        submit = self._submit
        exponential = self._rng.exponential
        prefix = f"bg.{site.name}."
        mean_runtime = self.mean_runtime_s
        modulated = self.modulation_amplitude != 0.0
        base_rate = self._base_rate
        while True:
            rate = self._rate_per_s() if modulated else base_rate
            if rate <= 0:
                yield timeout(60.0)
                continue
            yield timeout(float(exponential(1.0 / rate)))
            if site.state is SiteState.DOWN:
                continue  # gatekeeper down; local users also locked out
            submit(prefix, "/VO=local/CN=background",
                   [float(exponential(mean_runtime))])

    def _generate_batched(self):
        """Batched arrivals: one kernel event per interval.

        Each interval draws ``N ~ Poisson(lambda(mid) * dt)`` and
        submits the batch at the interval boundary — identical arrival
        counts in distribution, one event instead of N.  Runtime draws
        use the same exponential law as the per-arrival path.
        """
        env = self.env
        timeout = env.timeout
        site = self.site
        rng = self._rng
        prefix = f"bg.{site.name}."
        modulated = self.modulation_amplitude != 0.0
        base_rate = self._base_rate
        interval = self.batch_interval_s
        while True:
            yield timeout(interval)
            if site.state is SiteState.DOWN:
                continue  # gatekeeper down; local users also locked out
            rate = (
                self._rate_per_s(env.now - interval / 2.0)
                if modulated else base_rate
            )
            if rate <= 0:
                continue
            n = int(rng.poisson(rate * interval))
            if n == 0:
                continue
            self._submit(
                prefix, "/VO=local/CN=background",
                rng.exponential(self.mean_runtime_s, size=n).tolist(),
            )

    def _surge_loop(self):
        prefix = f"surge.{self.site.name}."
        while True:
            yield self.env.timeout(
                float(self._rng.exponential(self.surge_interval_s))
            )
            if self.site.state is SiteState.DOWN:
                continue
            self.surges += 1
            n_jobs = max(1, int(self.surge_jobs_factor * self.site.n_cpus))
            self._submit(prefix, "/VO=local/CN=surge", [
                float(self._rng.exponential(self.surge_runtime_s))
                for _ in range(n_jobs)
            ])
