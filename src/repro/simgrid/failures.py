"""Fault injection for grid sites.

Two injection styles:

* **Scripted** — a list of :class:`DowntimeWindow` entries, each putting
  a site into a given failure state for a fixed interval.  Used by the
  experiment scenarios so paired algorithm runs see *identical* faults.
* **Stochastic** — an MTBF/MTTR renewal process per site, for long-run
  availability studies and property tests.

Both run as simulation processes and restore sites to UP afterwards.

Spot-style **evictions** are a third shape built from the same parts:
the site first publishes a drain notice (DRAINING for ``notice_s`` —
still running, still accepting), then its slots are reclaimed (DOWN,
killing whatever is left), then capacity returns.  A per-site
stochastic eviction storm drives the one drain→reclaim→restore process.

Restores are *epoch-guarded*: each injection bumps a per-site epoch and
remembers it; the paired restore only fires if the epoch is unchanged,
i.e. no other injector has touched the site since.  Without the guard,
a stochastic outage ending inside a scripted window (or vice versa)
would restore the site to UP while the other fault was still supposed
to be in effect — last-injected-fault-wins is the deterministic rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.sim.engine import Environment
from repro.sim.rng import RngStreams
from repro.simgrid.site import GridSite, SiteState

__all__ = ["DowntimeWindow", "FailureInjector"]

#: what a stochastic failure turns a site into, and how often each
_STOCHASTIC_STATES = (SiteState.DOWN, SiteState.BLACKHOLE)
_STOCHASTIC_WEIGHTS = (0.7, 0.3)


@dataclass(frozen=True, slots=True)
class DowntimeWindow:
    """One scripted fault: ``site`` enters ``state`` during [start, end)."""

    site: str
    start_s: float
    end_s: float
    state: SiteState = SiteState.DOWN

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.end_s <= self.start_s:
            raise ValueError(
                f"invalid window [{self.start_s}, {self.end_s}) for {self.site}"
            )
        if self.state is SiteState.UP:
            raise ValueError("a downtime window cannot inject state UP")


class FailureInjector:
    """Applies scripted windows and/or stochastic failures to sites."""

    def __init__(self, env: Environment, sites: dict[str, GridSite]):
        self.env = env
        self._sites = sites
        #: injected transitions [(time, site, state)] for post-run analysis
        self.log: list[tuple[float, str, SiteState]] = []
        #: per-site injection epoch; a restore is valid only while the
        #: epoch still matches the one its own injection minted.
        self._epoch: dict[str, int] = {}

    def _inject(self, name: str, state: SiteState) -> int:
        """Apply a fault and mint the epoch token guarding its restore."""
        self._sites[name].set_state(state)
        self.log.append((self.env.now, name, state))
        token = self._epoch.get(name, 0) + 1
        self._epoch[name] = token
        return token

    def _restore(self, name: str, token: int) -> None:
        """Restore ``name`` to UP iff its fault is still the live one."""
        if self._epoch.get(name) != token:
            return  # superseded: a newer fault owns the site now
        site = self._sites[name]
        if site.state is SiteState.UP:
            return
        site.set_state(SiteState.UP)
        self.log.append((self.env.now, name, SiteState.UP))

    # -- scripted faults -------------------------------------------------------
    def schedule_windows(self, windows: Iterable[DowntimeWindow]) -> None:
        """Install scripted fault windows (may overlap across sites).

        Overlapping windows on the *same* site are rejected: their
        restore actions would race and the resulting state would depend
        on event ordering rather than the scenario author's intent.
        """
        windows = sorted(windows, key=lambda w: (w.site, w.start_s))
        for a, b in zip(windows, windows[1:]):
            if a.site == b.site and b.start_s < a.end_s:
                raise ValueError(
                    f"overlapping windows on {a.site}: "
                    f"[{a.start_s},{a.end_s}) and [{b.start_s},{b.end_s})"
                )
        for w in windows:
            if w.site not in self._sites:
                raise KeyError(f"unknown site {w.site!r}")
            self.env.process(self._apply_window(w))

    def _apply_window(self, w: DowntimeWindow):
        if w.start_s > self.env.now:
            yield self.env.timeout(w.start_s - self.env.now)
        token = self._inject(w.site, w.state)
        yield self.env.timeout(w.end_s - w.start_s)
        self._restore(w.site, token)

    # -- spot-style evictions --------------------------------------------------
    def start_eviction_storm(
        self,
        rng: RngStreams,
        mtbf_s: float = 4 * 3600.0,
        notice_s: float = 120.0,
        outage_s: float = 600.0,
    ) -> None:
        """Start a Poisson spot-eviction process on every site.

        Each site draws exponential inter-eviction times from its own
        named stream (``<site>/evictions`` — site name *first*, because
        stream names hash on their leading 16 bytes and a common prefix
        would collapse long synthetic-catalog names like ``syn0123``
        into one shared stream), so the schedule is a pure function of
        the seed and never perturbs other streams.
        """
        if not (mtbf_s > 0 and outage_s > 0):  # one is <= 0 or NaN
            raise ValueError(
                f"eviction MTBF and outage must be > 0, got "
                f"mtbf_s={mtbf_s!r}, outage_s={outage_s!r}")
        if not notice_s >= 0:
            raise ValueError(
                f"eviction notice must be >= 0, got notice_s={notice_s!r}")
        for name in sorted(self._sites):
            stream = rng.stream(f"{name}/evictions")
            self.env.process(
                self._eviction_storm(name, stream, mtbf_s, notice_s, outage_s)
            )

    def _eviction_storm(self, name, stream, mtbf_s, notice_s, outage_s):
        site = self._sites[name]
        while True:
            yield self.env.timeout(float(stream.exponential(mtbf_s)))
            if site.state is not SiteState.UP:
                continue  # another fault already owns the site
            yield from self._evict(site, notice_s, outage_s)

    def _evict(self, site: GridSite, notice_s: float, outage_s: float):
        """Drain → reclaim → restore, epoch-guarded like any other fault."""
        name = site.name
        token = self._epoch.get(name, 0) + 1
        self._epoch[name] = token
        site.start_drain(notice_s)
        self.log.append((self.env.now, name, SiteState.DRAINING))
        if notice_s > 0:
            yield self.env.timeout(notice_s)
        if self._epoch.get(name) != token or site.state is not SiteState.DRAINING:
            return  # superseded mid-notice; the newer fault owns the site
        evicted = site.scheduler.running_jobs
        if site.obs.enabled and evicted:
            site.obs.metrics.counter("site.evictions", site=name).inc(evicted)
        # Reclaim: the DOWN transition kills what is left and freezes
        # the slots; the same epoch token guards the eventual restore.
        site.set_state(SiteState.DOWN)
        self.log.append((self.env.now, name, SiteState.DOWN))
        yield self.env.timeout(outage_s)
        self._restore(name, token)

    # -- stochastic faults ---------------------------------------------------------
    def start_stochastic(
        self,
        rng: RngStreams,
        mtbf_s: float = 12 * 3600.0,
        mttr_s: float = 1800.0,
    ) -> None:
        """Start an exponential MTBF/MTTR failure process on every site;
        each failure is DOWN or a silent BLACKHOLE (70/30)."""
        if not (mtbf_s > 0 and mttr_s > 0):  # one is <= 0 or NaN
            raise ValueError(
                f"MTBF and MTTR must be > 0, got mtbf_s={mtbf_s!r}, "
                f"mttr_s={mttr_s!r}")
        for name in sorted(self._sites):
            stream = rng.stream(f"failures-{name}")
            self.env.process(self._stochastic(name, stream, mtbf_s, mttr_s))

    def _stochastic(self, name, stream, mtbf_s, mttr_s):
        import numpy as np

        site = self._sites[name]
        probs = np.asarray(_STOCHASTIC_WEIGHTS, dtype=float)
        probs /= probs.sum()
        while True:
            yield self.env.timeout(float(stream.exponential(mtbf_s)))
            if site.state is not SiteState.UP:
                continue  # a scripted fault is already in effect
            state = _STOCHASTIC_STATES[int(stream.choice(
                len(_STOCHASTIC_STATES), p=probs))]
            token = self._inject(name, state)
            yield self.env.timeout(float(stream.exponential(mttr_s)))
            self._restore(name, token)
