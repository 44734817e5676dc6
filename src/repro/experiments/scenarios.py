"""Scenario and server specifications for the Grid3 experiments.

A :class:`Scenario` describes one concurrent comparison run: the grid,
its faults and background load, the workload size, and the list of
SPHINX server variants that compete for the same resources — the
paper's protocol ("these servers are started at the same time so that
they can compete for the same set of grid resources").

The default fault script mirrors the failure modes Grid3 actually
exhibited and the paper's §4 setup requires:

* a **permanent blackhole** (``mcfarm``) — accepts jobs forever,
  runs none; only scheduler-side timeouts catch it,
* a **big-site blackhole** (``atlas``, 180 advertised CPUs, silently
  broken for the whole run) — the failure mode that punishes
  feedback-less scheduling hardest, because load-rate strategies keep
  feeding a large site whose jobs never come back, while feedback
  flags it after its first timeouts,
* **mid-run outages that do not heal within the run** (``nest``, and
  the big ``ufloridapg``) — jobs killed loudly; the paper's testbed
  sessions were short enough that a site which died mid-experiment
  stayed dead, which is what makes the sticky reliability rule
  (cancelled > completed, no forgiveness) the right call,
* a **transient blackhole** (``spike``) — silent failure that heals,
* a **degradation window** (``cluster28``) — 4x slowdown for a while.

All servers in a scenario see the identical script.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.server import require_non_negative, require_positive
from repro.simgrid.failures import DowntimeWindow
from repro.simgrid.grid import GRID3_SITES, SiteSpec
from repro.simgrid.site import SiteState
from repro.workflow.generator import WorkloadSpec

__all__ = ["ServerSpec", "Scenario", "default_fault_windows"]


@dataclass(frozen=True, slots=True)
class ServerSpec:
    """One SPHINX server variant competing in a scenario."""

    label: str
    algorithm: str
    use_feedback: bool = True
    algorithm_kwargs: dict = field(default_factory=dict)
    use_prediction_correction: bool = True
    estimator_mode: str = "ewma"
    #: eviction tolerance, drain migration plus job checkpoints (see
    #: ServerConfig.migrate_on_drain): None = the chaos plan decides —
    #: its eviction axis arms it; an explicit value wins over the plan
    #: (``False`` pins the kill-and-resubmit baseline even under an
    #: eviction plan).
    migrate_on_drain: Optional[bool] = None


def default_fault_windows(horizon_s: float) -> tuple[DowntimeWindow, ...]:
    """The standard Grid3 fault script (see module docstring)."""
    windows: list[DowntimeWindow] = [
        DowntimeWindow("mcfarm", 0.0, horizon_s, state=SiteState.BLACKHOLE),
        DowntimeWindow("atlas", 0.0, horizon_s, state=SiteState.BLACKHOLE),
        DowntimeWindow("spike", 1800.0, 5400.0, state=SiteState.BLACKHOLE),
        DowntimeWindow("cluster28", 900.0, 4500.0, state=SiteState.DEGRADED),
    ]
    if horizon_s > 1800.0:
        # nest dies loudly 30 min in and never returns this run.
        windows.append(DowntimeWindow("nest", 1800.0, horizon_s))
    if horizon_s > 3600.0:
        # ufloridapg (a big, good site) dies an hour in.
        windows.append(DowntimeWindow("ufloridapg", 3600.0, horizon_s))
    return tuple(windows)


@dataclass(slots=True)
class Scenario:
    """One complete experiment configuration."""

    name: str
    servers: tuple[ServerSpec, ...]
    n_dags: int = 30
    jobs_per_dag: int = 10
    seed: int = 42
    sites: tuple[SiteSpec, ...] = GRID3_SITES
    #: 0 = legacy per-arrival background processes (bit-identical
    #: default); > 0 = batched background arrivals on this interval,
    #: the extreme-scale mode (one kernel event per site per interval).
    background_batch_s: float = 0.0
    #: None = use default_fault_windows(horizon); () = fault-free.
    fault_windows: Optional[tuple[DowntimeWindow, ...]] = None
    monitoring_interval_s: float = 300.0
    horizon_s: float = 24 * 3600.0
    #: per-job resource demands; empty = no policy run.
    job_requirements: dict = field(default_factory=dict)
    #: quota grants: resource -> amount granted per (user, site).
    #: None = users are quota-exempt (the paper's unconstrained runs).
    quota_per_site: Optional[dict] = None
    workload_overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.servers:
            raise ValueError("a scenario needs at least one server")
        labels = [s.label for s in self.servers]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate server labels in {labels}")
        if self.n_dags < 1:
            raise ValueError("need at least one DAG")
        require_non_negative(self, "background_batch_s")
        require_positive(self, "monitoring_interval_s", "horizon_s")

    def workload_spec(self) -> WorkloadSpec:
        kwargs = dict(
            n_dags=self.n_dags,
            jobs_per_dag=self.jobs_per_dag,
            requirements=dict(self.job_requirements),
        )
        kwargs.update(self.workload_overrides)
        return WorkloadSpec(**kwargs)

    def resolved_fault_windows(self) -> tuple[DowntimeWindow, ...]:
        if self.fault_windows is None:
            return default_fault_windows(self.horizon_s)
        return self.fault_windows
