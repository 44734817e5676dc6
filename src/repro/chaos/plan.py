"""Declarative chaos plans: what to break, where, and how hard.

A :class:`ChaosPlan` is the single input to a chaos run.  It describes
faults on three layers:

* **transport** — per-(service, method) message fault rules (drop,
  duplicate, delay-jitter) and scripted partition windows, executed by
  :class:`repro.chaos.bus.ChaoticBus`;
* **component** — scripted or stochastic crash/restart drills for
  servers and clients, executed by
  :class:`repro.chaos.drills.ChaosController`;
* **resource** — extra site downtime windows and/or a stochastic
  site-failure process, layered onto the scenario's own faults through
  the grid's :class:`~repro.simgrid.failures.FailureInjector`.

Everything stochastic is derived from ``plan.seed`` through named
:class:`~repro.sim.rng.RngStreams`, never from global state, so the
same (plan, seed) produces the same fault schedule on every run.

Plans are pure data: building one touches no simulation state, and an
all-defaults plan (``ChaosPlan()``) injects nothing — the controller
treats it as "chaos disabled" and leaves every code path on the
fault-free fast lane.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fnmatch import fnmatch
from typing import Optional

from repro.core.server import require_non_negative, require_positive
from repro.simgrid.failures import DowntimeWindow, EvictionEvent

__all__ = [
    "FaultRule",
    "PartitionWindow",
    "CrashSpec",
    "ChaosPlan",
    "PRESET_PLANS",
    "make_plan",
    "random_plan",
]


@dataclass(frozen=True)
class FaultRule:
    """Message faults for calls matching (service, method) patterns.

    Per call, one uniform draw classifies the outcome: drop (request or
    reply leg, 50/50), duplicate (the handler runs twice, the caller
    sees the first result), extra delay, or clean.  Probabilities are
    therefore exclusive and must sum to at most 1.
    """

    service: str = "sphinx-*"
    method: str = "*"
    drop_p: float = 0.0
    dup_p: float = 0.0
    delay_p: float = 0.0
    #: extra one-way delay drawn uniformly from [0, max_extra_delay_s]
    max_extra_delay_s: float = 0.0
    #: the duplicated dispatch lands this much later (scaled 0.5-1.5x)
    dup_delay_s: float = 1.0

    def __post_init__(self) -> None:
        for name in ("drop_p", "dup_p", "delay_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(
                    f"FaultRule.{name} must be in [0, 1], got {p!r}"
                )
        total = self.drop_p + self.dup_p + self.delay_p
        if total > 1.0 + 1e-9:
            raise ValueError(
                f"FaultRule.drop_p + dup_p + delay_p must be <= 1, "
                f"got {total!r}"
            )
        require_non_negative(self, "max_extra_delay_s", "dup_delay_s")

    def matches(self, service: str, method: str) -> bool:
        return fnmatch(service, self.service) and fnmatch(method, self.method)

    @property
    def active(self) -> bool:
        return self.drop_p > 0 or self.dup_p > 0 or self.delay_p > 0


@dataclass(frozen=True)
class PartitionWindow:
    """Network partition: calls to services matching ``service`` fault
    during [start_s, end_s) — indistinguishable from the service being
    down, which is exactly what a partition looks like to a caller."""

    service: str
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        require_non_negative(self, "start_s")
        if not self.end_s > self.start_s:
            raise ValueError(
                f"PartitionWindow.end_s must be > start_s, "
                f"got {self.end_s!r} (start_s {self.start_s!r})"
            )

    def covers(self, service: str, now: float) -> bool:
        return (self.start_s <= now < self.end_s
                and fnmatch(service, self.service))


@dataclass(frozen=True)
class CrashSpec:
    """Kill one component (and bring it back) during a run.

    ``at_s`` fixes the crash instant; leaving it None draws one
    uniformly from ``window`` using the plan's seed (a "stochastic
    instant" that is still deterministic per plan+seed).  ``label``
    None means every server/client label in the scenario crashes.
    """

    component: str  # "server" | "client"
    at_s: Optional[float] = None
    down_s: float = 120.0
    label: Optional[str] = None
    window: Optional[tuple[float, float]] = None

    def __post_init__(self) -> None:
        if self.component not in ("server", "client"):
            raise ValueError(
                f"CrashSpec.component must be 'server' or 'client', "
                f"got {self.component!r}"
            )
        if self.at_s is None and self.window is None:
            raise ValueError(
                "CrashSpec needs at_s or a window to draw the instant from"
            )
        if self.at_s is not None:
            require_non_negative(self, "at_s")
        require_positive(self, "down_s")
        if self.window is not None and not self.window[0] < self.window[1]:
            raise ValueError(
                f"CrashSpec.window must be (lo, hi) with lo < hi, "
                f"got {self.window!r}"
            )


@dataclass(frozen=True)
class ChaosPlan:
    """One declarative description of everything a chaos run breaks."""

    name: str = "custom"
    seed: int = 0
    rules: tuple[FaultRule, ...] = ()
    partitions: tuple[PartitionWindow, ...] = ()
    crashes: tuple[CrashSpec, ...] = ()
    #: extra scripted site faults (resource layer)
    site_windows: tuple[DowntimeWindow, ...] = ()
    #: stochastic site failures: MTBF (None = off) and MTTR
    site_mtbf_s: Optional[float] = None
    site_mttr_s: float = 1800.0
    #: server-side presumed-lost window; None = derive from the
    #: scenario's job timeout (timeout + grace), the safe default
    presume_lost_after_s: Optional[float] = None
    #: spot-style evictions (resource layer): scripted drain events
    #: and/or a stochastic per-site eviction storm (MTBF; None = off).
    site_evictions: tuple[EvictionEvent, ...] = ()
    eviction_mtbf_s: Optional[float] = None
    eviction_notice_s: float = 120.0
    eviction_outage_s: float = 600.0
    #: survival settings the plan contributes to ``ServerConfig`` when
    #: the eviction axis is active, under whatever a server's spec set
    #: explicitly (``ChaosController.server_config``).  These are
    #: per-*job* progress checkpoints, not the warehouse image.
    migrate_on_drain: bool = True
    job_checkpoint_interval_s: float = 60.0
    job_checkpoint_cost_s: float = 1.0

    def __post_init__(self) -> None:
        require_positive(self, "site_mttr_s", "eviction_outage_s", *(
            name for name in ("site_mtbf_s", "presume_lost_after_s",
                              "eviction_mtbf_s")
            if getattr(self, name) is not None  # None = off / derived
        ))
        require_non_negative(
            self, "eviction_notice_s",
            "job_checkpoint_interval_s", "job_checkpoint_cost_s",
        )

    # -- classification ---------------------------------------------------
    @property
    def transport_active(self) -> bool:
        return bool(self.partitions) or any(r.active for r in self.rules)

    @property
    def eviction_active(self) -> bool:
        """True when the plan drains sites spot-style (scripted or
        stochastic) — the axis that arms job checkpointing and migration."""
        return bool(self.site_evictions) or self.eviction_mtbf_s is not None

    @property
    def active(self) -> bool:
        """False for a no-op plan: the controller then changes nothing."""
        return (self.transport_active or bool(self.crashes)
                or bool(self.site_windows) or self.site_mtbf_s is not None
                or self.eviction_active)

    def rule_for(self, service: str, method: str) -> Optional[FaultRule]:
        """First matching active rule (None = calls pass clean)."""
        for rule in self.rules:
            if rule.active and rule.matches(service, method):
                return rule
        return None

    def in_partition(self, service: str, now: float) -> bool:
        return any(p.covers(service, now) for p in self.partitions)

    def to_dict(self) -> dict:
        """JSON-serializable form (for reports and artifacts)."""
        d = asdict(self)
        d["site_windows"] = [
            {"site": w.site, "start_s": w.start_s, "end_s": w.end_s,
             "state": w.state.value}
            for w in self.site_windows
        ]
        return d


# --------------------------------------------------------------------------
# Preset plans — the documented drills CI runs.  Every preset respects
# the liveness envelope the invariant checker enforces: message loss
# <= 20%, partitions that end well before the horizon.
# --------------------------------------------------------------------------

def _lossy(seed: int) -> ChaosPlan:
    """Message loss + duplication + jitter on every SPHINX service."""
    return ChaosPlan(
        name="lossy",
        seed=seed,
        rules=(
            FaultRule(service="sphinx-*", drop_p=0.15, dup_p=0.05,
                      delay_p=0.20, max_extra_delay_s=5.0),
        ),
    )


def _partition(seed: int) -> ChaosPlan:
    """One server-side partition window plus light message loss."""
    return ChaosPlan(
        name="partition",
        seed=seed,
        rules=(
            FaultRule(service="sphinx-*", drop_p=0.05,
                      delay_p=0.10, max_extra_delay_s=2.0),
        ),
        partitions=(
            PartitionWindow(service="sphinx-server-*",
                            start_s=900.0, end_s=1500.0),
        ),
    )


def _crash(seed: int) -> ChaosPlan:
    """One server crash-recover cycle mid-run."""
    return ChaosPlan(
        name="crash",
        seed=seed,
        crashes=(
            CrashSpec(component="server", at_s=1300.0, down_s=180.0),
        ),
    )


def _full(seed: int) -> ChaosPlan:
    """The acceptance drill: <=20% loss, one server crash, one
    partition window, plus a client crash for good measure."""
    return ChaosPlan(
        name="full",
        seed=seed,
        rules=(
            FaultRule(service="sphinx-*", drop_p=0.10, dup_p=0.05,
                      delay_p=0.15, max_extra_delay_s=4.0),
        ),
        partitions=(
            PartitionWindow(service="sphinx-server-*",
                            start_s=2400.0, end_s=2900.0),
        ),
        crashes=(
            CrashSpec(component="server", at_s=1300.0, down_s=180.0),
            CrashSpec(component="client", at_s=4000.0, down_s=240.0),
        ),
    )


def _sites(seed: int) -> ChaosPlan:
    """Resource-layer chaos: stochastic site outages on top of the
    scenario's own fault windows."""
    return ChaosPlan(
        name="sites",
        seed=seed,
        site_mtbf_s=4 * 3600.0,
        site_mttr_s=900.0,
    )


def _reservation_outage(seed: int) -> ChaosPlan:
    """Crash the big sites mid-run while reservations are live.

    Reserve-ahead servers book stage slots on the largest sites first
    (they rank by predicted completion, ties broken by CPU count), so
    killing grid3/acdc/uscmstb a while into the run guarantees some
    sites die *holding confirmed reservations*.  The reservation-
    conservation invariant then audits that every held slot was
    released by the outage and nothing leaked when the windows closed.
    """
    from repro.simgrid.site import SiteState

    return ChaosPlan(
        name="reservation-outage",
        seed=seed,
        site_windows=(
            DowntimeWindow("grid3", 2000.0, 6500.0),
            DowntimeWindow("acdc", 2400.0, 8000.0),
            DowntimeWindow("uscmstb", 3000.0, 9000.0,
                           state=SiteState.BLACKHOLE),
        ),
    )


def _spot_eviction(seed: int) -> ChaosPlan:
    """Spot-market churn: every site can be drained with 120s notice.

    A stochastic per-site eviction storm (2h MTBF) publishes drain
    notices and reclaims the slots 600s at a time.  The plan arms job
    checkpointing and drain migration on every server whose spec left
    them on auto, so the drill exercises the full preempt → checkpoint
    → migrate → resume loop; the invariants then audit that no DAG is
    lost, every checkpoint fraction stays in [0, 1], and the quota
    ledgers balance across the migrations.
    """
    return ChaosPlan(
        name="spot-eviction",
        seed=seed,
        eviction_mtbf_s=2 * 3600.0,
        eviction_notice_s=120.0,
        eviction_outage_s=600.0,
    )


def _shard_outage(seed: int) -> ChaosPlan:
    """Kill one federation shard long enough to force re-homing.

    The down window (900s) exceeds the federation's default re-home
    grace (600s), so DAGs admitted while ``shard0`` is dark — routed to
    it anyway, because homes own transient outages — wait out the
    grace and get re-homed to a live peer; DAGs shard0 had already
    acknowledged stay put and resume from its warehouse on recovery.
    The federation invariants then audit both halves: nothing lost,
    nothing double-placed, leases conserved across the crash.
    """
    return ChaosPlan(
        name="shard-outage",
        seed=seed,
        crashes=(
            CrashSpec(component="server", at_s=1500.0, down_s=900.0,
                      label="shard0"),
        ),
    )


PRESET_PLANS = {
    "lossy": _lossy,
    "partition": _partition,
    "crash": _crash,
    "full": _full,
    "sites": _sites,
    "spot-eviction": _spot_eviction,
    "reservation-outage": _reservation_outage,
    "shard-outage": _shard_outage,
}


def make_plan(name: str, seed: int = 0) -> ChaosPlan:
    """Build a preset plan by name (see :data:`PRESET_PLANS`)."""
    try:
        factory = PRESET_PLANS[name]
    except KeyError:
        raise ValueError(
            f"unknown chaos plan {name!r}; "
            f"presets: {', '.join(sorted(PRESET_PLANS))}"
        ) from None
    return factory(seed)


def random_plan(seed: int, horizon_s: float = 6 * 3600.0) -> ChaosPlan:
    """A randomized-but-deterministic plan for property-style sweeps.

    All draws come from streams of ``seed``; parameters stay inside the
    liveness envelope (loss <= 20%, one recoverable server crash, one
    bounded partition), so every generated plan is expected to satisfy
    the invariants on a healthy scenario.
    """
    from repro.sim.rng import RngStreams

    rng = RngStreams(seed).stream("chaos-plan")
    rules = (
        FaultRule(
            service="sphinx-*",
            drop_p=round(float(rng.uniform(0.0, 0.20)), 3),
            dup_p=round(float(rng.uniform(0.0, 0.10)), 3),
            delay_p=round(float(rng.uniform(0.0, 0.25)), 3),
            max_extra_delay_s=round(float(rng.uniform(0.5, 8.0)), 2),
        ),
    )
    partitions = ()
    if rng.random() < 0.5:
        start = float(rng.uniform(600.0, horizon_s * 0.25))
        partitions = (
            PartitionWindow(
                service="sphinx-server-*",
                start_s=round(start, 1),
                end_s=round(start + float(rng.uniform(120.0, 600.0)), 1),
            ),
        )
    crashes = ()
    if rng.random() < 0.5:
        crashes = (
            CrashSpec(
                component="server",
                at_s=round(float(rng.uniform(600.0, horizon_s * 0.3)), 1),
                down_s=round(float(rng.uniform(60.0, 300.0)), 1),
            ),
        )
    return ChaosPlan(
        name=f"random-{seed}",
        seed=seed,
        rules=rules,
        partitions=partitions,
        crashes=crashes,
    )
