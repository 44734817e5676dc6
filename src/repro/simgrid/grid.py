"""The grid: a collection of sites plus network, VOs, and fault plumbing.

Includes a **Grid3 catalog** modelled on the testbed of the paper: the
site names are the ones appearing in the paper's Figure 6 (acdc, atlas,
citgrid3, cluster28, grid3, ll03, mcfarm, nest, spider, spike, tier2-01,
tier2b, ufgrid01, ufloridapg, uscmstb), with CPU counts summing past
2000 and performance factors spanning the hardware generations a 2004
production grid actually had.  Absolute values are calibrated only for
*shape*: heterogeneous sizes, heterogeneous speeds, uneven uplinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.sim.engine import Environment
from repro.sim.rng import RngStreams, prime_streams
from repro.simgrid.background import BackgroundLoad
from repro.simgrid.failures import FailureInjector
from repro.simgrid.network import NetworkModel
from repro.simgrid.site import GridSite

__all__ = ["Grid", "SiteSpec", "GRID3_SITES", "make_grid3",
           "synthetic_sites"]


@dataclass(frozen=True, slots=True)
class SiteSpec:
    """Static description of one site in a grid catalog.

    ``advertised_cpus`` is what the *information catalog* claims (whole-
    cluster size); ``n_cpus`` is what the batch system actually serves
    grid users.  On Grid3 these routinely differed — big Tier-2 centres
    advertised hundreds of CPUs of which a fraction was grid-usable —
    which is precisely why "the number of CPUs available on the sites"
    misled schedulers (paper §2).  Defaults to ``n_cpus`` (accurate
    catalog).
    """

    name: str
    n_cpus: int
    perf_factor: float = 1.0
    uplink_mbps: float = 10.0
    background_utilization: float = 0.5
    service_noise_sigma: float = 0.1
    advertised_cpus: int | None = None

    @property
    def catalog_cpus(self) -> int:
        return self.advertised_cpus if self.advertised_cpus else self.n_cpus


#: The Grid3-like catalog (names from the paper's Fig. 6).  The
#: *advertised* counts sum past 2,000 CPUs ("2000+ CPUs"); the actual
#: grid-usable partitions are smaller, most dramatically at the big
#: Tier-2 centres — which are also the most background-loaded.  Both
#: gaps are what defeat static CPU-count scheduling (paper §2).
GRID3_SITES: tuple[SiteSpec, ...] = (
    SiteSpec("acdc",       n_cpus=140, advertised_cpus=250, perf_factor=1.3, uplink_mbps=30.0, background_utilization=0.85),
    SiteSpec("atlas",      n_cpus=100, advertised_cpus=180, perf_factor=0.9, uplink_mbps=20.0, background_utilization=0.80),
    SiteSpec("citgrid3",   n_cpus=40,  advertised_cpus=50,  perf_factor=0.8, uplink_mbps=10.0, background_utilization=0.40),
    SiteSpec("cluster28",  n_cpus=48,  advertised_cpus=64,  perf_factor=1.6, uplink_mbps=8.0,  background_utilization=0.35),
    SiteSpec("grid3",      n_cpus=70,  advertised_cpus=120, perf_factor=1.1, uplink_mbps=15.0, background_utilization=0.70),
    SiteSpec("ll03",       n_cpus=60,  advertised_cpus=90,  perf_factor=0.7, uplink_mbps=10.0, background_utilization=0.55),
    SiteSpec("mcfarm",     n_cpus=32,  advertised_cpus=40,  perf_factor=2.0, uplink_mbps=5.0,  background_utilization=0.30),
    SiteSpec("nest",       n_cpus=24,  advertised_cpus=30,  perf_factor=1.0, uplink_mbps=5.0,  background_utilization=0.30),
    SiteSpec("spider",     n_cpus=90,  advertised_cpus=140, perf_factor=1.5, uplink_mbps=20.0, background_utilization=0.75),
    SiteSpec("spike",      n_cpus=45,  advertised_cpus=60,  perf_factor=0.9, uplink_mbps=8.0,  background_utilization=0.40),
    SiteSpec("tier2-01",   n_cpus=140, advertised_cpus=320, perf_factor=0.7, uplink_mbps=60.0, background_utilization=0.90),
    SiteSpec("tier2b",     n_cpus=120, advertised_cpus=280, perf_factor=1.4, uplink_mbps=50.0, background_utilization=0.85),
    SiteSpec("ufgrid01",   n_cpus=70,  advertised_cpus=100, perf_factor=1.2, uplink_mbps=15.0, background_utilization=0.60),
    SiteSpec("ufloridapg", n_cpus=120, advertised_cpus=220, perf_factor=0.8, uplink_mbps=40.0, background_utilization=0.80),
    SiteSpec("uscmstb",    n_cpus=120, advertised_cpus=198, perf_factor=1.0, uplink_mbps=25.0, background_utilization=0.75),
)


#: the synthetic catalog's own numpy seed
_SYNTHETIC_SEED = 2025


def synthetic_sites(n_sites: int) -> tuple[SiteSpec, ...]:
    """A deterministic synthetic catalog for extreme-scale runs.

    Grid3 had 15 sites; open-science grids that followed it federated
    thousands.  This generator extrapolates the Grid3 *shape* — CPU
    counts spanning two orders of magnitude, overstated advertised
    capacity, heterogeneous speeds and uplinks, background utilization
    skewed toward the big centres — to ``n_sites`` sites, fully
    determined by ``_SYNTHETIC_SEED`` (its own numpy generator;
    grid/workload RNG streams are untouched).
    """
    import numpy as np

    if n_sites < 1:
        raise ValueError("need at least one site")
    rng = np.random.default_rng(_SYNTHETIC_SEED)
    specs = []
    for i in range(n_sites):
        n_cpus = int(rng.integers(8, 129))
        specs.append(SiteSpec(
            name=f"syn{i:04d}",
            n_cpus=n_cpus,
            advertised_cpus=int(n_cpus * rng.uniform(1.0, 2.0)),
            perf_factor=float(rng.uniform(0.7, 1.6)),
            uplink_mbps=float(rng.uniform(5.0, 60.0)),
            background_utilization=float(rng.uniform(0.3, 0.9)),
        ))
    return tuple(specs)


class Grid:
    """A named set of :class:`GridSite` plus network and failure plumbing."""

    def __init__(self, env: Environment, rng: RngStreams,
                 background_batch_s: float = 0.0):
        self.env = env
        self.rng = rng
        self._sites: dict[str, GridSite] = {}
        #: what the information catalog *claims* per site (may overstate
        #: the grid-usable partition); this is what schedulers read.
        self._advertised: dict[str, int] = {}
        self.network = NetworkModel(env)
        self.failures = FailureInjector(env, self._sites)
        self._background: dict[str, BackgroundLoad] = {}
        #: 0 = legacy per-arrival background processes (bit-identical
        #: default); > 0 = batched arrivals on this interval, the
        #: extreme-scale mode (see BackgroundLoad.batch_interval_s).
        self.background_batch_s = background_batch_s

    # -- construction ---------------------------------------------------------
    def add_site(self, spec: SiteSpec) -> GridSite:
        return self.add_sites((spec,))[0]

    def add_sites(self, specs: Iterable[SiteSpec]) -> list[GridSite]:
        """Add ``specs`` in order.

        Every site's and background load's RNG streams are derived in
        one vectorised pass over all of them, not per site.
        """
        specs = list(specs)
        seen = set(self._sites)
        for spec in specs:
            if spec.name in seen:
                raise ValueError(f"duplicate site {spec.name!r}")
            seen.add(spec.name)
        loaded = [s.name for s in specs if s.background_utilization > 0]
        kids = self.rng.spawn_many([f"site-{s.name}" for s in specs]
                                   + [f"bg-{name}" for name in loaded])
        site_rngs = kids[:len(specs)]
        bg_rngs = dict(zip(loaded, kids[len(specs):]))
        # the streams GridSite and BackgroundLoad open at construction
        prime_streams([(rng, "service-noise") for rng in site_rngs]
                      + [(bg_rngs[name], f"background-{name}")
                         for name in loaded])
        return [self._add(spec, rng, bg_rngs.get(spec.name))
                for spec, rng in zip(specs, site_rngs)]

    def _add(self, spec: SiteSpec, rng: RngStreams,
             bg_rng: RngStreams | None) -> GridSite:
        site = GridSite(
            self.env,
            rng,
            spec.name,
            n_cpus=spec.n_cpus,
            perf_factor=spec.perf_factor,
            service_noise_sigma=spec.service_noise_sigma,
        )
        self._sites[spec.name] = site
        self._advertised[spec.name] = spec.catalog_cpus
        self.network.set_uplink(spec.name, spec.uplink_mbps)
        if bg_rng is not None:
            self._background[spec.name] = BackgroundLoad(
                self.env,
                bg_rng,
                site,
                target_utilization=spec.background_utilization,
                batch_interval_s=self.background_batch_s,
            )
        return site

    def start_background(self) -> None:
        """Start every site's competing-load generator."""
        for name in sorted(self._background):
            self._background[name].start()

    # -- lookup -------------------------------------------------------------------
    def site(self, name: str) -> GridSite:
        return self._sites[name]

    def __contains__(self, name: str) -> bool:
        return name in self._sites

    def __len__(self) -> int:
        return len(self._sites)

    def __iter__(self) -> Iterator[GridSite]:
        """Sites in insertion (catalog) order."""
        return iter(self._sites.values())

    @property
    def site_names(self) -> tuple[str, ...]:
        return tuple(self._sites)

    @property
    def total_cpus(self) -> int:
        return sum(s.n_cpus for s in self._sites.values())

    @property
    def advertised_catalog(self) -> dict[str, int]:
        """site -> advertised CPU count: the static information a
        scheduler actually had (may overstate reality)."""
        return dict(self._advertised)


def make_grid3(
    env: Environment,
    rng: RngStreams,
    sites: Iterable[SiteSpec] = GRID3_SITES,
    background_batch_s: float = 0.0,
) -> Grid:
    """Build the Grid3-like testbed and start its background load.

    ``background_batch_s`` > 0 switches every site's background stream
    to batched arrivals on that interval (extreme-scale runs); 0 keeps
    the per-arrival legacy processes.
    """
    grid = Grid(env, rng, background_batch_s=background_batch_s)
    grid.add_sites(sites)
    grid.start_background()
    return grid
