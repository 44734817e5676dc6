"""Unit tests for the Grid container and Grid3 catalog."""

from dataclasses import replace

import pytest

from repro.sim import Environment
from repro.sim.rng import RngStreams
from repro.simgrid import GRID3_SITES, Grid, make_grid3
from repro.simgrid.grid import SiteSpec


def test_grid3_catalog_shape():
    """The catalog mirrors the paper: 15 named sites advertising 2000+
    CPUs, of which the grid-usable partitions are a fraction."""
    assert len(GRID3_SITES) == 15
    assert sum(s.catalog_cpus for s in GRID3_SITES) > 2000
    for s in GRID3_SITES:
        assert s.n_cpus <= s.catalog_cpus
    # The big Tier-2 centres overstate the most.
    tier2 = next(s for s in GRID3_SITES if s.name == "tier2-01")
    assert tier2.catalog_cpus > 2 * tier2.n_cpus
    names = {s.name for s in GRID3_SITES}
    # Site names from the paper's Figure 6.
    assert {"acdc", "atlas", "mcfarm", "nest", "spider", "spike",
            "ufloridapg", "uscmstb"} <= names


def test_grid3_heterogeneous():
    perf = {s.perf_factor for s in GRID3_SITES}
    cpus = {s.n_cpus for s in GRID3_SITES}
    assert len(perf) > 5 and len(cpus) > 5


def test_make_grid3_builds_all_sites():
    env = Environment()
    grid = make_grid3(env, RngStreams(0))
    assert len(grid) == 15
    assert sum(grid.advertised_catalog.values()) > 2000
    assert "acdc" in grid
    assert grid.site("acdc").n_cpus == 140          # grid-usable partition
    assert grid.advertised_catalog["acdc"] == 250   # what the catalog says


def test_duplicate_site_rejected():
    env = Environment()
    grid = Grid(env, RngStreams(0))
    grid.add_site(SiteSpec("x", 10))
    with pytest.raises(ValueError, match="duplicate"):
        grid.add_site(SiteSpec("x", 10))


def test_duplicate_in_one_batch_adds_nothing():
    grid = Grid(Environment(), RngStreams(0))
    with pytest.raises(ValueError, match="duplicate site 'y'"):
        grid.add_sites([SiteSpec("x", 10), SiteSpec("y", 10),
                        SiteSpec("y", 10)])
    assert len(grid) == 0


def test_batch_equals_site_by_site():
    """One add_sites call and one add_site per spec draw the same."""
    specs = GRID3_SITES[:4] + (SiteSpec("idle", 4, background_utilization=0),)
    batch = Grid(Environment(), RngStreams(3))
    batch.add_sites(specs)
    single = Grid(Environment(), RngStreams(3))
    for spec in specs:
        single.add_site(spec)
    for spec in specs:
        assert (batch.site(spec.name)._rng.random(4).tolist()
                == single.site(spec.name)._rng.random(4).tolist())
    assert ({n: batch._background[n]._phase_offset for n in batch._background}
            == {n: single._background[n]._phase_offset
                for n in single._background})
    assert "idle" not in batch._background


def test_iteration_in_catalog_order():
    env = Environment()
    grid = make_grid3(env, RngStreams(0))
    assert [s.name for s in grid] == [s.name for s in GRID3_SITES]
    assert grid.site_names == tuple(s.name for s in GRID3_SITES)


def test_network_uplinks_configured():
    env = Environment()
    grid = make_grid3(env, RngStreams(0))
    # tier2-01 has a 60 MB/s uplink; nest has 5 -> path min is 5.
    assert grid.network.bandwidth_mbps("tier2-01", "nest") == 5.0


def test_background_generates_competing_load():
    env = Environment()
    grid = make_grid3(env, RngStreams(1))
    env.run(until=2000.0)
    total_bg = sum(grid._background[n].submitted for n in grid.site_names)
    assert total_bg > 50


def test_background_override():
    env = Environment()
    grid = make_grid3(
        env,
        RngStreams(1),
        sites=[replace(s, background_utilization=0.0) if s.name == "acdc"
               else s for s in GRID3_SITES],
    )
    env.run(until=2000.0)
    assert "acdc" not in grid._background  # 0.0 -> no generator at all


def test_subset_of_sites():
    env = Environment()
    grid = make_grid3(env, RngStreams(0), sites=GRID3_SITES[:3])
    assert len(grid) == 3


def test_deterministic_construction():
    def build(seed):
        env = Environment()
        grid = make_grid3(env, RngStreams(seed))
        env.run(until=500.0)
        return [
            (s.name, s.queued_jobs, s.running_jobs) for s in grid
        ]

    assert build(5) == build(5)
