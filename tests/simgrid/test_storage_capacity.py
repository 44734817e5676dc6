"""Unit tests for site disk capacity (storage element limits)."""

import pytest

from repro.services import GridFtpService, ReplicaService, TransferError
from repro.sim import Environment
from repro.sim.rng import RngStreams
from repro.simgrid import Grid, GridSite
from repro.simgrid.grid import SiteSpec
from repro.simgrid.site import StorageFullError


def make_site(env=None, capacity=100.0):
    env = env or Environment()
    return GridSite(env, RngStreams(0), "s", n_cpus=2,
                    disk_capacity_mb=capacity)


def test_capacity_validation():
    with pytest.raises(ValueError):
        make_site(capacity=0.0)


def test_default_capacity_unlimited():
    env = Environment()
    site = GridSite(env, RngStreams(0), "s", n_cpus=1)
    site.store_file("huge", 1e12)
    assert site.free_mb == float("inf")


def test_store_within_capacity():
    site = make_site(capacity=100.0)
    site.store_file("a", 60.0)
    assert site.free_mb == 40.0


def test_store_beyond_capacity_rejected():
    site = make_site(capacity=100.0)
    site.store_file("a", 60.0)
    with pytest.raises(StorageFullError):
        site.store_file("b", 50.0)
    assert not site.has_file("b")


def test_overwrite_counts_growth_only():
    site = make_site(capacity=100.0)
    site.store_file("a", 90.0)
    site.store_file("a", 95.0)  # growth of 5 fits
    assert site.stored_mb == 95.0
    with pytest.raises(StorageFullError):
        site.store_file("a", 120.0)


class TestGridFtpWithCapacity:
    def make(self):
        env = Environment()
        grid = Grid(env, RngStreams(0))
        grid.add_site(SiteSpec("src", n_cpus=2, background_utilization=0.0))
        grid._sites["dst"] = GridSite(env, RngStreams(1), "dst", n_cpus=2,
                                      disk_capacity_mb=50.0)
        grid._advertised["dst"] = 2
        grid.network.set_uplink("dst", 10.0)
        rls = ReplicaService(env, grid.site_names)
        ftp = GridFtpService(env, grid, rls)
        return env, grid, rls, ftp

    def run(self, env, gen):
        out = {}

        def proc(env):
            try:
                out["ok"] = yield from gen
            except TransferError as exc:
                out["error"] = exc

        env.process(proc(env))
        env.run()
        return out

    def test_transfer_to_full_site_fails_upfront(self):
        env, grid, rls, ftp = self.make()
        grid.site("src").store_file("big", 80.0)
        rls.register_replica("big", "src", 80.0)
        out = self.run(env, ftp.transfer("big", "src", "dst"))
        assert isinstance(out["error"], TransferError)
        assert "full" in str(out["error"])

    def test_transfer_fitting_succeeds(self):
        env, grid, rls, ftp = self.make()
        grid.site("src").store_file("ok", 30.0)
        rls.register_replica("ok", "src", 30.0)
        out = self.run(env, ftp.transfer("ok", "src", "dst"))
        assert "error" not in out
        assert grid.site("dst").has_file("ok")

    def test_mid_flight_fill_up_fails(self):
        env, grid, rls, ftp = self.make()
        grid.site("src").store_file("f", 40.0)
        rls.register_replica("f", "src", 40.0)

        def filler(env):
            yield env.timeout(1.0)  # transfer is in flight
            grid.site("dst").store_file("hog", 45.0)

        env.process(filler(env))
        out = self.run(env, ftp.transfer("f", "src", "dst"))
        assert isinstance(out["error"], TransferError)
