"""Unit tests for the GridFTP transfer service."""

import pytest

from repro.sim import Environment
from repro.sim.rng import RngStreams
from repro.services import GridFtpService, ReplicaService, TransferError
from repro.simgrid import Grid, SiteState
from repro.simgrid.grid import SiteSpec


def make_env(n_sites=3):
    env = Environment()
    grid = Grid(env, RngStreams(0))
    for i in range(n_sites):
        grid.add_site(SiteSpec(f"s{i}", n_cpus=4, uplink_mbps=10.0,
                               background_utilization=0.0,
                               service_noise_sigma=0.0))
    rls = ReplicaService(grid.site_names)
    ftp = GridFtpService(env, grid, rls)
    return env, grid, rls, ftp


def put_file(grid, rls, lfn, site, size):
    grid.site(site).store_file(lfn, size)
    rls.register_replica(lfn, site, size)


def run_transfer(env, gen):
    out = {}

    def proc(env):
        try:
            out["elapsed"] = yield from gen
        except TransferError as exc:
            out["error"] = exc

    env.process(proc(env))
    env.run()
    return out


def test_transfer_moves_file_and_registers_replica():
    env, grid, rls, ftp = make_env()
    put_file(grid, rls, "f", "s0", 50.0)
    out = run_transfer(env, ftp.transfer("f", "s0", "s1"))
    assert "error" not in out
    assert grid.site("s1").has_file("f")
    assert set(rls.locations("f")) == {"s0", "s1"}
    assert len(ftp.log) == 1


def test_transfer_time_scales_with_size():
    env, grid, rls, ftp = make_env()
    put_file(grid, rls, "f", "s0", 100.0)
    out = run_transfer(env, ftp.transfer("f", "s0", "s1"))
    # 100 MB over a 10 MB/s path + 0.2 s latency ~ 10.2 s.
    assert out["elapsed"] == pytest.approx(10.2, rel=0.1)


def test_same_site_transfer_is_free():
    env, grid, rls, ftp = make_env()
    put_file(grid, rls, "f", "s0", 100.0)
    out = run_transfer(env, ftp.transfer("f", "s0", "s0"))
    assert out["elapsed"] == 0.0


def test_missing_replica_fails():
    env, grid, rls, ftp = make_env()
    out = run_transfer(env, ftp.transfer("ghost", "s0", "s1"))
    assert isinstance(out["error"], TransferError)
    assert ftp.failed_count == 1


def test_down_source_fails():
    env, grid, rls, ftp = make_env()
    put_file(grid, rls, "f", "s0", 10.0)
    grid.site("s0").set_state(SiteState.DOWN)
    out = run_transfer(env, ftp.transfer("f", "s0", "s1"))
    assert isinstance(out["error"], TransferError)


def test_estimate_uses_rls_size():
    env, grid, rls, ftp = make_env()
    put_file(grid, rls, "f", "s0", 100.0)
    assert ftp.estimate_s("f", "s0", "s1") == pytest.approx(10.2)


def test_estimate_unknown_file_raises():
    env, grid, rls, ftp = make_env()
    with pytest.raises(TransferError):
        ftp.estimate_s("ghost", "s0", "s1")


class TestStageIn:
    def test_noop_when_already_local(self):
        env, grid, rls, ftp = make_env()
        put_file(grid, rls, "f", "s1", 10.0)
        out = run_transfer(env, ftp.stage_in("f", "s1"))
        assert out["elapsed"] == 0.0
        assert len(ftp.log) == 0

    def test_picks_fastest_source(self):
        env, grid, rls, ftp = make_env()
        grid.network.set_uplink("s0", 1.0)    # s0 -> s2 is slow
        grid.network.set_uplink("s1", 100.0)  # s1 -> s2 is fast
        grid.network.set_uplink("s2", 100.0)
        put_file(grid, rls, "f", "s0", 100.0)
        put_file(grid, rls, "f", "s1", 100.0)
        out = run_transfer(env, ftp.stage_in("f", "s2"))
        assert "error" not in out
        assert ftp.log[0][2] == "s1"  # source chosen

    def test_skips_down_replica_holder(self):
        env, grid, rls, ftp = make_env()
        put_file(grid, rls, "f", "s0", 10.0)
        put_file(grid, rls, "f", "s1", 10.0)
        grid.site("s0").set_state(SiteState.DOWN)
        out = run_transfer(env, ftp.stage_in("f", "s2"))
        assert "error" not in out
        assert ftp.log[0][2] == "s1"

    def test_no_live_replica_fails(self):
        env, grid, rls, ftp = make_env()
        put_file(grid, rls, "f", "s0", 10.0)
        grid.site("s0").set_state(SiteState.DOWN)
        out = run_transfer(env, ftp.stage_in("f", "s1"))
        assert isinstance(out["error"], TransferError)
