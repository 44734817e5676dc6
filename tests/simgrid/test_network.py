"""Unit tests for the network model."""

import pytest

from repro.sim import Environment
from repro.simgrid import NetworkModel


def test_validation():
    env = Environment()
    with pytest.raises(ValueError):
        NetworkModel(env, default_bandwidth_mbps=0)
    with pytest.raises(ValueError):
        NetworkModel(env, default_latency_s=-1)
    net = NetworkModel(env)
    with pytest.raises(ValueError):
        net.set_uplink("a", 0)
    with pytest.raises(ValueError):
        net.transfer_time(-1, "a", "b")


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("configure,where", [
    (lambda env, v: NetworkModel(env, default_bandwidth_mbps=v), "default"),
    (lambda env, v: NetworkModel(env).set_uplink("a", v), "uplink of 'a'"),
])
@pytest.mark.parametrize("bad", [0.0, -5.0, NAN, INF])
def test_bandwidth_must_be_finite_and_positive(configure, where, bad):
    # an infinite uplink at both ends used to livelock a transfer at one
    # instant: inf * 0.0 is NaN, so the flow never drained
    with pytest.raises(ValueError, match=f"bandwidth of {where} must be "
                                         "finite and > 0"):
        configure(Environment(), bad)


@pytest.mark.parametrize("configure,where", [
    (lambda env, v: NetworkModel(env, default_latency_s=v), "default"),
])
@pytest.mark.parametrize("bad", [-1.0, NAN, INF])
def test_latency_must_be_finite_and_non_negative(configure, where, bad):
    with pytest.raises(ValueError, match=f"latency of {where} must be "
                                         "finite and >= 0"):
        configure(Environment(), bad)


def test_edge_values_are_accepted():
    net = NetworkModel(Environment(), default_latency_s=0.0)
    net.set_uplink("a", 1e-9)
    net.set_uplink("b", 1e12)
    net.set_uplink("c", 1e12)
    assert net.transfer_time(1e-9, "a", "b") == 1.0
    assert net.transfer_time(1.0, "b", "c") == 1e-12


@pytest.mark.parametrize("src,dst", [("a", "a"), ("a", "b")])
def test_negative_size_transfer_is_rejected_before_it_touches_an_uplink(src, dst):
    env = Environment()
    net = NetworkModel(env)

    def mover(env, net):
        with pytest.raises(ValueError):
            yield from net.transfer_process(-1.0, src, dst)

    env.process(mover(env, net))
    env.run()
    assert env.now == 0.0  # not even the latency was waited
    assert net.active_transfers("a") == net.active_transfers("b") == 0


def test_local_access_is_free():
    net = NetworkModel(Environment())
    assert net.transfer_time(1000.0, "s", "s") == 0.0
    assert net.latency_s("s", "s") == 0.0
    assert net.bandwidth_mbps("s", "s") == float("inf")


def test_default_path():
    net = NetworkModel(Environment(), default_bandwidth_mbps=10.0,
                       default_latency_s=0.5)
    assert net.transfer_time(100.0, "a", "b") == pytest.approx(0.5 + 10.0)


def test_path_bandwidth_is_min_of_uplinks():
    net = NetworkModel(Environment())
    net.set_uplink("fast", 100.0)
    net.set_uplink("slow", 5.0)
    assert net.bandwidth_mbps("fast", "slow") == 5.0
    assert net.bandwidth_mbps("slow", "fast") == 5.0


def test_simulated_transfer_matches_estimate_when_uncongested():
    env = Environment()
    net = NetworkModel(env, default_bandwidth_mbps=10.0, default_latency_s=0.0)
    results = []

    def mover(env, net):
        t0 = env.now
        yield from net.transfer_process(50.0, "a", "b")
        results.append(env.now - t0)

    env.process(mover(env, net))
    env.run()
    assert results[0] == pytest.approx(5.0, rel=0.05)


def test_concurrent_transfers_share_bandwidth():
    env = Environment()
    net = NetworkModel(env, default_bandwidth_mbps=10.0, default_latency_s=0.0)
    finish = {}

    def mover(env, net, name):
        yield from net.transfer_process(50.0, "a", "b")
        finish[name] = env.now

    env.process(mover(env, net, "x"))
    env.process(mover(env, net, "y"))
    env.run()
    # Two transfers sharing a 10 MB/s link: each sees ~5 MB/s -> ~10 s.
    assert finish["x"] == pytest.approx(10.0, rel=0.1)
    assert finish["y"] == pytest.approx(10.0, rel=0.1)


def test_zero_size_transfer_is_instant():
    env = Environment()
    net = NetworkModel(env)
    done = []

    def mover(env, net):
        yield from net.transfer_process(0.0, "a", "b")
        done.append(env.now)

    env.process(mover(env, net))
    env.run()
    assert done == [0.0]


def test_active_transfer_counting():
    env = Environment()
    net = NetworkModel(env, default_bandwidth_mbps=1.0, default_latency_s=0.0)

    def mover(env, net):
        yield from net.transfer_process(10.0, "a", "b")

    env.process(mover(env, net))
    env.run(until=1.0)
    assert net.active_transfers("a") == 1
    assert net.active_transfers("b") == 1
    env.run()
    assert net.active_transfers("a") == 0
