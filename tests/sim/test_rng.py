"""Unit and property tests for hierarchical RNG streams."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.rng import RngStreams


@pytest.mark.parametrize("seed, error", [
    (-1, ValueError), (2.7, TypeError), (2.0, TypeError),
    (True, TypeError), ("3", TypeError), (None, TypeError),
])
def test_bad_seed_rejected_at_construction(seed, error):
    with pytest.raises(error, match="seed"):
        RngStreams(seed)


def test_numpy_integer_seed_is_an_int():
    assert RngStreams(np.int64(7)).seed == 7
    assert type(RngStreams(np.uint32(7)).seed) is int
    assert np.array_equal(RngStreams(np.int64(7)).stream("x").random(4),
                          RngStreams(7).stream("x").random(4))


def test_same_seed_same_stream():
    a = RngStreams(seed=7).stream("workload")
    b = RngStreams(seed=7).stream("workload")
    assert np.array_equal(a.random(16), b.random(16))


def test_different_names_differ():
    rs = RngStreams(seed=7)
    a = rs.stream("workload").random(16)
    b = rs.stream("failures").random(16)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngStreams(seed=1).stream("x").random(16)
    b = RngStreams(seed=2).stream("x").random(16)
    assert not np.array_equal(a, b)


def test_stream_is_cached():
    rs = RngStreams(seed=3)
    assert rs.stream("a") is rs.stream("a")


def test_new_stream_does_not_perturb_existing():
    """Drawing from stream A must give the same values whether or not
    stream B was created in between — the comparability guarantee."""
    rs1 = RngStreams(seed=11)
    first = rs1.stream("a").random(8)

    rs2 = RngStreams(seed=11)
    rs2.stream("b")  # interleaved creation
    second = rs2.stream("a").random(8)
    assert np.array_equal(first, second)


def test_spawn_children_independent():
    root = RngStreams(seed=5)
    site1 = root.spawn("site1")
    site2 = root.spawn("site2")
    assert site1.seed != site2.seed
    a = site1.stream("service").random(8)
    b = site2.stream("service").random(8)
    assert not np.array_equal(a, b)


def test_spawn_deterministic():
    a = RngStreams(seed=5).spawn("site1").stream("x").random(4)
    b = RngStreams(seed=5).spawn("site1").stream("x").random(4)
    assert np.array_equal(a, b)


@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       name=st.text(min_size=1, max_size=32))
@settings(max_examples=50, deadline=None)
def test_property_reproducible_for_any_name(seed, name):
    a = RngStreams(seed).stream(name).integers(0, 1_000_000, 4)
    b = RngStreams(seed).stream(name).integers(0, 1_000_000, 4)
    assert np.array_equal(a, b)


@given(name1=st.text(min_size=1, max_size=16), name2=st.text(min_size=1, max_size=16))
@example("é" * 8 + "a", "é" * 8 + "b")  # 16 bytes apart only past byte 16
@settings(max_examples=50, deadline=None)
def test_property_prefix_distinct_names_distinct_streams(name1, name2):
    if name1.encode()[:16] == name2.encode()[:16]:
        return  # identical 16-byte prefixes legitimately share a stream
    rs = RngStreams(seed=42)
    a = rs.stream(name1).random(8)
    b = rs.stream(name2).random(8)
    assert not np.array_equal(a, b)
