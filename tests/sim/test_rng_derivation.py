"""The seed derivation, pinned against its literal formulas.

``RngStreams`` derives a stream per name with numpy's ``SeedSequence``
and derives many rows at once with a vectorised port of it
(``spawn_many``, ``prime_streams``).  The slow twins below are the
formulas as first written; every recorded run's bit-identity rests on
them, so the per-name path must equal them and the bulk path must
equal the per-name path.
"""

import copy
import math
import random

import numpy as np
import pytest

from repro.sim.engine import Environment
from repro.sim.rng import RngStreams, prime_streams
from repro.simgrid.grid import make_grid3, synthetic_sites

SEEDS = (0, 42, 2**32 - 1, 2**32, 2**64 + 12_345)
#: empty, longer than 16 bytes, non-ASCII, and pairs sharing a 16-byte
#: prefix (their streams are the same by design)
NAMES = ("", "x" * 40, "é" * 8 + "a", "é" * 8 + "b", "service-noise",
         "background-syn0001", "background-syn0002", "site-acdc")


def literal_stream(seed: int, name: str) -> np.random.Generator:
    digest = np.frombuffer(
        name.encode("utf-8").ljust(16, b"\0")[:16], dtype=np.uint32
    )
    ss = np.random.SeedSequence([seed, *digest.tolist()])
    return np.random.default_rng(ss)


def literal_spawn_seed(seed: int, name: str) -> int:
    digest = np.frombuffer(
        name.encode("utf-8").ljust(16, b"\0")[:16], dtype=np.uint32
    )
    return int(
        np.random.SeedSequence([seed, 0xC0FFEE, *digest.tolist()])
        .generate_state(1)[0]
    )


def first_draws(gen: np.random.Generator) -> list:
    return gen.integers(0, 2**63, 3).tolist() + gen.random(2).tolist()


def names_of(n: int) -> list[str]:
    return [NAMES[i] if i < len(NAMES) else f"syn{i:04d}" for i in range(n)]


@pytest.mark.parametrize("seed", SEEDS)
def test_per_name_path_matches_literal_formulas(seed):
    for name in NAMES:
        assert RngStreams(seed).spawn(name).seed == literal_spawn_seed(seed, name)
        assert (first_draws(RngStreams(seed).stream(name))
                == first_draws(literal_stream(seed, name)))


@pytest.mark.parametrize("n", (1, 15, 2_500))
@pytest.mark.parametrize("seed", SEEDS)
def test_bulk_spawn_matches_per_name(seed, n):
    names = names_of(n)
    root = RngStreams(seed)
    assert ([child.seed for child in root.spawn_many(names)]
            == [root.spawn(name).seed for name in names])


@pytest.mark.parametrize("n", (1, 15, 2_500))
@pytest.mark.parametrize("seed", SEEDS)
def test_primed_streams_match_per_name(seed, n):
    names = names_of(n)
    primed = [RngStreams(seed) for _ in names]
    prime_streams(list(zip(primed, names)))
    for rng, name in zip(primed, names):
        assert (first_draws(rng.stream(name))
                == first_draws(RngStreams(seed).stream(name)))


def test_one_pass_mixes_seed_widths():
    """Seeds of 1, 2 and 3 uint32 words in one call, interleaved: rows
    are grouped by word count and land back in call order."""
    rows = [(RngStreams(seed), name) for seed in SEEDS for name in NAMES]
    random.Random(0).shuffle(rows)
    prime_streams(rows)
    for rng, name in rows:
        assert (first_draws(rng.stream(name))
                == first_draws(literal_stream(rng.seed, name)))


def test_priming_keeps_an_existing_stream():
    rng = RngStreams(5)
    gen = rng.stream("a")
    gen.random(3)
    prime_streams([(rng, "a"), (rng, "b")])
    assert rng.stream("a") is gen
    assert first_draws(rng.stream("b")) == first_draws(literal_stream(5, "b"))


def test_primed_generator_copies_and_refuses_reseeding():
    """Its seed_seq only seeds one PCG64; the generator itself copies."""
    rng = RngStreams(9)
    prime_streams([(rng, "x")])
    gen = rng.stream("x")
    clone = copy.deepcopy(gen)
    assert first_draws(clone) == first_draws(gen)
    with pytest.raises(ValueError, match="one PCG64"):
        gen.bit_generator.seed_seq.generate_state(1)


@pytest.mark.parametrize("seed", (0, 2**64 + 12_345))
def test_grid_streams_follow_the_literal_formulas(seed, monkeypatch):
    """make_grid3 derives every site's streams in bulk (numpy's own
    SeedSequence is never called) and each equals the formula."""
    sites = synthetic_sites(15)

    def per_name(*_a, **_k):
        raise AssertionError("grid build fell back to a per-name derivation")

    monkeypatch.setattr(np.random, "SeedSequence", per_name)
    grid = make_grid3(Environment(), RngStreams(seed), sites)
    monkeypatch.undo()
    for spec in sites:
        site_seed = literal_spawn_seed(seed, f"site-{spec.name}")
        assert (first_draws(grid.site(spec.name)._rng)
                == first_draws(literal_stream(site_seed, "service-noise")))
        bg_seed = literal_spawn_seed(seed, f"bg-{spec.name}")
        phase = literal_stream(bg_seed, f"background-{spec.name}").uniform(
            0.0, 2.0 * math.pi)
        assert grid._background[spec.name]._phase_offset == phase
