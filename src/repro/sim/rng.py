"""Hierarchical, named random-number streams.

A grid experiment draws randomness for many independent purposes: workload
structure, job service times, background load, site failures, monitoring
noise.  If they all shared one generator, adding a draw in one subsystem
would perturb every other subsystem and destroy run-to-run comparability.

:class:`RngStreams` derives an independent :class:`numpy.random.Generator`
per *name* from a single experiment seed using ``numpy``'s ``SeedSequence``
spawning, so:

* the same (seed, name) always yields the same stream,
* streams for different names are statistically independent,
* adding a new named stream never perturbs existing ones.

The derivation is frozen: a stream is ``SeedSequence`` over the entropy
words ``[*seed_words, *digest16(name)]`` and a child factory's seed is
``generate_state(1)`` over ``[*seed_words, 0xC0FFEE, *digest16(name)]``.
:meth:`RngStreams.stream` and :meth:`RngStreams.spawn` run numpy's own
``SeedSequence`` per name.  :meth:`RngStreams.spawn_many` and
:func:`prime_streams` derive many rows at once with :func:`_bulk_state`,
a vectorised port of ``SeedSequence`` that must stay bit-identical to
the per-name path (``tests/sim/test_rng_derivation.py``).
"""

from __future__ import annotations

import numbers
import struct
from typing import Iterable

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["RngStreams", "prime_streams"]

_MASK = 0xFFFFFFFF
# numpy's SeedSequence constants (pool size 4)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SPAWN_WORD = np.uint32(0xC0FFEE).tobytes()


def _digest16(name: str) -> bytes:
    # Only the first 16 bytes of a name enter the derivation (frozen).
    return name.encode("utf-8").ljust(16, b"\0")[:16]


class RngStreams:
    """Factory of independent named RNG streams rooted at one seed."""

    def __init__(self, seed: int = 0):
        if type(seed) is not int:
            if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
                raise TypeError(f"RngStreams seed must be an int, got {seed!r}")
            seed = int(seed)
        if seed < 0:
            raise ValueError(f"RngStreams seed must be >= 0, got {seed!r}")
        self._seed = seed
        # the seed as SeedSequence splits it: uint32 words, low word first
        n = max(1, (seed.bit_length() + 31) // 32)
        self._words = struct.pack(f"={n}I", *[(seed >> 32 * i) & _MASK
                                              for i in range(n)])
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """The generator for ``name`` (created on first use).

        Only the first 16 bytes of ``name`` enter the seed derivation:
        names that share a 16-byte prefix share a stream.  Callers
        composing names from a fixed prefix plus a long identifier
        (e.g. per-site streams over a synthetic catalog) must put the
        distinguishing part *first*.  The truncation itself is frozen —
        widening it would re-seed every existing long-named stream and
        break bit-identical replay of recorded runs.
        """
        gen = self._streams.get(name)
        if gen is None:
            ss = np.random.SeedSequence(
                np.frombuffer(self._words + _digest16(name), np.uint32))
            gen = self._streams[name] = np.random.default_rng(ss)
        return gen

    def spawn(self, name: str) -> "RngStreams":
        """A child factory with its own namespace (for per-site streams)."""
        ss = np.random.SeedSequence(np.frombuffer(
            self._words + _SPAWN_WORD + _digest16(name), np.uint32))
        return RngStreams(int(ss.generate_state(1)[0]))

    def spawn_many(self, names: Iterable[str]) -> list["RngStreams"]:
        """``[self.spawn(n) for n in names]``, derived in one pass."""
        state = _bulk_state(
            [self._words + _SPAWN_WORD + _digest16(n) for n in names], 1)
        return [RngStreams(s) for s in state[:, 0].tolist()]

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStreams(seed={self._seed}, streams={sorted(self._streams)})"


def prime_streams(rows: Iterable[tuple[RngStreams, str]]) -> None:
    """Create ``rng.stream(name)`` for every ``(rng, name)`` row in one
    pass; a later ``rng.stream(name)`` returns the primed generator.

    The generators are built on :class:`_Preseeded`, so their
    ``bit_generator.seed_seq`` is not a ``SeedSequence`` and cannot
    spawn.
    """
    rows = [(rng, name) for rng, name in rows if name not in rng._streams]
    words = _bulk_state([rng._words + _digest16(name) for rng, name in rows],
                        8)
    # generate_state(4, uint64): word pairs read little-endian, as numpy does
    state = words.astype("<u4").view("<u8").astype(np.uint64)
    for (rng, name), row in zip(rows, state):
        rng._streams[name] = np.random.Generator(
            np.random.PCG64(_Preseeded(row)))


class _Preseeded(ISeedSequence):
    """Hands ``PCG64`` the ``generate_state(4, uint64)`` the bulk path
    already derived."""

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("a primed stream seeds exactly one PCG64")
        return self._state


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The ``n + 1`` values a SeedSequence hash constant takes."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK)
    return np.array(out, np.uint32)


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    # SeedSequence's hashmix, one call per column: call i xors with the
    # hash constant as it enters (consts[i]), multiplies by it advanced
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def _bulk_state(entropy: list[bytes], n_words: int) -> np.ndarray:
    """Row ``i`` is ``SeedSequence(np.frombuffer(entropy[i], np.uint32))
    .generate_state(n_words)``, computed for every row at once.

    Each step of the pool mix uses the same hash constant for every
    row, so the mix runs column by column over uint32 arrays of rows
    sharing a word count.  An entropy here is at least five words (a
    seed word and four name words), more than the pool holds.
    """
    out = np.empty((len(entropy), n_words), np.uint32)
    groups: dict[int, list[int]] = {}
    for i, e in enumerate(entropy):
        groups.setdefault(len(e) // 4, []).append(i)
    b = _hash_consts(_INIT_B, _MULT_B, n_words)
    for n, rows in groups.items():
        ent = np.frombuffer(b"".join([entropy[i] for i in rows]),
                            np.uint32).reshape(len(rows), n)
        a = _hash_consts(_INIT_A, _MULT_A, 4 * n)
        pool = _hashmix(ent[:, :4], a[:5])
        k = 4
        for src in range(4):  # every word into every other
            dst = [d for d in range(4) if d != src]
            pool[:, dst] = _mix(pool[:, dst],
                                _hashmix(pool[:, src:src + 1], a[k:k + 4]))
            k += 3
        for j in range(4, n):  # words beyond the pool, into all of it
            pool = _mix(pool, _hashmix(ent[:, j:j + 1], a[k:k + 5]))
            k += 4
        out[rows] = _hashmix(pool[:, np.arange(n_words) % 4], b)
    return out
