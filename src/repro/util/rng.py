"""Deterministic random-number-generation helpers.

All stochastic components in :mod:`repro` accept an integer seed (or an
already-constructed :class:`numpy.random.Generator`).  Centralizing the
construction here guarantees that two runs with the same seed produce
bitwise-identical streams, which the test suite relies on, and gives
distributed simulations a principled way to derive independent
per-worker streams (:func:`spawn_rngs`) instead of the classic
``seed + rank`` anti-pattern, whose streams can overlap.

Call sites that key millions of streams by id —
``SeedSequence(seed, spawn_key=(ns, uid))`` — derive them in blocks
with :func:`spawn_key_states` and :func:`generator_from_state`: the
same generators, bit for bit, several times cheaper to construct.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Accepts ``None`` (non-deterministic), an ``int``, a
    :class:`~numpy.random.SeedSequence`, or an existing generator
    (returned unchanged so call sites can be seed-or-generator
    polymorphic).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, n: int) -> List[np.random.Generator]:
    """Derive *n* statistically independent generators from one seed.

    Used by the distributed-training and scheduler simulators so every
    simulated worker draws from its own stream.  Independence comes from
    :meth:`numpy.random.SeedSequence.spawn`, which partitions the
    underlying entropy rather than offsetting a single stream.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    if isinstance(seed, np.random.Generator):
        # Derive a SeedSequence from the generator's bit stream.
        seq = np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    elif isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


def spawn_seqs(seed: SeedLike, n: int) -> List[np.random.SeedSequence]:
    """Derive *n* independent :class:`~numpy.random.SeedSequence`\\ s.

    The transport-friendly sibling of :func:`spawn_rngs`: a
    ``SeedSequence`` is a tiny picklable value, so fan-out call sites
    (``repro.par``) pre-spawn one per task in the parent and ship it to
    whichever worker runs the task — the stream is a function of the
    task, not of the backend, which is what makes process results
    bit-exact against serial.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} sequences")
    if isinstance(seed, np.random.Generator):
        seq = np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    elif isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(seed)
    return seq.spawn(n)


def permutation_with_fixed_sum(
    rng: np.random.Generator, total: float, n: int, jitter: float = 0.25
) -> np.ndarray:
    """Split *total* into *n* positive parts summing exactly to *total*.

    Handy for workload generators that must partition a fixed amount of
    work (e.g. job service demand) with bounded relative *jitter*.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if total <= 0:
        raise ValueError("total must be positive")
    weights = 1.0 + jitter * (rng.random(n) - 0.5)
    parts = weights / weights.sum() * total
    return parts


# -- block-derived spawn-key streams ------------------------------------
#
# numpy's SeedSequence hashes its entropy words into a 4-word pool, then
# expands the pool into output words.  For ``SeedSequence(seed,
# spawn_key=(ns, uid))`` every word but the last (``uid``) is shared by
# all uids, so the pool is mixed once per (seed, ns) and only the uid
# word is mixed per block, vectorized in uint32.  The constants below
# are numpy's (numpy/random/bit_generator.pyx); the exactness test in
# tests/test_util.py compares against numpy on every run, so a change
# there fails loudly instead of re-rolling streams.

_MASK32 = 0xFFFFFFFF
#: uint32 words PCG64 draws from its seed sequence (4 x uint64)
_STATE_WORDS = 8
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(n: int) -> List[int]:
    """Little-endian 32-bit words of a non-negative int (numpy's
    ``_int_to_uint32_array``: zero is one word)."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hashmix(value: int, hash_const: int) -> Tuple[int, int]:
    value ^= hash_const
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> _XSHIFT), hash_const


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


@functools.lru_cache(maxsize=64)
def _spawn_prefix(seed: int, ns: int) -> Tuple[Tuple[int, ...], int]:
    """The SeedSequence pool and hash constant after mixing every
    entropy word of ``(seed, spawn_key=(ns, uid))`` except ``uid``."""
    run = _uint32_words(seed)
    # a non-empty spawn key zero-pads the run entropy to the pool size
    run += [0] * (_POOL_SIZE - len(run))
    entropy = run + _uint32_words(ns)
    hash_const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                value, hash_const = _hashmix(pool[i_src], hash_const)
                pool[i_dst] = _mix(pool[i_dst], value)
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const)
            pool[i_dst] = _mix(pool[i_dst], value)
    return tuple(pool), hash_const


def _is_word(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) \
        and x >= 0


def spawn_key_states(seed: int, ns: int,
                     uids: Sequence[int]) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(ns, uid)).generate_state(8)`` for
    every uid in *uids*, as one ``(len(uids), 8)`` uint32 array — the
    words that seed one :class:`~numpy.random.PCG64`
    (:func:`generator_from_state`).

    Uids in ``[0, 2**32)`` are derived in one vectorized pass; larger
    uids (two spawn-key words) and non-integer seeds fall back to
    numpy row by row.
    """
    out = np.empty((len(uids), _STATE_WORDS), dtype=np.uint32)
    ids = np.asarray(uids)
    if not (_is_word(seed) and _is_word(ns) and ns <= _MASK32):
        small = np.zeros(len(uids), dtype=bool)
    elif ids.dtype.kind in "iu":
        small = (ids >= 0) & (ids <= _MASK32)
    else:
        small = np.array([_is_word(u) and u <= _MASK32 for u in uids],
                         dtype=bool)
    for i in np.flatnonzero(~small):
        out[i] = np.random.SeedSequence(
            seed, spawn_key=(ns, uids[i])
        ).generate_state(_STATE_WORDS)
    if not small.any():
        return out
    uid = ids[small].astype(np.uint32)
    prefix, hash_const = _spawn_prefix(int(seed), int(ns))
    pool = []
    for word in prefix:
        # hashmix(uid) into every pool word, as the last entropy word
        value = uid ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> np.uint32(_XSHIFT)
        mixed = np.uint32((_MIX_MULT_L * word) & _MASK32) \
            - np.uint32(_MIX_MULT_R) * value
        mixed ^= mixed >> np.uint32(_XSHIFT)
        pool.append(mixed)
    state = np.empty((uid.size, _STATE_WORDS), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(_STATE_WORDS):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> np.uint32(_XSHIFT)
        state[:, i] = value
    out[small] = state
    return out


class _StateWords(ISeedSequence):
    """A seed sequence whose output words are already known."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = np.ascontiguousarray(words, dtype="<u4")

    def generate_state(self, n_words, dtype=np.uint32):
        if dtype is np.uint64 or np.dtype(dtype) == np.uint64:
            # numpy's layout: little-endian uint32 pairs
            words, dtype = self._words.view("<u8"), np.uint64
        elif np.dtype(dtype) == np.uint32:
            words, dtype = self._words, np.uint32
        else:
            raise ValueError("only support uint32 or uint64")
        if n_words > words.size:
            raise ValueError(f"only {words.size} words are known")
        return words[:n_words].astype(dtype)


def generator_from_state(words: np.ndarray) -> np.random.Generator:
    """The generator ``default_rng(seq)`` builds from a SeedSequence
    whose ``generate_state(8)`` is *words* (a row of
    :func:`spawn_key_states`)."""
    return np.random.Generator(np.random.PCG64(_StateWords(words)))
