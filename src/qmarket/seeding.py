"""Per-trial seeds and generators, derived for a batch of trials at once.

Trial t of a run seeded with `base` draws stream s from
`np.random.default_rng(trial_seed(base, t, s))`, where `compiler.trial_seed`
is `np.random.SeedSequence((base, t, s)).generate_state(1)[0]`.  Both steps
run numpy's SeedSequence hash, fixed 32-bit integer arithmetic that numpy
keeps stable (NEP 19).  Here that hash runs on uint32 arrays with one column
per seed, so a batch costs a few dozen array operations instead of two
SeedSequence builds per trial and stream; the integers, and so the streams,
are the same.  PCG64 still seeds itself from the hashed words.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK32 = 0xFFFFFFFF
_POOL = 4  # SeedSequence's default pool size, in uint32 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashmix, while mixing entropy in
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # while generating state
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_WORDS = 8  # PCG64 reads generate_state(4, np.uint64): eight uint32 words


def _multipliers(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**k mod 2^32 for k < count, as a (count, 1) uint32 column:
    the multiplier SeedSequence holds before each of its successive hash
    steps, which does not depend on the data."""
    out = [init]
    while len(out) < count:
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix_steps(length: int) -> int:
    """Hash steps that mixing `length` entropy words into the pool takes: one
    per pool word, one per ordered pair of pool words, and one per pool word
    for each entropy word beyond the pool."""
    return _POOL * _POOL + _POOL * max(0, length - _POOL)


# Multipliers for entropy of up to 8 words (a base seed below 2^192 with a
# one-word trial id and stream); longer entropy builds its own.
_A = _multipliers(_INIT_A, _MULT_A, _hashmix_steps(8) + 1)
_B = _multipliers(_INIT_B, _MULT_B, _PCG64_WORDS + 1)


def _source_multipliers(src: int) -> tuple[np.ndarray, np.ndarray]:
    """The (4, 1) xor and product multipliers with which pool word `src` is
    hashed for each other pool word, in order, while the pool mixes; its own
    entry is unused."""
    first = _POOL + (_POOL - 1) * src
    xor = np.zeros((_POOL, 1), dtype=np.uint32)
    product = np.zeros((_POOL, 1), dtype=np.uint32)
    others = [d for d in range(_POOL) if d != src]
    xor[others] = _A[first:first + _POOL - 1]
    product[others] = _A[first + 1:first + _POOL]
    return xor, product


_SOURCES = tuple(_source_multipliers(src) for src in range(_POOL))


def _hashmix(values: np.ndarray, xor: np.ndarray, product: np.ndarray) -> np.ndarray:
    """SeedSequence's hash step, on uint32 arrays, which wrap mod 2^32 as its
    C does; the multipliers broadcast over the values."""
    out = values ^ xor
    out *= product
    out ^= out >> 16
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of the hashed words y into the pool words x."""
    out = x * _MIX_L
    out -= y * _MIX_R
    out ^= out >> 16
    return out


def _hash(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """`SeedSequence(e).generate_state(n_words)` for each column e of an
    (L, R) uint32 entropy array, as (n_words, R) uint32, step for step."""
    length, rows = entropy.shape
    steps = _hashmix_steps(length)
    a = _A if steps < len(_A) else _multipliers(_INIT_A, _MULT_A, steps + 1)
    # The pool takes the first entropy words; a short entropy leaves the rest
    # 0, which hashes as SeedSequence's padding does.
    pool = np.zeros((_POOL, rows), dtype=np.uint32)
    pool[:min(length, _POOL)] = entropy[:_POOL]
    pool = _hashmix(pool, a[:_POOL], a[1:_POOL + 1])
    # Each pool word is hashed for each other word and mixed into it; it is
    # not itself changed while it is the source.
    for src, (xor, product) in enumerate(_SOURCES):
        mixed = _mix(pool, _hashmix(pool[src], xor, product))
        mixed[src] = pool[src]
        pool = mixed
    # Each further entropy word is hashed for each pool word and mixed in.
    for src in range(_POOL, length):
        k = _hashmix_steps(src)
        pool = _mix(pool, _hashmix(entropy[src], a[k:k + _POOL], a[k + 1:k + _POOL + 1]))
    return _hashmix(pool[np.arange(n_words) % _POOL], _B[:n_words], _B[1:n_words + 1])


def _words(value) -> tuple[int, ...]:
    """The uint32 words SeedSequence reads from a non-negative integer, least
    significant first; 0 is one word."""
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"a seed must be a non-negative integer, got {value!r}")
    value = int(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return tuple(words)


def _word_groups(values: Sequence[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """`values` grouped by how many uint32 words SeedSequence reads from each,
    since that sets the entropy's layout: per group, the positions of its
    values and their (count, r) words, least significant first."""
    array = np.asarray(values)
    if array.dtype.kind in "iu" and (
        array.size == 0 or (array.min() >= 0 and array.max() <= _MASK32)
    ):
        return [(np.arange(array.size), array.astype(np.uint32)[None])]
    groups: dict[int, tuple[list[int], list[tuple[int, ...]]]] = {}
    for at, value in enumerate(values):
        words = _words(value)
        group = groups.setdefault(len(words), ([], []))
        group[0].append(at)
        group[1].append(words)
    return [(np.array(at), np.array(words, dtype=np.uint32).T) for at, words in groups.values()]


def trial_seeds(base_seed: int, trials: Sequence[int], streams: Sequence[int]) -> np.ndarray:
    """`trial_seed(base_seed, t, s)` for every trial id t in `trials` and stream
    s in `streams`, as a (len(trials), len(streams)) uint32 array."""
    base = _words(base_seed)
    out = np.empty((len(trials), len(streams)), dtype=np.uint32)
    for t_at, t_words in _word_groups(trials):
        for s_at, s_words in _word_groups(streams):
            # Entropy (base, trial, stream) for every trial and stream of the groups.
            shape = (len(t_at), len(s_at))
            entropy = np.empty((len(base) + len(t_words) + len(s_words),) + shape, np.uint32)
            entropy[:len(base)] = np.array(base, dtype=np.uint32)[:, None, None]
            entropy[len(base):len(base) + len(t_words)] = t_words[:, :, None]
            entropy[len(base) + len(t_words):] = s_words[:, None, :]
            out[t_at[:, None], s_at] = _hash(entropy.reshape(len(entropy), -1), 1).reshape(shape)
    return out


class _HashedState(ISeedSequence):
    """Hands `PCG64` the state words it asks its seed sequence for, hashed
    beforehand."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or dtype is not np.uint64:
            raise ValueError("only PCG64's generate_state(4, np.uint64) was hashed")
        return self.words


def generators(seeds: Sequence[int]) -> list[np.random.Generator]:
    """`np.random.default_rng(seed)` for each seed: every seed's PCG64 state
    words hashed in one pass, then each PCG64 seeded from its words."""
    words = np.empty((len(seeds), _PCG64_WORDS // 2), dtype=np.uint64)
    for at, seed_words in _word_groups(seeds):
        state = _hash(seed_words, _PCG64_WORDS).T
        # SeedSequence reads the uint32 words as little-endian uint64 pairs.
        words[at] = np.ascontiguousarray(state, dtype="<u4").view("<u8")
    return [np.random.Generator(np.random.PCG64(_HashedState(row))) for row in words]


# trial_generators derives this many trials' generators at a time.
_GENERATOR_CHUNK = 256


def trial_generators(base_seed: int, trials: int, stream: int) -> Iterator[np.random.Generator]:
    """`default_rng(trial_seed(base_seed, t, stream))` for t in range(trials),
    in order, derived a chunk of trials at a time."""
    for first in range(0, trials, _GENERATOR_CHUNK):
        ids = range(first, min(trials, first + _GENERATOR_CHUNK))
        yield from generators(trial_seeds(base_seed, ids, (stream,))[:, 0])
