"""Keyed random-number streams.

Every stochastic stage derives its own generator from (seed, stream tag,
epoch, ...) so that reruns are bit-identical and stages never share or
disturb each other's streams.

:func:`keyed_draws` gives the draws of ``keyed_rng(seed, stream, epoch,
ordinal)`` for all of a record's rows at once, without a ``Generator``
per row. It replays numpy's algorithm: ``SeedSequence``'s uint32 hash,
run as vector operations over the rows, ``PCG64``'s seeding and XSL-RR
output step, and the int64 bounded draw of ``Generator.integers``
(32-bit halves of each output, low half first, with Lemire's
multiply-and-reject). So it pins that algorithm: a numpy that changed
it would fail ``tests/test_rng.py``, which checks the replay against
:func:`keyed_rng` draw for draw (numpy 2.4 here).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_U32 = (1 << 32) - 1
_U64 = (1 << 64) - 1
_U128 = (1 << 128) - 1
_I64_MIN = -(1 << 63)

# Stream tags. Distinct per stage so plans, shuffles and masks are
# independent even when keyed by the same (seed, epoch).
PLAN_STREAM = 1
BATCH_STREAM = 2
MASK_STREAM = 3


def keyed_rng(seed: int, *key: int) -> np.random.Generator:
    """Return a generator owned by exactly one (seed, *key) point.

    The same arguments always yield the same stream; any change to any
    component yields an unrelated stream.
    """
    entropy = [seed & _U64] + [k & _U64 for k in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(n: int) -> list[int]:
    """The uint32 words ``SeedSequence`` makes of one entropy int, low word first."""
    words = [n & _U32]
    n >>= 32
    while n:
        words.append(n & _U32)
        n >>= 32
    return words


def _pcg_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for each row of a
    ``(rows, words)`` uint32 entropy matrix. The hash constants depend
    only on the word position, so every step is one vector operation."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _U32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> 16)

    n_words = entropy.shape[1]
    zeros = np.zeros(len(entropy), dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < n_words else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, n_words):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    hash_const = _INIT_B
    state = np.empty((len(entropy), 8), dtype=np.uint32)
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _U32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> 16)
    return state.astype("<u4").view("<u8")


class KeyedDraws:
    """The bounded draws of one row's ``keyed_rng`` generator.

    ``integers(low, high)`` returns what the generator's
    ``integers(low, high)`` returns, as an int, for every int64 range.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, initstate: int, initseq: int):
        # pcg_setseq_128_srandom_r
        self._inc = (initseq << 1 | 1) & _U128
        self._state = ((self._inc + initstate) * _PCG_MULT + self._inc) & _U128
        self._half = None  # the high half of the last output, not drawn yet

    def _next64(self) -> int:
        self._state = state = (self._state * _PCG_MULT + self._inc) & _U128
        rot = state >> 122
        value = ((state >> 64) ^ state) & _U64
        return (value >> rot | value << (64 - rot)) & _U64

    def _next32(self) -> int:
        half = self._half
        if half is None:
            value = self._next64()
            self._half = value >> 32
            return value & _U32
        self._half = None
        return half

    def integers(self, low: int, high: int) -> int:
        span = high - low - 1  # numpy's inclusive range
        if not (0 <= span and _I64_MIN <= low and high <= -_I64_MIN):
            raise ValueError(f"no int64 draw in [{low}, {high})")
        if span >= _U32:
            # a range of exactly 2**32 values takes a 32-bit half as it is
            return low + (self._next32() if span == _U32 else self._bounded64(span))
        if not span:
            return low
        # Lemire's multiply-and-reject, on 32-bit halves
        excl = span + 1
        m = self._next32() * excl
        if m & _U32 < excl:
            threshold = (_U32 - span) % excl
            while m & _U32 < threshold:
                m = self._next32() * excl
        return low + (m >> 32)

    def _bounded64(self, span: int) -> int:
        excl = span + 1
        m = self._next64() * excl
        if m & _U64 < excl:
            threshold = (_U64 - span) % excl
            while m & _U64 < threshold:
                m = self._next64() * excl
        return m >> 64


def keyed_draws(seed: int, stream: int, epoch: int, ordinals: Sequence[int]) -> list[KeyedDraws]:
    """One :class:`KeyedDraws` per ordinal, drawing what
    ``keyed_rng(seed, stream, epoch, ordinal)`` draws.

    Rows are seeded together, one vector hash per count of entropy
    words: an ordinal of 2**32 or more adds a word.
    """
    prefix = _words(seed & _U64) + _words(stream & _U64) + _words(epoch & _U64)
    keys = [_words(ordinal & _U64) for ordinal in ordinals]
    draws: list[KeyedDraws | None] = [None] * len(keys)
    for width in sorted({len(key) for key in keys}):
        rows = [row for row, key in enumerate(keys) if len(key) == width]
        entropy = np.array([prefix + keys[row] for row in rows], dtype=np.uint32)
        for row, (w0, w1, w2, w3) in zip(rows, _pcg_states(entropy).tolist()):
            draws[row] = KeyedDraws(w0 << 64 | w1, w2 << 64 | w3)
    return draws
