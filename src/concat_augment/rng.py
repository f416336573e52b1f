"""Keyed random-number streams.

Every stochastic stage derives its own generator from (seed, stream tag,
epoch, ...) so that reruns are bit-identical and stages never share or
disturb each other's streams.

The mask draws replay ``keyed_rng(seed, stream, epoch, ordinal)``
without a ``Generator`` per row. They follow numpy's algorithm:
``SeedSequence``'s uint32 hash, run as vector operations over the rows,
``PCG64``'s seeding and XSL-RR output step, and the bounded draw of
``Generator.integers`` on 32-bit halves of each output (low half first,
Lemire's multiply-and-reject). :func:`keyed_halves` replays the first
halves of many rows at once, with the 128-bit state as uint64 limbs, and
:func:`bounded_draws` runs the draw on them elementwise;
:func:`keyed_draws` gives one :class:`KeyedDraws` per row, a draw at a
time, for the rare draw that may be rejected. So this module pins that
algorithm: a numpy that changed it would fail ``tests/test_rng.py``,
which checks the replays against :func:`keyed_rng` draw for draw (numpy
2.4 here).
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


def _seed_states(seed: int, stream: int, epoch: int, ordinals: np.ndarray) -> np.ndarray:
    """The ``(rows, 4)`` uint64 ``PCG64`` seed words of
    ``keyed_rng(seed, stream, epoch, ordinal)`` for each uint64 ordinal.
    Rows are hashed together, one vector hash per count of entropy
    words: an ordinal of 2**32 or more adds a word."""
    prefix = _words(seed & _U64) + _words(stream & _U64) + _words(epoch & _U64)
    states = np.empty((len(ordinals), 4), dtype=np.uint64)
    wide = ordinals > _U32
    for rows, n_words in ((~wide, 1), (wide, 2)):
        keys = ordinals[rows]
        if not len(keys):
            continue
        entropy = np.empty((len(keys), len(prefix) + n_words), dtype=np.uint32)
        entropy[:, : len(prefix)] = prefix
        entropy[:, len(prefix)] = keys & _U32
        if n_words == 2:
            entropy[:, -1] = keys >> 32
        states[rows] = _pcg_states(entropy)
    return states


class KeyedDraws:
    """The bounded draws of one row's ``keyed_rng`` generator.

    ``integers(low, high)`` returns what the generator's
    ``integers(low, high)`` returns, as an int, for an int64 range of at
    most 2**32 values, the ranges masks draw from (a CABX record's u32
    fields bound their extents); a wider range raises ``ValueError``.
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
        if not (0 <= span <= _U32 and _I64_MIN <= low and high <= -_I64_MIN):
            raise ValueError(f"no draw of at most 2**32 int64 values in [{low}, {high})")
        if not span:
            return low
        if span == _U32:
            return low + self._next32()  # a range of exactly 2**32 values takes a half as it is
        # Lemire's multiply-and-reject, on 32-bit halves
        excl = span + 1
        m = self._next32() * excl
        if m & _U32 < excl:
            threshold = (_U32 - span) % excl
            while m & _U32 < threshold:
                m = self._next32() * excl
        return low + (m >> 32)


def keyed_draws(seed: int, stream: int, epoch: int, ordinals: Sequence[int]) -> list[KeyedDraws]:
    """One :class:`KeyedDraws` per ordinal, drawing what
    ``keyed_rng(seed, stream, epoch, ordinal)`` draws."""
    keys = np.array([ordinal & _U64 for ordinal in ordinals], dtype=np.uint64)
    return [
        KeyedDraws(w0 << 64 | w1, w2 << 64 | w3)
        for w0, w1, w2, w3 in _seed_states(seed, stream, epoch, keys).tolist()
    ]


_M32 = np.uint64(_U32)
_MULT_HI = np.uint64(_PCG_MULT >> 64)
_MULT_LO = np.uint64(_PCG_MULT & _U64)


def _mul_wide(a: np.ndarray, b: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit products ``a * b`` of uint64s, as (high, low) limbs."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = b & _M32, b >> np.uint64(32)
    low = a0 * b0
    cross0, cross1 = a0 * b1, a1 * b0
    mid = (low >> 32) + (cross0 & _M32) + (cross1 & _M32)
    return a1 * b1 + (cross0 >> 32) + (cross1 >> 32) + (mid >> 32), mid << 32 | low & _M32


def _add_wide(hi, lo, add_hi, add_lo) -> tuple[np.ndarray, np.ndarray]:
    total = lo + add_lo
    return hi + add_hi + (total < lo), total


def _pcg_step(hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """One step of PCG64's 128-bit LCG, ``state * mult + inc``, on limbs."""
    prod_hi, prod_lo = _mul_wide(lo, _MULT_LO)
    return _add_wide(prod_hi + lo * _MULT_HI + hi * _MULT_LO, prod_lo, inc_hi, inc_lo)


def keyed_halves(
    seed: int, stream: int, epoch: int, ordinals: np.ndarray, count: int
) -> np.ndarray:
    """The first ``count`` 32-bit halves that each ordinal's
    ``keyed_rng(seed, stream, epoch, ordinal)`` hands a bounded draw, as
    a ``(rows, count)`` uint64 array: its ``PCG64`` outputs, low half
    first. ``ordinals`` holds uint64 values."""
    states = _seed_states(seed, stream, epoch, np.asarray(ordinals, dtype=np.uint64))
    initstate_hi, initstate_lo, initseq_hi, initseq_lo = states.T
    # pcg_setseq_128_srandom_r: inc = initseq << 1 | 1, then one step from initstate + inc
    inc_hi = initseq_hi << 1 | initseq_lo >> 63
    inc_lo = initseq_lo << 1 | 1
    hi, lo = _pcg_step(*_add_wide(initstate_hi, initstate_lo, inc_hi, inc_lo), inc_hi, inc_lo)
    halves = np.empty((len(states), count + count % 2), dtype=np.uint64)
    for at in range(0, count, 2):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR: the xor of the halves, rotated right by the top 6 bits
        value, rot = hi ^ lo, hi >> 58
        value = value >> rot | value << (-rot & 63)
        halves[:, at] = value & _M32
        halves[:, at + 1] = value >> 32
    return halves[:, :count]


def bounded_draws(halves: np.ndarray, excl: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's draw of ``integers(0, excl)`` from one uint64 32-bit half
    each, elementwise: the draws, and where a draw may not stand. There
    the low word of the product is below ``excl`` (numpy then rejects it
    when it is below ``(2**32 - excl) % excl``), or ``excl`` is over
    ``2**32 - 1``; the caller draws those again through
    :class:`KeyedDraws`."""
    excl = np.asarray(excl, dtype=np.int64)
    bound = np.minimum(excl, _U32).astype(np.uint64)  # a product that fits in 64 bits
    product = halves * bound
    return product >> 32, ((product & _M32) < bound) | (excl > _U32)
