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
:func:`bounded_draws` runs the draw on them elementwise. The rare row
whose draw may be rejected is drawn again from its own
:func:`keyed_rng`. So this module pins that algorithm: a numpy that
changed it would fail ``tests/test_rng.py``, which checks the replay
against :func:`keyed_rng` draw for draw (numpy 2.4 here).
"""

from __future__ import annotations

import numpy as np

_U32 = (1 << 32) - 1
_U64 = (1 << 64) - 1

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
    ``2**32 - 1``; the caller draws those again from their own
    :func:`keyed_rng`."""
    excl = np.asarray(excl, dtype=np.int64)
    bound = np.minimum(excl, _U32).astype(np.uint64)  # a product that fits in 64 bits
    product = halves * bound
    return product >> 32, ((product & _M32) < bound) | (excl > _U32)
