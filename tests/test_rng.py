"""``keyed_halves`` and ``keyed_spans`` replay ``keyed_rng``'s
generators draw for draw.

The replay pins numpy's ``SeedSequence``/``PCG64``/``Generator.integers``
algorithm, so it is checked against numpy itself: the raw outputs, and
the masks ``mask_in_place`` draws with a generator.
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from concat_augment import specaugment
from concat_augment.rng import MASK_STREAM, bounded_draws, keyed_halves, keyed_rng
from concat_augment.specaugment import (
    MaskPolicy,
    apply_spans,
    draw_spans,
    keyed_spans,
    mask_in_place,
)

# 0, one and two words, and past 2**64, where keyed_rng masks to 64 bits
SEEDS = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**70),
)
EPOCHS = st.one_of(st.integers(0, 3), st.integers(0, 2**40))
# the ordinals an array of uint64 holds
U64_ORDINALS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1))

SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(
    seed=SEEDS,
    epoch=EPOCHS,
    ordinals=st.lists(U64_ORDINALS, min_size=0, max_size=6),
    count=st.integers(0, 9),
)
@example(seed=0, epoch=0, ordinals=[0, 2**32 - 1, 2**32, 2**64 - 1], count=9)
def test_halves_are_the_generators_outputs(seed, epoch, ordinals, count):
    halves = keyed_halves(seed, MASK_STREAM, epoch, np.array(ordinals, dtype=np.uint64), count)
    assert halves.shape == (len(ordinals), count)
    for ordinal, row in zip(ordinals, halves.tolist()):
        raw = keyed_rng(seed, MASK_STREAM, epoch, ordinal).bit_generator.random_raw(5).tolist()
        assert row == [half for value in raw for half in (value & 0xFFFFFFFF, value >> 32)][:count]


@SETTINGS
@given(
    seed=SEEDS,
    epoch=EPOCHS,
    rows=st.lists(
        st.tuples(U64_ORDINALS, st.one_of(st.just(1), st.integers(1, 300))),
        min_size=1,
        max_size=8,
    ),
    n_bins=st.integers(1, 90),
    freq_param=st.one_of(st.just(0), st.integers(0, 100), st.just(10**6)),
    time_param=st.one_of(st.just(0), st.integers(0, 400), st.just(10**6)),
    n_freq_masks=st.integers(0, 3),
    n_time_masks=st.integers(0, 3),
)
# a row no longer than time_param, freq_param past n_bins, a wide ordinal
@example(
    seed=1, epoch=0, rows=[(0, 3), (2**32 + 7, 100), (5, 1)], n_bins=8,
    freq_param=27, time_param=100, n_freq_masks=2, n_time_masks=2,
)
def test_epoch_masks_match_mask_in_place(
    seed, epoch, rows, n_bins, freq_param, time_param, n_freq_masks, n_time_masks
):
    """Masks drawn for every row at once are the masks ``mask_in_place``
    draws with each row's own generator."""
    policy = MaskPolicy(freq_param, time_param, n_freq_masks, n_time_masks, mask_value=-1.0)
    ordinals, frames = (list(column) for column in zip(*rows))
    spans = keyed_spans(policy, frames, n_bins, seed, epoch, ordinals)
    assert spans.shape == (len(rows), n_freq_masks + n_time_masks, 2)
    for ordinal, n_frames, row_spans in zip(ordinals, frames, spans.tolist()):
        feats = np.arange(n_frames * n_bins, dtype=np.float32).reshape(n_frames, n_bins)
        expected = feats.copy()
        mask_in_place(expected, policy, keyed_rng(seed, MASK_STREAM, epoch, ordinal))
        apply_spans(feats, policy, row_spans)
        np.testing.assert_array_equal(feats, expected)


def test_bounded_draws_flag_a_low_product_below_the_bound():
    # 2**32 % 28 == 4: a low product under 4 is rejected, one from 4 to
    # 27 is not, but both are flagged; so is every range over 2**32 - 1
    halves = np.array([0, 153391690, 2**31 + 1, 7, 9], dtype=np.uint64)
    excl = np.array([28, 28, 28, 2**32, 2**32 + 3])
    values, suspect = bounded_draws(halves, excl)
    assert (153391690 * 28) % 2**32 == 24
    assert values[:3].tolist() == [0, 1, 14]
    assert suspect.tolist() == [True, True, False, True, True]


def test_rows_a_draw_may_reject_are_drawn_again_from_their_generators(monkeypatch):
    """Halves crafted below the rejection threshold flag their rows; those
    rows are drawn again from their generators, the others keep the
    array draw."""
    policy = MaskPolicy(27, 100, 2, 2)
    frames = np.array([300, 200, 150, 90])
    real = keyed_halves(5, MASK_STREAM, 1, np.arange(4, dtype=np.uint64), 8)
    crafted = real.copy()
    crafted[1, 0] = 0  # row 1's first width: 0 * 28 is below the threshold of 4
    crafted[2, 1] = 0  # row 2's first start, in 0..80 - width
    _, replay = specaugment._spans_from_halves(crafted, policy, frames, 80)
    assert replay.tolist() == [False, True, True, False]
    monkeypatch.setattr(specaugment, "keyed_halves", lambda *args: crafted)
    spans = keyed_spans(policy, frames, 80, 5, 1, np.arange(4))
    for row, n_frames in enumerate(frames.tolist()):
        expected = draw_spans(policy, n_frames, 80, keyed_rng(5, MASK_STREAM, 1, row))
        assert [tuple(span) for span in spans[row].tolist()] == expected


def test_blocks_of_rows_draw_what_one_block_draws(monkeypatch):
    policy = MaskPolicy(27, 100, 2, 2)
    frames = np.arange(1, 9) * 40
    whole = keyed_spans(policy, frames, 80, 3, 2, np.arange(8))
    monkeypatch.setattr(specaugment, "_BLOCK_ROWS", 3)
    np.testing.assert_array_equal(keyed_spans(policy, frames, 80, 3, 2, np.arange(8)), whole)
