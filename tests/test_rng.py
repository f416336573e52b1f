"""``keyed_draws`` replays ``keyed_rng``'s generators draw for draw.

The replay pins numpy's ``SeedSequence``/``PCG64``/``Generator.integers``
algorithm, so it is checked against numpy itself: the raw bounded draws
and the masks ``mask_in_place`` draws with them.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from concat_augment.rng import MASK_STREAM, keyed_draws, keyed_rng
from concat_augment.specaugment import MaskPolicy, mask_in_place

# 0, one and two words, and past 2**64, where keyed_rng masks to 64 bits
SEEDS = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**70),
)
EPOCHS = st.one_of(st.integers(0, 3), st.integers(0, 2**40))
ORDINALS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 + 5))
# ranges of one value, of 2**32 - 1 and 2**32 values, and 64-bit ranges
HIGHS = st.one_of(
    st.sampled_from([1, 2, 3, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1]),
    st.integers(1, 400),
    st.integers(1, 2**63 - 1),
)

SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(
    seed=SEEDS,
    epoch=EPOCHS,
    ordinals=st.lists(ORDINALS, min_size=1, max_size=6),
    highs=st.lists(HIGHS, min_size=1, max_size=12),
)
@example(seed=2**40 + 3, epoch=1, ordinals=[0, 2**32 - 1, 2**32, 7], highs=[1, 2, 2**32 - 1, 2**32])
def test_draws_match_keyed_rng(seed, epoch, ordinals, highs):
    draws = keyed_draws(seed, MASK_STREAM, epoch, ordinals)
    assert len(draws) == len(ordinals)
    for ordinal, replay in zip(ordinals, draws):
        rng = keyed_rng(seed, MASK_STREAM, epoch, ordinal)
        assert [replay.integers(0, high) for high in highs] == [
            int(rng.integers(0, high)) for high in highs
        ]


@SETTINGS
@given(
    seed=SEEDS,
    ordinal=ORDINALS,
    bounds=st.lists(
        st.tuples(st.integers(-(2**63), 2**63 - 2), st.integers(1, 2**64 - 1)),
        min_size=1,
        max_size=8,
    ),
)
def test_draws_with_a_low_bound_match(seed, ordinal, bounds):
    (replay,) = keyed_draws(seed, 1, 0, [ordinal])
    rng = keyed_rng(seed, 1, 0, ordinal)
    for low, span in bounds:
        high = min(low + span, 2**63)
        assert replay.integers(low, high) == int(rng.integers(low, high))


@pytest.mark.parametrize("low, high", [(0, 0), (5, 3), (-(2**63) - 1, 0), (0, 2**63 + 1)])
def test_ranges_outside_int64_raise_as_numpy_does(low, high):
    with pytest.raises(ValueError):
        keyed_rng(0, 1).integers(low, high)
    (replay,) = keyed_draws(0, 1, 0, [0])
    with pytest.raises(ValueError):
        replay.integers(low, high)


def test_rows_of_one_record_are_grouped_by_entropy_words():
    ordinals = [2**32 + 1, 3, 2**64 - 1, 0, 2**32 - 1]
    draws = keyed_draws(9, MASK_STREAM, 2, ordinals)
    for ordinal, replay in zip(ordinals, draws):
        rng = keyed_rng(9, MASK_STREAM, 2, ordinal)
        assert replay.integers(0, 2**32) == int(rng.integers(0, 2**32))


def test_no_ordinals():
    assert keyed_draws(1, MASK_STREAM, 0, []) == []


@SETTINGS
@given(
    seed=SEEDS,
    epoch=EPOCHS,
    ordinal=ORDINALS,
    n_frames=st.one_of(st.just(1), st.integers(1, 300)),
    n_bins=st.integers(1, 90),
    freq_param=st.one_of(st.just(0), st.integers(0, 100), st.just(10**6)),
    time_param=st.one_of(st.just(0), st.integers(0, 400), st.just(10**6)),
    n_freq_masks=st.integers(0, 3),
    n_time_masks=st.integers(0, 3),
)
def test_masks_match_a_generators(
    seed, epoch, ordinal, n_frames, n_bins, freq_param, time_param, n_freq_masks, n_time_masks
):
    policy = MaskPolicy(freq_param, time_param, n_freq_masks, n_time_masks, mask_value=-1.0)
    feats = np.arange(n_frames * n_bins, dtype=np.float32).reshape(n_frames, n_bins)
    expected = feats.copy()
    mask_in_place(expected, policy, keyed_rng(seed, MASK_STREAM, epoch, ordinal))
    (replay,) = keyed_draws(seed, MASK_STREAM, epoch, [ordinal])
    mask_in_place(feats, policy, replay)
    np.testing.assert_array_equal(feats, expected)
