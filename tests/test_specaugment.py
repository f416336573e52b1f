import numpy as np
import pytest

from concat_augment.batchio import Record
from concat_augment.errors import ConfigurationError
from concat_augment.rng import keyed_rng
from concat_augment.specaugment import MaskPolicy, mask_in_place


def apply_masks(feats, policy, rng):
    """``mask_in_place`` on a copy; the tests compare it to the input."""
    out = feats.copy()
    mask_in_place(out, policy, rng)
    return out


def random_features(rng, t=300, f=80):
    # strictly positive input so mask_value=0 cells are unambiguous
    return rng.uniform(1.0, 2.0, size=(t, f))


def masked_rows_cols(original, masked):
    changed = masked != original
    full_rows = np.where(changed.all(axis=1))[0]
    full_cols = np.where(changed.all(axis=0))[0]
    return full_rows, full_cols


class TestPolicy:
    def test_paper_defaults(self):
        pol = MaskPolicy()
        assert pol.freq_param == 27
        assert pol.time_param == 100
        assert pol.n_freq_masks == 2
        assert pol.n_time_masks == 2
        assert pol.mask_value == 0.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            MaskPolicy(n_freq_masks=-1)
        with pytest.raises(ConfigurationError):
            MaskPolicy(time_param=-5)


class TestApplyMasks:
    """Masks drawn by ``mask_in_place``, applied to a copy of the input."""

    def test_zero_counts_is_identity(self):
        rng = np.random.default_rng(1)
        feats = random_features(rng)
        out = apply_masks(feats, MaskPolicy(n_freq_masks=0, n_time_masks=0), keyed_rng(0, 1))
        np.testing.assert_array_equal(out, feats)

    def test_padding_and_other_rows_untouched(self):
        # As the pipeline masks: one instance's frames in its row of a padded record.
        rng = np.random.default_rng(2)
        lengths = [300, 120, 250]
        record = Record(max(lengths), 80, lengths, [(1, 2)] * 3, target_pad_id=0)
        for row, n in enumerate(lengths):
            record.features[row, :n] = random_features(rng, t=n)
        before = record.features.copy()
        frames = record.features[1, : lengths[1]]
        mask_in_place(frames, MaskPolicy(time_param=300, mask_value=-7.5), keyed_rng(0, 2))
        assert not np.array_equal(frames, before[1, : lengths[1]])
        padding = record.features[1, lengths[1] :]
        assert padding.tobytes() == bytes(padding.nbytes)  # still exactly +0.0
        for row in (0, 2):
            assert record.features[row].tobytes() == before[row].tobytes()

    def test_time_mask_capped_by_frame_count(self):
        rng = np.random.default_rng(3)
        # 50 frames < time_param 100: each mask covers at most 50 rows
        pol = MaskPolicy(n_freq_masks=0, n_time_masks=1, time_param=100)
        for i in range(100):
            feats = random_features(rng, t=50)
            out = apply_masks(feats, pol, keyed_rng(0, 3, i))
            rows, _ = masked_rows_cols(feats, out)
            assert len(rows) <= 50

    def test_mask_extent_bounds(self):
        rng = np.random.default_rng(4)
        pol = MaskPolicy()
        for i in range(200):
            feats = random_features(rng)  # 300 x 80; masks cannot cover everything
            out = apply_masks(feats, pol, keyed_rng(1, 4, i))
            rows, cols = masked_rows_cols(feats, out)
            assert len(cols) <= pol.n_freq_masks * pol.freq_param
            assert len(rows) <= pol.n_time_masks * pol.time_param

    def test_unmasked_cells_bit_identical(self):
        rng = np.random.default_rng(5)
        pol = MaskPolicy()
        for i in range(100):
            feats = random_features(rng)
            out = apply_masks(feats, pol, keyed_rng(2, 5, i))
            rows, cols = masked_rows_cols(feats, out)
            keep_rows = np.setdiff1d(np.arange(feats.shape[0]), rows)
            keep_cols = np.setdiff1d(np.arange(feats.shape[1]), cols)
            np.testing.assert_array_equal(
                out[np.ix_(keep_rows, keep_cols)], feats[np.ix_(keep_rows, keep_cols)]
            )

    def test_masked_cells_take_mask_value(self):
        rng = np.random.default_rng(6)
        pol = MaskPolicy(mask_value=-7.5)
        feats = random_features(rng)
        out = apply_masks(feats, pol, keyed_rng(3, 6))
        changed = out != feats
        assert np.all(out[changed] == -7.5)

    def test_deterministic_per_key(self):
        rng = np.random.default_rng(7)
        feats = random_features(rng)
        a = apply_masks(feats, MaskPolicy(), keyed_rng(9, 8, 4))
        b = apply_masks(feats, MaskPolicy(), keyed_rng(9, 8, 4))
        np.testing.assert_array_equal(a, b)
        c = apply_masks(feats, MaskPolicy(), keyed_rng(9, 8, 5))
        assert not np.array_equal(a, c)

    def test_freq_width_capped_by_bins(self):
        rng = np.random.default_rng(8)
        pol = MaskPolicy(freq_param=27, n_freq_masks=1, n_time_masks=0)
        for i in range(50):
            feats = random_features(rng, t=20, f=10)  # fewer bins than freq_param
            out = apply_masks(feats, pol, keyed_rng(4, 9, i))
            _, cols = masked_rows_cols(feats, out)
            assert len(cols) <= 10
