from collections import Counter

import numpy as np
import pytest

from concat_augment.batching import compose_batches, padding_waste
from concat_augment.errors import BatchingError

from emit_oracle import Instance, pad_and_collate


def meta(uid, n_frames):
    return Instance(constituents=(uid,), n_frames=n_frames, target=(1, 2))


def with_feats(uid, n_frames, n_bins=6, target=(1, 2), seed=0):
    """An ``(instance, features)`` pair, as the reference collates them."""
    rng = np.random.default_rng(seed + n_frames)
    inst = Instance(constituents=(uid,), n_frames=n_frames, target=target)
    return inst, rng.standard_normal((n_frames, n_bins)).astype(np.float32)


def random_frames(rng, n, lo=50, hi=400):
    return rng.integers(lo, hi + 1, size=n)


def as_lists(groups):
    return [g.tolist() for g in groups]


class TestCompose:
    def test_exact_fit_single_batch(self):
        groups = compose_batches([1000] * 3, 3000, 0, 0)
        assert len(groups) == 1
        assert len(groups[0]) == 3

    def test_padded_accounting_forces_split(self):
        groups = compose_batches([2000, 2000], 3000, 0, 0)
        assert [len(g) for g in groups] == [1, 1]

    def test_instance_over_budget_is_fatal(self):
        with pytest.raises(BatchingError, match="instance 1 has 5000 frames"):
            compose_batches([100, 5000], 3000, 0, 0)

    def test_budget_property_and_partition(self):
        rng = np.random.default_rng(1)
        frames = random_frames(rng, 2000)
        groups = compose_batches(frames, 4000, seed=7, epoch=2)
        for group in groups:
            t_max = frames[group].max()
            assert len(group) * t_max <= 4000
        emitted = Counter(p for g in groups for p in g.tolist())
        assert emitted == Counter(range(len(frames)))

    def test_true_frame_accounting(self):
        groups = compose_batches([2000, 900], 3000, 0, 0, accounting="true")
        assert len(groups) == 1  # 2900 true frames fit; padded would be 4000

    def test_deterministic_for_same_key(self):
        rng = np.random.default_rng(2)
        frames = random_frames(rng, 500)
        a = compose_batches(frames, 4000, seed=5, epoch=1)
        b = compose_batches(frames, 4000, seed=5, epoch=1)
        assert as_lists(a) == as_lists(b)
        c = compose_batches(frames, 4000, seed=5, epoch=2)
        assert as_lists(a) != as_lists(c)

    def test_empty_input(self):
        assert compose_batches([], 1000, 0, 0) == []

    def test_bucketing_reduces_waste(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            frames = random_frames(rng, 800, lo=20, hi=2000)
            bucketed = compose_batches(frames, 8000, seed=trial, epoch=0, bucketing=True)
            loose = compose_batches(frames, 8000, seed=trial, epoch=0, bucketing=False)
            assert padding_waste(bucketed, frames) <= padding_waste(loose, frames)


class TestPadAndCollate:
    """The reference collation (``emit_oracle.pad_and_collate``) that
    ``test_emit_equivalence`` holds the in-place record path to."""

    def test_single_instance_no_padding(self):
        inst, feats = with_feats("a", 10)
        batch = pad_and_collate([(inst, feats)])
        assert batch.t_max == 10
        np.testing.assert_array_equal(batch.features[0], feats)

    def test_short_rows_zero_padded(self):
        a, b = with_feats("a", 10), with_feats("b", 7)
        batch = pad_and_collate([a, b])
        assert batch.feature_lengths == [10, 7]
        assert np.all(batch.features[1, 7:] == 0.0)

    def test_depadding_round_trip_bit_exact(self):
        rng = np.random.default_rng(4)
        group = [with_feats(f"u{i}", int(rng.integers(3, 40)), seed=i) for i in range(8)]
        batch = pad_and_collate(group)
        for row, (inst, feats) in enumerate(group):
            t = batch.feature_lengths[row]
            assert batch.features[row, :t].tobytes() == feats.tobytes()
            length = batch.target_lengths[row]
            assert tuple(batch.targets[row, :length]) == inst.target

    def test_text_targets_become_code_points(self):
        batch = pad_and_collate([with_feats("a", 5, target="héllo")])
        decoded = "".join(chr(c) for c in batch.targets[0, : batch.target_lengths[0]])
        assert decoded == "héllo"

    def test_inconsistent_feature_dim_fatal(self):
        a = with_feats("a", 5, n_bins=6)
        b = with_feats("b", 5, n_bins=8)
        with pytest.raises(BatchingError, match="dimension"):
            pad_and_collate([a, b])

    def test_missing_features_fatal(self):
        with pytest.raises(BatchingError, match="materialized"):
            pad_and_collate([(meta("a", 5), None)])

    def test_empty_group_fatal(self):
        with pytest.raises(BatchingError):
            pad_and_collate([])

    def test_pad_symbol_recorded(self):
        a, b = with_feats("a", 5, target=(3,)), with_feats("b", 5, target=(4, 5, 6))
        batch = pad_and_collate([a, b], target_pad_id=99)
        assert batch.target_pad_id == 99
        assert batch.targets[0, 1] == 99


class TestMakeBatches:
    """An epoch's batches made as the reference makes them: compose, then collate."""

    def test_stream_covers_all_instances_once(self):
        rng = np.random.default_rng(5)
        group = [with_feats(f"u{i}", int(rng.integers(5, 50)), seed=i) for i in range(40)]
        groups = compose_batches([i.n_frames for i, _ in group], 500, seed=3, epoch=0)
        stream = [pad_and_collate([group[p] for p in g]) for g in groups]
        ids = [ids_ for b in stream for ids_ in b.instance_ids]
        assert Counter(ids) == Counter(i.constituents for i, _ in group)
        for batch in stream:
            assert batch.padded_frames <= 500

    def test_padding_waste_range(self):
        rng = np.random.default_rng(6)
        frames = random_frames(rng, 300)
        groups = compose_batches(frames, 3000, 1, 1)
        waste = padding_waste(groups, frames)
        assert 0.0 <= waste < 1.0
