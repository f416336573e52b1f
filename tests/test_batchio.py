import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from concat_augment import checksum
from concat_augment.archive import FeatureArchive
from concat_augment.augment import Strategy
from concat_augment.batchio import (
    Record,
    StreamWriter,
    decode_batch,
    iter_stream,
    read_batch_file,
    write_batch_file,
)
from concat_augment.errors import BatchingError
from concat_augment.features import FeatureConfig
from concat_augment.pipeline import PipelineConfig, run
from concat_augment.specaugment import MaskPolicy

from conftest import manifest_text
from emit_oracle import encode_batch, pad_and_collate
from test_batching import with_feats


def sample_group(seed=0, n=5):
    rng = np.random.default_rng(seed)
    return [
        with_feats(f"u{i}", int(rng.integers(3, 30)), target=tuple(rng.integers(0, 900, size=4)),
                   seed=seed * 100 + i)
        for i in range(n)
    ]


def sample_record(seed=0, n=5):
    """The sealed record of a sample group, laid out and filled as the
    pipeline does it."""
    group = sample_group(seed, n)
    lengths = [len(feats) for _, feats in group]
    targets = [inst.target for inst, _ in group]
    record = Record(max(lengths), group[0][1].shape[1], lengths, targets, target_pad_id=1)
    for row, (_, feats) in enumerate(group):
        record.features[row, : len(feats)] = feats
    return record.seal()


def sample_batch(seed=0, n=5):
    """The same group collated by the reference."""
    return pad_and_collate(sample_group(seed, n), target_pad_id=1)


class TestRecordFormat:
    @pytest.mark.parametrize(
        "target, bad",
        [
            (np.array([7, 2**33 + 5]), 2**33 + 5),
            ((7, 2**32), 2**32),
            ((7, -1), -1),
            (np.array([7, -1], dtype=np.int32), -1),
            (np.array([7, 2**32], dtype=np.uint64), 2**32),
            ([7, np.int64(2**33 + 5)], 2**33 + 5),
            ((np.uint64(2**32),), 2**32),
            ([np.int32(-1)], -1),
        ],
    )
    def test_target_ids_outside_u32_are_rejected(self, target, bad):
        message = rf"^target of row 1 holds token id {bad}, outside u32$"
        with pytest.raises(BatchingError, match=message):
            Record(2, 1, [2, 2], [(3,), target], 0)

    def test_numpy_integer_ids_in_u32_are_kept(self):
        record = Record(2, 1, [2, 2], [[np.int64(5)], (np.uint32(2**32 - 1), 0)], 0)
        targets = decode_batch(record.seal().body).targets
        assert targets.tolist() == [[5, 0], [2**32 - 1, 0]]

    def test_non_integer_id_is_rejected(self):
        with pytest.raises(BatchingError, match=r"^target of row 0 holds 1\.5, not an integer"):
            Record(2, 1, [2], [(1.5,)], 0)

    @pytest.mark.parametrize("dtype", ["<u4", "<u2", "<i8", "<u8"])
    def test_target_ids_at_the_u32_ends_are_kept(self, dtype):
        top = np.iinfo(np.dtype(dtype)).max if np.dtype(dtype).itemsize < 4 else 2**32 - 1
        record = Record(2, 1, [2, 2], [(0, 2**32 - 1), np.array([0, top], dtype=dtype)], 0)
        targets = decode_batch(record.seal().body).targets
        assert targets.tolist() == [[0, 2**32 - 1], [0, top]]

    def test_round_trip_exact(self):
        batch = sample_batch()
        out = decode_batch(sample_record().body)
        assert out.features.tobytes() == batch.features.tobytes()
        assert out.feature_lengths == batch.feature_lengths
        assert out.target_lengths == batch.target_lengths
        assert out.target_pad_id == batch.target_pad_id
        np.testing.assert_array_equal(out.targets, batch.targets)
        assert out.instance_ids is None  # provenance is not on the wire

    def test_encoding_is_deterministic(self):
        body = bytes(sample_record().body)
        assert body == bytes(sample_record().body)
        assert body == encode_batch(sample_batch())

    def test_magic_checked(self):
        blob = bytearray(sample_record().body)
        blob[0] = ord(b"X")
        with pytest.raises(BatchingError, match="magic"):
            decode_batch(bytes(blob))

    def test_crc_detects_flips(self):
        blob = bytearray(sample_record().body)
        blob[40] ^= 0x01
        with pytest.raises(BatchingError, match="CRC"):
            decode_batch(bytes(blob))


def poisoned(size):
    """A stale buffer for ``Record(alloc=...)``: every byte 0xFF, and longer
    than asked."""
    return np.full(size + 13, 0xFF, dtype=np.uint8)


# Also run under the zlib_crc32 fixture (test_golden.TestUnderZlibCrc).
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    n_bins=st.sampled_from([1, 3, 80]),
    lengths=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_chained_seal_equals_a_whole_record_seal(n_bins, lengths, seed):
    """A record in a stale buffer, each row finished in order (its
    padding zeroed), seals to the bytes of a zeroed record. Records of
    1 x 1 x 1 to 6 x 40 x 80 floats fall on both sides of
    ``checksum._SMALL``, where the CRC moves from zlib to libdeflate."""
    rng = np.random.default_rng(seed)
    t_max = max(lengths)
    targets = [tuple(rng.integers(0, 2**32, size=int(rng.integers(0, 4)))) for _ in lengths]
    rows = [rng.standard_normal((n, n_bins)).astype(np.float32) for n in lengths]
    whole = Record(t_max, n_bins, lengths, targets, target_pad_id=3)
    chained = Record(t_max, n_bins, lengths, targets, target_pad_id=3, alloc=poisoned)
    for at, feats in enumerate(rows):
        whole.features[at, : len(feats)] = feats
        chained.features[at, : len(feats)] = feats
        chained.finish_row(at)
    assert bytes(chained.seal().buffer) == bytes(whole.seal().buffer)
    assert decode_batch(chained.body).feature_lengths == lengths


def test_rows_finished_out_of_order_seal_over_every_byte():
    lengths = [3, 1, 2]
    whole = Record(3, 2, lengths, [(1,), (2,), (3,)], target_pad_id=0)
    record = Record(3, 2, lengths, [(1,), (2,), (3,)], target_pad_id=0, alloc=poisoned)
    for at in (1, 0, 2):
        whole.features[at, : lengths[at]] = at + 1
        record.features[at, : lengths[at]] = at + 1
        record.finish_row(at)
    assert bytes(record.seal().buffer) == bytes(whole.seal().buffer)


def test_a_seal_hands_libdeflate_the_record_in_one_pass(monkeypatch):
    if checksum._libdeflate_crc32 is None:
        pytest.skip("libdeflate.so.0 does not load here")
    fn, sizes = checksum._libdeflate_crc32, []

    def counted(value, address, size):
        sizes.append(size)
        return fn(value, address, size)

    monkeypatch.setattr(checksum, "_libdeflate_crc32", counted)
    record = Record(40, 32, [40, 30], [tuple(range(1100)), (7,)], 0, alloc=poisoned)
    record.features[:] = 1.0
    record.finish_row(0)
    record.finish_row(1)
    assert sizes == []  # finishing a row only zeroes its padding
    record.seal()
    assert sizes == [len(record.body) - 4]
    decode_batch(bytes(record.body))


class TestFilesAndStream:
    def test_file_round_trip(self, tmp_path):
        batch = sample_batch(seed=1)
        path = tmp_path / "batch-00000.cabx"
        write_batch_file(sample_record(seed=1), path)
        out = read_batch_file(path)
        assert out.features.tobytes() == batch.features.tobytes()

    def test_stream_round_trip(self, tmp_path):
        batches = [sample_batch(seed=i, n=3 + i) for i in range(4)]
        path = tmp_path / "epoch.cabxs"
        with StreamWriter(path) as writer:
            for i in range(4):
                writer.write(sample_record(seed=i, n=3 + i))
        loaded = list(iter_stream(path))
        assert len(loaded) == 4
        for orig, out in zip(batches, loaded):
            assert out.features.tobytes() == orig.features.tobytes()
            np.testing.assert_array_equal(out.targets, orig.targets)

    def test_truncated_stream_detected(self, tmp_path):
        path = tmp_path / "epoch.cabxs"
        with StreamWriter(path) as writer:
            writer.write(sample_record())
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(BatchingError, match="truncated"):
            list(iter_stream(path))

    def test_stream_cut_inside_a_length_prefix(self, tmp_path):
        path = tmp_path / "epoch.cabxs"
        with StreamWriter(path) as writer:
            writer.write(sample_record())
        data = path.read_bytes()
        for cut, index in ((data[:2], 0), (data + data[:3], 1)):
            path.write_bytes(cut)
            with pytest.raises(BatchingError, match=rf"{re.escape(str(path))}: record {index}: "):
                list(iter_stream(path))


def tiny_run(root, emit):
    """A run over 8 archived utterances of 1-4 frames x 2 bins; returns the
    path of its first batch file or its stream."""
    rng = np.random.default_rng(31)
    rows = []
    with FeatureArchive(root / "archive", mode="a", feature=FeatureConfig(n_mels=2)) as archive:
        for i in range(8):
            n_frames = int(rng.integers(1, 5))
            archive.write(f"u{i}", rng.standard_normal((n_frames, 2)).astype(np.float32))
            rows.append((f"u{i}", f"u{i}.npy", n_frames, f"{i} {i + 1}", f"s{i % 2}"))
    (root / "m.tsv").write_text(manifest_text(rows), encoding="utf-8")
    config = PipelineConfig(
        manifest_path=root / "m.tsv",
        out_dir=root / "out",
        archive_dir=root / "archive",
        feature=FeatureConfig(n_mels=2),
        strategy=Strategy("speaker"),
        budget_frames=16,
        max_frames=8,
        specaugment=MaskPolicy(freq_param=1, time_param=2),
        emit=emit,
    )
    run(config)
    if emit == "stream":
        return root / "out" / "epoch-000.cabxs"
    return root / "out" / "epoch-000" / "batch-00000.cabx"


@pytest.mark.parametrize("emit", ["files", "stream"])
def test_a_bit_flip_anywhere_in_an_emitted_record_names_the_file(tmp_path, emit):
    path = tiny_run(tmp_path, emit)
    data = path.read_bytes()
    if emit == "stream":
        read = lambda p: list(iter_stream(p))  # noqa: E731
        span = 4 + int.from_bytes(data[:4], "little")  # the first record and its prefix
    else:
        read = read_batch_file
        span = len(data)
    assert read(path)
    for at in range(span):
        flipped = bytearray(data)
        flipped[at] ^= 1 << (at % 8)
        path.write_bytes(bytes(flipped))
        with pytest.raises(BatchingError, match=re.escape(str(path))):
            read(path)
