import hashlib

import numpy as np
import pytest

from concat_augment.archive import FeatureArchive
from concat_augment.errors import ArchiveError


def random_matrix(rng, t=None, f=8):
    t = t or int(rng.integers(1, 40))
    return rng.standard_normal((t, f)).astype(np.float32)


class TestArchive:
    def test_write_read_byte_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        feats = random_matrix(rng)
        with FeatureArchive(tmp_path / "arch", mode="a") as arch:
            arch.write("u1", feats)
            out = arch.read("u1")
        assert out.tobytes() == feats.tobytes()
        assert out.shape == feats.shape

    def test_persists_across_reopen(self, tmp_path):
        rng = np.random.default_rng(7)
        matrices = {f"u{i}": random_matrix(rng) for i in range(20)}
        with FeatureArchive(tmp_path / "arch", mode="a") as arch:
            for uid, m in matrices.items():
                arch.write(uid, m)
        reader = FeatureArchive(tmp_path / "arch", mode="r")
        assert sorted(reader.ids()) == sorted(matrices)
        for uid, m in matrices.items():
            assert reader.read(uid).tobytes() == m.tobytes()

    def test_contains_and_len(self, tmp_path):
        with FeatureArchive(tmp_path / "arch", mode="a") as arch:
            assert "u1" not in arch
            arch.write("u1", np.zeros((3, 4), dtype=np.float32))
            assert "u1" in arch
            assert len(arch) == 1

    def test_duplicate_id_rejected(self, tmp_path):
        with FeatureArchive(tmp_path / "arch", mode="a") as arch:
            arch.write("u1", np.zeros((2, 2), dtype=np.float32))
            with pytest.raises(ArchiveError, match="already archived"):
                arch.write("u1", np.zeros((2, 2), dtype=np.float32))

    def test_read_only_mode_cannot_write(self, tmp_path):
        with FeatureArchive(tmp_path / "arch", mode="a") as arch:
            arch.write("u1", np.zeros((2, 2), dtype=np.float32))
        reader = FeatureArchive(tmp_path / "arch", mode="r")
        with pytest.raises(ArchiveError, match="read-only"):
            reader.write("u2", np.zeros((2, 2), dtype=np.float32))

    def test_missing_id(self, tmp_path):
        with FeatureArchive(tmp_path / "arch", mode="a") as arch:
            with pytest.raises(ArchiveError, match="not in archive"):
                arch.read("ghost")

    def test_missing_index_dir(self, tmp_path):
        with pytest.raises(ArchiveError, match="index"):
            FeatureArchive(tmp_path / "nowhere", mode="r")

    def test_corruption_detected_by_crc(self, tmp_path):
        rng = np.random.default_rng(11)
        with FeatureArchive(tmp_path / "arch", mode="a") as arch:
            arch.write("u1", random_matrix(rng, t=10))
        shard = next((tmp_path / "arch").glob("shard-*.bin"))
        blob = bytearray(shard.read_bytes())
        blob[30] ^= 0xFF  # flip a payload byte
        shard.write_bytes(bytes(blob))
        reader = FeatureArchive(tmp_path / "arch", mode="r")
        with pytest.raises(ArchiveError, match="checksum"):
            reader.read("u1")

    def test_truncated_record_detected_at_every_length(self, tmp_path):
        rng = np.random.default_rng(12)
        with FeatureArchive(tmp_path / "arch", mode="a") as arch:
            arch.write("u1", random_matrix(rng, t=3))
        shard = next((tmp_path / "arch").glob("shard-*.bin"))
        blob = shard.read_bytes()
        for cut in range(len(blob)):
            shard.write_bytes(blob[:cut])
            with pytest.raises(ArchiveError, match="truncated"):
                FeatureArchive(tmp_path / "arch", mode="r").read("u1")

    def test_shard_rollover(self, tmp_path):
        rng = np.random.default_rng(13)
        with FeatureArchive(tmp_path / "arch", mode="a", max_shard_bytes=2048) as arch:
            for i in range(30):
                arch.write(f"u{i}", random_matrix(rng, t=20))
        shards = list((tmp_path / "arch").glob("shard-*.bin"))
        assert len(shards) > 1
        reader = FeatureArchive(tmp_path / "arch", mode="r")
        assert len(reader) == 30
        for i in range(30):
            reader.read(f"u{i}")

    def test_rollover_and_reopen_keep_shard_layout(self, tmp_path):
        # Digest of the shards and index.json written by the rule "append to
        # the newest shard while it is under max_shard_bytes, else start the
        # next one", which a reopened archive continues.
        rng = np.random.default_rng(31)
        matrices = [random_matrix(rng, f=4, t=int(rng.integers(1, 9))) for _ in range(24)]
        root = tmp_path / "arch"
        for part in (range(0, 11), range(11, 17), range(17, 24)):
            with FeatureArchive(root, mode="a", max_shard_bytes=300) as arch:
                for i in part:
                    arch.write(f"u{i:02d}", matrices[i])
                    # the store reads a record as soon as it is written
                    assert arch.read(f"u{i:02d}").tobytes() == matrices[i].tobytes()
        files = sorted(p for p in root.iterdir())
        assert len(files) > 4
        h = hashlib.sha256()
        for path in files:
            h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
        assert h.hexdigest() == "0556979833612cf048ca84ebf0f777736c3197c1db49be4b59afa533f8b8d845"
