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
