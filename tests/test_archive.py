import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from concat_augment.archive import FeatureArchive, _encode_record
from concat_augment.errors import ArchiveError

SRC = Path(__file__).resolve().parent.parent / "src"


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
            assert reader.shape(uid) == m.shape
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
        with pytest.raises(ArchiveError, match="no archive"):
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
        # cut after the open: an archive opened on a cut shard does not list u1
        reader = FeatureArchive(tmp_path / "arch", mode="r")
        for cut in range(len(blob)):
            shard.write_bytes(blob[:cut])
            with pytest.raises(ArchiveError, match="truncated"):
                reader.read("u1")

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
        # Digest of the shards written by the rule "append to the newest
        # shard while it is under max_shard_bytes, else start the next one",
        # which a reopened archive continues.
        rng = np.random.default_rng(31)
        matrices = [random_matrix(rng, f=4, t=int(rng.integers(1, 9))) for _ in range(24)]
        root = tmp_path / "arch"
        for part in (range(0, 11), range(11, 17), range(17, 24)):
            with FeatureArchive(root, mode="a", max_shard_bytes=300) as arch:
                for i in part:
                    arch.write(f"u{i:02d}", matrices[i])
                    # the store reads a record as soon as it is written
                    assert arch.read(f"u{i:02d}").tobytes() == matrices[i].tobytes()
        files = sorted(root.glob("shard-*.bin"))
        assert len(files) > 3
        h = hashlib.sha256()
        for path in files:
            h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
        assert h.hexdigest() == "69a3b2f0f1055941e195576cf85d8b8af85824e23e15307d2db235f4399a5436"


def write_records(root, matrices, **kwargs):
    with FeatureArchive(root, mode="a", **kwargs) as arch:
        for uid, m in matrices.items():
            arch.write(uid, m)


def shard_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.glob("shard-*.bin"))}


class TestShardsAreTheArchive:
    def test_records_of_a_killed_writer_survive(self, tmp_path):
        root = tmp_path / "arch"
        script = textwrap.dedent(
            f"""
            import os
            import numpy as np
            from concat_augment.archive import FeatureArchive

            arch = FeatureArchive({str(root)!r}, mode="a", max_shard_bytes=4096)
            for i in range(40):
                arch.write(f"u{{i:02d}}", np.full((i + 1, 8), i, dtype=np.float32))
            os._exit(0)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)
        reader = FeatureArchive(root, mode="r")
        assert reader.ids() == [f"u{i:02d}" for i in range(40)]
        for i in range(40):
            assert reader.read(f"u{i:02d}").tobytes() == np.full((i + 1, 8), i, "<f4").tobytes()

    def test_torn_tail_at_every_offset(self, tmp_path):
        rng = np.random.default_rng(41)
        matrices = {f"u{i}": random_matrix(rng, t=int(rng.integers(1, 5)), f=3) for i in range(8)}
        matrices["u8" + "-long" * 80] = random_matrix(rng, t=2, f=3)  # a header over 256 bytes
        whole = tmp_path / "whole"
        write_records(whole, matrices, max_shard_bytes=200)
        uncut = shard_bytes(whole)
        assert len(uncut) > 1
        newest = max(uncut)
        last = list(matrices)[-1]
        start = len(uncut[newest]) - len(_encode_record(last, matrices[last]))
        for cut in range(start, len(uncut[newest])):
            root = tmp_path / f"cut{cut}"
            root.mkdir()
            for name, blob in uncut.items():
                (root / name).write_bytes(blob[:cut] if name == newest else blob)
            reader = FeatureArchive(root, mode="r")
            assert reader.ids() == list(matrices)[:-1]
            for uid in reader.ids():
                assert reader.read(uid).tobytes() == matrices[uid].tobytes()
            assert (root / newest).stat().st_size == cut  # read mode leaves the tail
            with FeatureArchive(root, mode="a", max_shard_bytes=200) as arch:
                assert (root / newest).stat().st_size == start
                arch.write(last, matrices[last])
            assert shard_bytes(root) == uncut

    def test_cut_older_shard_names_shard_and_offset(self, tmp_path):
        rng = np.random.default_rng(43)
        matrices = {f"u{i}": random_matrix(rng, t=4, f=3) for i in range(9)}
        root = tmp_path / "arch"
        write_records(root, matrices, max_shard_bytes=100)
        oldest = sorted(root.glob("shard-*.bin"))[0]
        blob = oldest.read_bytes()
        oldest.write_bytes(blob[:-1])
        record = len(_encode_record("u0", matrices["u0"]))
        for mode in ("r", "a"):
            at = rf"shard-00000\.bin: .* byte {len(blob) - record}"
            with pytest.raises(ArchiveError, match=at):
                FeatureArchive(root, mode=mode)
        assert oldest.read_bytes() == blob[:-1]

    def test_first_record_of_a_duplicate_id_wins(self, tmp_path):
        root = tmp_path / "arch"
        first = np.ones((2, 3), dtype=np.float32)
        write_records(root, {"u1": first, "u2": first * 2})
        with open(root / "shard-00000.bin", "ab") as f:
            f.write(_encode_record("u1", np.zeros((5, 3), dtype=np.float32)))
        reader = FeatureArchive(root, mode="r")
        assert reader.ids() == ["u1", "u2"]
        assert reader.shape("u1") == (2, 3)
        assert reader.read("u1").tobytes() == first.tobytes()

    def test_no_file_but_shards(self, tmp_path):
        root = tmp_path / "arch"
        write_records(root, {"u1": np.ones((2, 3), dtype=np.float32)})
        assert [p.name for p in root.iterdir()] == ["shard-00000.bin"]
