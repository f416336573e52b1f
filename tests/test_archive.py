import dataclasses
import errno
import gc
import hashlib
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from concat_augment import archive as archive_module
from concat_augment.archive import DATA_FILE, FeatureArchive, _encode_record
from concat_augment.errors import ArchiveError, ConfigurationError
from concat_augment.features import FeatureConfig

from archive_records import record_span

SRC = Path(__file__).resolve().parent.parent / "src"


def random_matrix(rng, t=None, f=8):
    t = t or int(rng.integers(1, 40))
    return rng.standard_normal((t, f)).astype(np.float32)


def appender(root, n_mels=8):
    return FeatureArchive(root, mode="a", feature=FeatureConfig(n_mels=n_mels))


def open_fds():
    return sorted(os.listdir("/proc/self/fd"))


class TestArchive:
    def test_write_read_byte_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        feats = random_matrix(rng)
        with appender(tmp_path / "arch") as arch:
            arch.write("u1", feats)
            out = arch.read("u1")
        assert out.tobytes() == feats.tobytes()
        assert out.shape == feats.shape

    def test_persists_across_reopen(self, tmp_path):
        rng = np.random.default_rng(7)
        matrices = {f"u{i}": random_matrix(rng) for i in range(20)}
        with appender(tmp_path / "arch") as arch:
            for uid, m in matrices.items():
                arch.write(uid, m)
        with FeatureArchive(tmp_path / "arch", mode="r") as reader:
            assert sorted(reader.ids()) == sorted(matrices)
            assert reader.feature == FeatureConfig(n_mels=8).summary()
            for uid, m in matrices.items():
                assert reader.shape(uid) == m.shape
                assert reader.read(uid).tobytes() == m.tobytes()

    def test_contains_and_len(self, tmp_path):
        with appender(tmp_path / "arch", n_mels=4) as arch:
            assert "u1" not in arch
            arch.write("u1", np.zeros((3, 4), dtype=np.float32))
            assert "u1" in arch
            assert len(arch) == 1

    def test_duplicate_id_rejected(self, tmp_path):
        with appender(tmp_path / "arch", n_mels=2) as arch:
            arch.write("u1", np.zeros((2, 2), dtype=np.float32))
            with pytest.raises(ArchiveError, match="already archived"):
                arch.write("u1", np.zeros((2, 2), dtype=np.float32))

    def test_read_only_mode_cannot_write(self, tmp_path):
        with appender(tmp_path / "arch", n_mels=2) as arch:
            arch.write("u1", np.zeros((2, 2), dtype=np.float32))
        with FeatureArchive(tmp_path / "arch", mode="r") as reader:
            with pytest.raises(ArchiveError, match="read-only"):
                reader.write("u2", np.zeros((2, 2), dtype=np.float32))

    def test_missing_id(self, tmp_path):
        with appender(tmp_path / "arch") as arch:
            with pytest.raises(ArchiveError, match="not in archive"):
                arch.read("ghost")

    def test_missing_index_dir(self, tmp_path):
        with pytest.raises(ArchiveError, match="no archive"):
            FeatureArchive(tmp_path / "nowhere", mode="r")

    def test_width_and_config_are_required_to_append(self, tmp_path):
        with pytest.raises(ArchiveError, match="needs the feature config"):
            FeatureArchive(tmp_path / "arch", mode="a")
        assert not (tmp_path / "arch").exists()
        with appender(tmp_path / "arch", n_mels=8) as arch:
            header = (tmp_path / "arch" / DATA_FILE).read_bytes()
            with pytest.raises(ArchiveError, match="cannot archive 7-bin features for 'u1'"):
                arch.write("u1", np.zeros((2, 7), dtype=np.float32))
            assert len(arch) == 0
        assert (tmp_path / "arch" / DATA_FILE).read_bytes() == header

    def test_corruption_detected_by_crc(self, tmp_path):
        # a flip of the low or high bit of any payload or CRC-trailer byte
        # of a record after the first fails its read, naming the file;
        # u2's payload is past checksum._SMALL, u1's below it
        rng = np.random.default_rng(11)
        shapes = {"u0": (2, 32), "u1": (3, 32), "u2": (40, 32)}
        root = tmp_path / "arch"
        with appender(root, n_mels=32) as arch:
            for utt_id, (t, f) in shapes.items():
                arch.write(utt_id, random_matrix(rng, t=t, f=f))
        path = root / DATA_FILE
        blob = path.read_bytes()
        with FeatureArchive(root, mode="r") as reader, open(path, "r+b") as f:
            for utt_id in ("u2", "u1"):
                _, payload, end = record_span(root, utt_id)
                for at in range(payload, end):
                    for bit in (0x01, 0x80):
                        os.pwrite(f.fileno(), bytes([blob[at] ^ bit]), at)
                        with pytest.raises(ArchiveError, match=rf"checksum .* {DATA_FILE}$"):
                            reader.read(utt_id)
                        os.pwrite(f.fileno(), blob[at : at + 1], at)
                reader.read(utt_id)

    def test_corruption_detected_by_zlib_crc(self, tmp_path, zlib_crc32):
        self.test_corruption_detected_by_crc(tmp_path)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds from /proc")
    def test_reads_see_every_append_and_close_leaves_no_open_file(self, tmp_path):
        rng = np.random.default_rng(15)
        matrices = [random_matrix(rng, t=6) for _ in range(12)]
        before = open_fds()
        with appender(tmp_path / "arch") as arch:
            for i, m in enumerate(matrices):
                arch.write(f"u{i}", m)
                for j in range(i + 1):
                    assert arch.read(f"u{j}").tobytes() == matrices[j].tobytes()
        assert open_fds() == before
        for mode in ("r", "a"):
            reader = FeatureArchive(tmp_path / "arch", mode=mode, feature=FeatureConfig(n_mels=8))
            assert len(open_fds()) == len(before) + 1
            reader.read("u0")
            reader.close()
            assert open_fds() == before
            with pytest.raises(ArchiveError, match="is closed"):
                reader.read("u0")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds from /proc")
    def test_an_archive_of_any_size_holds_one_descriptor(self, tmp_path):
        root = tmp_path / "arch"
        before = open_fds()
        with appender(root, n_mels=4) as arch:
            for i in range(2000):
                arch.write(f"u{i:04d}", np.full((3, 4), i, dtype=np.float32))
                if i % 500 == 0:
                    assert len(open_fds()) == len(before) + 1
        assert open_fds() == before
        for mode in ("r", "a"):
            arch = FeatureArchive(root, mode=mode, feature=FeatureConfig(n_mels=4))
            assert len(arch) == 2000
            assert arch.read("u1999").tobytes() == np.full((3, 4), 1999, "<f4").tobytes()
            assert len(open_fds()) == len(before) + 1
            arch.close()
            assert open_fds() == before
        # A soft limit of 64 open files is enough to append and reopen.
        script = textwrap.dedent(
            f"""
            import resource
            import numpy as np
            from concat_augment.archive import FeatureArchive
            from concat_augment.features import FeatureConfig

            hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
            resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))
            with FeatureArchive({str(root)!r}, mode="a", feature=FeatureConfig(n_mels=4)) as arch:
                for i in range(2000, 2100):
                    arch.write(f"u{{i:04d}}", np.full((3, 4), i, dtype=np.float32))
            with FeatureArchive({str(root)!r}) as arch:
                assert len(arch) == 2100
                for i in range(0, 2100, 7):
                    assert arch.read(f"u{{i:04d}}")[0, 0] == i
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)

    def test_truncated_record_detected_at_every_length(self, tmp_path):
        rng = np.random.default_rng(12)
        with appender(tmp_path / "arch") as arch:
            arch.write("u1", random_matrix(rng, t=3))
        path = tmp_path / "arch" / DATA_FILE
        blob = path.read_bytes()
        # cut after the open: an archive opened on a cut file does not list u1
        with FeatureArchive(tmp_path / "arch", mode="r") as reader:
            for cut in range(len(blob)):
                path.write_bytes(blob[:cut])
                with pytest.raises(ArchiveError, match="truncated"):
                    reader.read("u1")

    @pytest.mark.parametrize("fault", ["payload byte", "head byte", "another record", "cut"])
    def test_a_slot_read_raises_what_an_id_read_raises(self, tmp_path, fault):
        """A read by a slot taken before the damage fails as a read by id
        does, with the same message: a flipped payload or id byte fails
        the CRC, another id's whole record at the offset fails the head
        check, and a file cut after the open is a truncated record."""
        rng = np.random.default_rng(16)
        root = tmp_path / "arch"
        with appender(root) as arch:
            for utt_id in ("u1", "u2", "u3"):
                arch.write(utt_id, random_matrix(rng, t=5))
        path = root / DATA_FILE
        blob = bytearray(path.read_bytes())
        start, payload, end = record_span(root, "u1")
        other, _, other_end = record_span(root, "u2")
        utt_id, message = "u1", f"checksum mismatch for 'u1' in {DATA_FILE}"
        with FeatureArchive(root, mode="r") as reader:
            slots = {key: reader.slot(key) for key in ("u1", "u3")}
            if fault == "payload byte":
                blob[payload + 3] ^= 0x10
            elif fault == "head byte":
                blob[payload - 1] ^= 0x01  # the last byte of the id
            elif fault == "another record":
                blob[start:end] = blob[other:other_end]
                message = f"record at {DATA_FILE}:{start} is not 'u1'"
            else:
                del blob[-4:]
                utt_id, message = "u3", f"truncated record for 'u3' in {DATA_FILE}"
            path.write_bytes(blob)
            row = np.zeros((5, 8), dtype=np.float32)
            for key, out in (
                (utt_id, None),
                (utt_id, row),
                (slots[utt_id], None),
                (slots[utt_id], memoryview(row.reshape(-1).view(np.uint8))),
            ):
                with pytest.raises(ArchiveError) as raised:
                    reader.read(key, out)
                assert str(raised.value) == message

    def test_a_slot_read_is_an_id_read(self, tmp_path):
        rng = np.random.default_rng(17)
        feats = random_matrix(rng, t=9)
        with appender(tmp_path / "arch") as arch:
            arch.write("u1", feats)
            slot = arch.slot("u1")
            assert arch.slot("u1") is slot  # the index's own entry, not a copy
            for key in ("u1", slot):
                got = arch.read(key)
                assert (got.dtype, got.shape) == (np.dtype("<f4"), feats.shape)
                assert got.tobytes() == feats.tobytes()
                row = np.zeros(feats.shape, dtype=np.float32)
                assert arch.read(key, row) is row
                assert row.tobytes() == feats.tobytes()
                with pytest.raises(ArchiveError, match=r"cannot read 'u1' \(9 x 8 float32\)"):
                    arch.read(key, np.zeros((9, 4), dtype=np.float32))
            row = np.zeros(feats.shape, dtype=np.float32)
            arch.read(slot, memoryview(row.reshape(-1).view(np.uint8)))
            assert row.tobytes() == feats.tobytes()
            with pytest.raises(ArchiveError, match="id not in archive: 'u2'"):
                arch.slot("u2")
        with FeatureArchive(tmp_path / "arch") as reader:
            assert reader.slot("u1") == slot  # the scan's entry is the write's
            assert reader.slot("u1") is reader.slot("u1")

    def test_the_index_leaves_nothing_for_the_collector_to_walk(self, tmp_path):
        """Neither appending records nor scanning them on open leaves an
        object per record that the cyclic garbage collector tracks, so a
        large index does not slow every later full collection."""

        def tracked():
            gc.collect()
            return len(gc.get_objects())

        feats = np.zeros((2, 8), dtype=np.float32)
        ids = [f"u{i:05d}" for i in range(2000)]
        root = tmp_path / "arch"
        with appender(root) as arch:
            before = tracked()
            for utt_id in ids:
                arch.write(utt_id, feats)
            assert tracked() - before < 50
        before = tracked()
        with FeatureArchive(root) as reader:
            assert len(reader) == len(ids)
            assert tracked() - before < 50

    def test_layout_is_one_file_across_reopens(self, tmp_path):
        # Digest of the directory written in three appending opens, each
        # of which reads every record as soon as it is written (as the
        # feature store does).
        rng = np.random.default_rng(31)
        matrices = [random_matrix(rng, f=4, t=int(rng.integers(1, 9))) for _ in range(24)]
        root = tmp_path / "arch"
        for part in (range(0, 11), range(11, 17), range(17, 24)):
            with appender(root, n_mels=4) as arch:
                for i in part:
                    arch.write(f"u{i:02d}", matrices[i])
                    assert arch.read(f"u{i:02d}").tobytes() == matrices[i].tobytes()
        h = hashlib.sha256()
        for path in sorted(root.iterdir()):
            h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
        assert [p.name for p in root.iterdir()] == [DATA_FILE]
        assert h.hexdigest() == "2b544e38d7be9a6407bfa7ce12e0e8ae634db8c7ad1f06f5852cc68e2ed74f1e"


def write_records(root, matrices, n_mels=3):
    with appender(root, n_mels=n_mels) as arch:
        for uid, m in matrices.items():
            arch.write(uid, m)


# One value per FeatureConfig field that differs from its default.
OTHER_VALUES = dict(
    sample_rate_hz=8000, n_mels=40, win_ms=32.0, hop_ms=12.5, fft_size=1024,
    log_floor=1e-6, mean_var_norm=True,
)


class TestShardsAreTheArchive:
    """The one data file is the whole archive: its header and records,
    appended by one writer at a time."""

    def test_records_of_a_killed_writer_survive(self, tmp_path):
        root = tmp_path / "arch"
        script = textwrap.dedent(
            f"""
            import os
            import numpy as np
            from concat_augment.archive import FeatureArchive
            from concat_augment.features import FeatureConfig

            arch = FeatureArchive({str(root)!r}, mode="a", feature=FeatureConfig(n_mels=8))
            for i in range(40):
                arch.write(f"u{{i:02d}}", np.full((i + 1, 8), i, dtype=np.float32))
            os._exit(0)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)
        with FeatureArchive(root, mode="r") as reader:
            assert reader.ids() == [f"u{i:02d}" for i in range(40)]
            for i in range(40):
                expected = np.full((i + 1, 8), i, "<f4").tobytes()
                assert reader.read(f"u{i:02d}").tobytes() == expected

    def test_torn_tail_at_every_offset(self, tmp_path):
        rng = np.random.default_rng(41)
        matrices = {f"u{i}": random_matrix(rng, t=int(rng.integers(1, 5)), f=3) for i in range(8)}
        matrices["u8" + "-long" * 80] = random_matrix(rng, t=2, f=3)  # a head over 256 bytes
        whole = tmp_path / "whole"
        write_records(whole, matrices)
        uncut = (whole / DATA_FILE).read_bytes()
        last = list(matrices)[-1]
        start = record_span(whole, last)[0]
        assert len(uncut) - start == len(_encode_record(last, matrices[last]))
        for cut in range(start, len(uncut)):
            root = tmp_path / f"cut{cut}"
            root.mkdir()
            (root / DATA_FILE).write_bytes(uncut[:cut])
            with FeatureArchive(root, mode="r") as reader:
                assert reader.ids() == list(matrices)[:-1]
                for uid in reader.ids():
                    assert reader.read(uid).tobytes() == matrices[uid].tobytes()
            assert (root / DATA_FILE).stat().st_size == cut  # read mode leaves the tail
            with appender(root, n_mels=3) as arch:
                assert (root / DATA_FILE).stat().st_size == start
                arch.write(last, matrices[last])
            assert (root / DATA_FILE).read_bytes() == uncut

    def test_a_head_bit_flip_never_cuts_more_than_the_last_record(self, tmp_path):
        rng = np.random.default_rng(43)
        matrices = {f"u{i}": random_matrix(rng, t=int(rng.integers(1, 6)), f=3) for i in range(5)}
        root = tmp_path / "arch"
        write_records(root, matrices)
        path = root / DATA_FILE
        blob = path.read_bytes()
        spans = {uid: record_span(root, uid) for uid in matrices}
        last_start = spans["u4"][0]
        # every byte of the file header, and of every record's head and id
        heads = [range(0, spans["u0"][0])] + [range(s, p) for s, p, _ in spans.values()]
        flips = 0
        for at in (at for head in heads for at in head):
            for bit in (0x01, 0x80):
                path.write_bytes(blob[:at] + bytes([blob[at] ^ bit]) + blob[at + 1 :])
                for mode in ("r", "a"):
                    try:
                        arch = FeatureArchive(root, mode=mode, feature=FeatureConfig(n_mels=3))
                    except ArchiveError:
                        continue
                    with arch:
                        assert path.stat().st_size >= last_start
                        for uid, m in matrices.items():
                            if uid == "u4" and path.stat().st_size == last_start:
                                continue  # the one record a cut may take
                            try:
                                got = arch.read(uid)
                            except ArchiveError:
                                continue
                            assert got.tobytes() == m.tobytes()
                flips += 1
        assert flips == 2 * sum(len(head) for head in heads)
        # a flip in a record's dims or their CRC names the file and the offset
        s = spans["u2"][0]
        path.write_bytes(blob[:s] + bytes([blob[s] ^ 0x80]) + blob[s + 1 :])
        for mode in ("r", "a"):
            with pytest.raises(ArchiveError, match=rf"{re.escape(str(path))}: .* byte {s}$"):
                FeatureArchive(root, mode=mode, feature=FeatureConfig(n_mels=3))
        assert path.read_bytes() == blob[:s] + bytes([blob[s] ^ 0x80]) + blob[s + 1 :]

    def test_every_feature_field_is_compared(self):
        assert set(OTHER_VALUES) == {f.name for f in dataclasses.fields(FeatureConfig)}

    @pytest.mark.parametrize("name", list(OTHER_VALUES))
    def test_another_feature_config_names_the_field(self, tmp_path, name):
        feature = FeatureConfig(**{name: OTHER_VALUES[name]})
        root = tmp_path / "arch"
        with FeatureArchive(root, mode="a", feature=FeatureConfig()) as arch:
            arch.write("u1", np.zeros((2, 80), dtype=np.float32))
        blob = (root / DATA_FILE).read_bytes()
        for mode in ("r", "a"):
            with pytest.raises(ConfigurationError, match=rf"{re.escape(str(root))} .*\b{name}\b"):
                FeatureArchive(root, mode=mode, feature=feature)
        assert (root / DATA_FILE).read_bytes() == blob

    def test_an_older_layout_is_refused_untouched(self, tmp_path):
        root = tmp_path / "arch"
        root.mkdir()
        (root / "shard-00000.bin").write_bytes(b"\x02\x00\x00\x00u1" + bytes(20))
        (root / "index.json").write_text("{}", encoding="utf-8")
        before = {p.name: p.read_bytes() for p in root.iterdir()}
        for mode in ("r", "a"):
            with pytest.raises(ArchiveError, match=rf"{re.escape(str(root))} .*delete"):
                FeatureArchive(root, mode=mode, feature=FeatureConfig())
        assert {p.name: p.read_bytes() for p in root.iterdir()} == before

    def test_os_errors_name_the_path(self, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_bytes(b"")
        with pytest.raises(ArchiveError, match=rf"{re.escape(str(blocker / 'arch'))}: Not a dir"):
            appender(blocker / "arch")

        def no_fds(*args, **kwargs):
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

        with monkeypatch.context() as patch:
            patch.setattr(archive_module.os, "open", no_fds)
            with pytest.raises(ArchiveError, match=rf"{re.escape(str(tmp_path))}.*Too many open"):
                appender(tmp_path / "arch")

    def test_a_write_is_whole_or_absent(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(44)
        first, second = random_matrix(rng, t=5), random_matrix(rng, t=7)
        root = tmp_path / "arch"
        pwrite = os.pwrite
        with appender(root) as arch:
            arch.write("u0", first)

            def short(fd, data, offset):  # a short write: at most 9 bytes each
                return pwrite(fd, bytes(data[:9]), offset)

            monkeypatch.setattr(archive_module.os, "pwrite", short)
            arch.write("u1", first)

            def full_disk(fd, data, offset):  # part of the record, then ENOSPC
                if len(data) <= 20:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return pwrite(fd, bytes(data[:20]), offset)

            monkeypatch.setattr(archive_module.os, "pwrite", full_disk)
            whole = (root / DATA_FILE).read_bytes()
            full = rf"{re.escape(str(root / DATA_FILE))}: No space"
            with pytest.raises(ArchiveError, match=full):
                arch.write("u2", second)
            assert (root / DATA_FILE).read_bytes() == whole
            assert "u2" not in arch
            monkeypatch.setattr(archive_module.os, "pwrite", pwrite)
            arch.write("u2", second)
        with FeatureArchive(root) as reader:
            assert reader.ids() == ["u0", "u1", "u2"]
            for uid, m in (("u0", first), ("u1", first), ("u2", second)):
                assert reader.read(uid).tobytes() == m.tobytes()

    def test_first_record_of_a_duplicate_id_wins(self, tmp_path):
        root = tmp_path / "arch"
        first = np.ones((2, 3), dtype=np.float32)
        write_records(root, {"u1": first, "u2": first * 2})
        with open(root / DATA_FILE, "ab") as f:
            f.write(_encode_record("u1", np.zeros((5, 3), dtype=np.float32)))
        with FeatureArchive(root, mode="r") as reader:
            assert reader.ids() == ["u1", "u2"]
            assert reader.shape("u1") == (2, 3)
            assert reader.read("u1").tobytes() == first.tobytes()

    def test_one_appender_at_a_time(self, tmp_path):
        # the second append-mode open fails before it cuts the torn tail
        root = tmp_path / "arch"
        rng = np.random.default_rng(18)
        first = random_matrix(rng)
        with appender(root) as writer:
            writer.write("u1", first)
            path = root / DATA_FILE
            whole = path.read_bytes()
            with open(path, "ab") as f:
                f.write(b"\x07\x00")  # a record being written
            with pytest.raises(ArchiveError, match=f"archive {re.escape(str(root))} is already open"):
                appender(root)
            assert path.read_bytes() == whole + b"\x07\x00"
            with FeatureArchive(root, mode="r") as reader:
                assert reader.ids() == ["u1"]
            os.truncate(path, len(whole))
            writer.write("u2", first * 2)
            assert writer.read("u2").tobytes() == (first * 2).tobytes()
        with appender(root) as writer:
            assert writer.ids() == ["u1", "u2"]
        assert [p.name for p in root.iterdir()] == [DATA_FILE]

    def test_no_file_but_shards(self, tmp_path):
        root = tmp_path / "arch"
        write_records(root, {"u1": np.ones((2, 3), dtype=np.float32)})
        assert [p.name for p in root.iterdir()] == [DATA_FILE]
