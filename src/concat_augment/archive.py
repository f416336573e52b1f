"""On-disk feature archive: a directory of shard files and nothing else.

Each record is self-describing and little-endian:

    u32 id_len | id_len bytes UTF-8 id | u32 T | u32 F
    | T*F float32 row-major | u32 CRC32

The CRC covers everything before the trailer. Shards roll over at a
size threshold. Opening reads every record's header, skipping payload
and CRC, into the index id -> (shard, offset, T, F); the first record
of an id wins. Bytes after the newest shard's last complete record are
a torn tail from a killed writer: append mode truncates them, read mode
ignores them. One writer at a time: an append-mode archive holds an
exclusive ``flock`` on the directory until it is closed, and a second
append-mode open fails before it touches a shard. Any number of readers,
which take no lock. The archive keeps one read-only file per shard open
from the moment it knows the shard until :meth:`FeatureArchive.close`.
"""

from __future__ import annotations

import fcntl
import io
import os
import struct
from pathlib import Path

import numpy as np

from .checksum import crc32
from .errors import ArchiveError

_SHARD_TEMPLATE = "shard-{:05d}.bin"
_HEADER = struct.Struct("<I")
_DIMS = struct.Struct("<II")
_PEEK = 256  # bytes read per record header while scanning; a longer id takes a second read


def _head(id_bytes: bytes, t: int, fdim: int) -> bytes:
    """A record's bytes before its payload."""
    return _HEADER.pack(len(id_bytes)) + id_bytes + _DIMS.pack(t, fdim)


def _encode_record(utt_id: str, feats: np.ndarray) -> bytes:
    body = _head(utt_id.encode("utf-8"), *feats.shape)
    body += np.ascontiguousarray(feats, dtype="<f4").tobytes()
    return body + _HEADER.pack(crc32(body))


class FeatureArchive:
    """Read/write access to one archive directory: ``mode`` "r" (read-only)
    or "a" (read and append). Appends go to the newest shard until it
    exceeds ``max_shard_bytes``."""

    def __init__(self, root: str | Path, mode: str = "r", max_shard_bytes: int = 64 * 1024 * 1024):
        if mode not in ("r", "a"):
            raise ArchiveError(f"unsupported archive mode {mode!r}")
        self.root = Path(root)
        self.mode = mode
        self.max_shard_bytes = max_shard_bytes
        self._index: dict[str, tuple[str, int, int, int]] = {}
        # Every shard's read file, opened before an index entry names it.
        self._files: dict[str, io.FileIO] = {}
        if mode == "a":
            self.root.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise ArchiveError(f"no archive at {self.root}")
        # The shard appends go to, its size and the shard count; write updates them.
        self._shard: Path | None = None
        self._shard_bytes = 0
        # The directory's fd, flocked while an append-mode archive is open.
        self._lock: int | None = None
        try:
            if mode == "a":
                self._lock = os.open(self.root, os.O_RDONLY | os.O_DIRECTORY)
                try:
                    fcntl.flock(self._lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except BlockingIOError:
                    raise ArchiveError(
                        f"archive {self.root} is already open for appending"
                    ) from None
            shards = sorted(p.name for p in self.root.glob("shard-*.bin"))
            self._shard_count = len(shards)
            for name in shards:
                self._files[name] = open(self.root / name, "rb", buffering=0)
                end, size = self._scan(name)
                if end != size and name != shards[-1]:
                    raise ArchiveError(f"{self.root / name}: unparseable record at byte {end}")
                if end != size and mode == "a":  # a torn tail
                    os.truncate(self.root / name, end)
                self._shard, self._shard_bytes = self.root / name, end
        except BaseException:
            self.close()
            raise

    def _scan(self, name: str) -> tuple[int, int]:
        """Index a shard's complete records; return (where they end, its size)."""
        fd = self._files[name].fileno()
        size = os.fstat(fd).st_size
        offset = 0
        while offset + _HEADER.size <= size:
            head = os.pread(fd, _PEEK, offset)
            (id_len,) = _HEADER.unpack_from(head)
            payload_at = offset + _HEADER.size + id_len + _DIMS.size
            if payload_at > size:
                break
            if payload_at - offset > len(head):
                head = os.pread(fd, payload_at - offset, offset)
            t, fdim = _DIMS.unpack_from(head, _HEADER.size + id_len)
            end = payload_at + t * fdim * 4 + _HEADER.size
            if end > size:
                break
            try:
                utt_id = head[_HEADER.size : _HEADER.size + id_len].decode("utf-8")
            except UnicodeDecodeError:
                raise ArchiveError(
                    f"{self.root / name}: unparseable record at byte {offset}"
                ) from None
            self._index.setdefault(utt_id, (name, offset, t, fdim))
            offset = end
        return offset, size

    def __contains__(self, utt_id: str) -> bool:
        return utt_id in self._index

    def __len__(self) -> int:
        return len(self._index)

    def ids(self) -> list[str]:
        return list(self._index)

    def shape(self, utt_id: str) -> tuple[int, int]:
        """The stored matrix's (T, F), from the index; KeyError if absent."""
        return self._index[utt_id][2:]

    def write(self, utt_id: str, feats: np.ndarray) -> None:
        if self.mode != "a":
            raise ArchiveError("archive opened read-only")
        feats = np.asarray(feats)
        if feats.ndim != 2:
            raise ArchiveError(f"expected a T x F matrix, got shape {feats.shape}")
        if utt_id in self._index:
            raise ArchiveError(f"id already archived: {utt_id!r}")
        if self._shard is None or self._shard_bytes >= self.max_shard_bytes:
            self._shard = self.root / _SHARD_TEMPLATE.format(self._shard_count)
            self._shard_bytes = 0
            self._shard_count += 1
        record = _encode_record(utt_id, feats)
        with open(self._shard, "ab") as f:
            offset = f.tell()
            f.write(record)
        if self._shard.name not in self._files:
            self._files[self._shard.name] = open(self._shard, "rb", buffering=0)
        self._shard_bytes = offset + len(record)
        self._index[utt_id] = (self._shard.name, offset, *feats.shape)

    def read(self, utt_id: str, out: np.ndarray | None = None) -> np.ndarray:
        """Return the stored float32 matrix; verifies the CRC trailer.

        The payload is read straight into ``out`` when given, a writable
        C-contiguous ``(T, F)`` float32 array such as a slice of a batch
        record, and ``out`` is returned; otherwise into a new array.
        """
        try:
            shard_name, offset, t, fdim = self._index[utt_id]
        except KeyError:
            raise ArchiveError(f"id not in archive: {utt_id!r}") from None
        if out is None:
            out = np.empty((t, fdim), dtype="<f4")
        elif out.shape != (t, fdim) or out.dtype != np.dtype("<f4") or not out.flags.c_contiguous:
            raise ArchiveError(
                f"cannot read {utt_id!r} ({t} x {fdim} float32) into a {out.dtype} "
                f"array of shape {out.shape}"
            )
        expected = _head(utt_id.encode("utf-8"), t, fdim)
        head = bytearray(len(expected))
        payload = memoryview(out.reshape(-1).view(np.uint8))
        trailer = bytearray(_HEADER.size)
        try:
            fd = self._files[shard_name].fileno()
        except KeyError:
            raise ArchiveError(f"archive {self.root} is closed") from None
        # One unbuffered read of the whole record: a run reads every
        # record once per use, into the buffer it is emitted from.
        got = os.preadv(fd, [head, payload, trailer], offset)
        if got != len(head) + len(payload) + len(trailer):
            raise ArchiveError(f"truncated record for {utt_id!r} in {shard_name}")
        (crc,) = _HEADER.unpack(trailer)
        if crc32(payload, crc32(head)) != crc:
            raise ArchiveError(f"checksum mismatch for {utt_id!r} in {shard_name}")
        if head != expected:
            raise ArchiveError(f"record at {shard_name}:{offset} is not {utt_id!r}")
        return out

    def flush(self) -> None:
        """Nothing to do: each write is in its shard once it returns."""

    def close(self) -> None:
        """Close every shard's read file and release the append lock; a
        read after this fails."""
        files, self._files = self._files, {}
        for f in files.values():
            f.close()
        lock, self._lock = self._lock, None
        if lock is not None:
            os.close(lock)  # which releases the flock

    def __enter__(self) -> "FeatureArchive":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
