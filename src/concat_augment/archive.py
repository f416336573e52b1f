"""On-disk feature archive: a directory of shard files and nothing else.

Each record is self-describing and little-endian:

    u32 id_len | id_len bytes UTF-8 id | u32 T | u32 F
    | T*F float32 row-major | u32 CRC32

The CRC covers everything before the trailer. Shards roll over at a
size threshold. Opening reads every record's header, skipping payload
and CRC, into the index id -> (shard, offset, T, F); the first record
of an id wins. Bytes after the newest shard's last complete record are
a torn tail from a killed writer: append mode truncates them, read mode
ignores them. One writer at a time; any number of concurrent readers.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

import numpy as np

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
    return body + _HEADER.pack(zlib.crc32(body))


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
        if mode == "a":
            self.root.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise ArchiveError(f"no archive at {self.root}")
        # The shard appends go to, its size and the shard count; write updates them.
        self._shard: Path | None = None
        self._shard_bytes = 0
        shards = sorted(p.name for p in self.root.glob("shard-*.bin"))
        self._shard_count = len(shards)
        for name in shards:
            end, size = self._scan(name)
            if end != size and name != shards[-1]:
                raise ArchiveError(f"{self.root / name}: unparseable record at byte {end}")
            if end != size and mode == "a":  # a torn tail
                os.truncate(self.root / name, end)
            self._shard, self._shard_bytes = self.root / name, end

    def _scan(self, name: str) -> tuple[int, int]:
        """Index a shard's complete records; return (where they end, its size)."""
        with open(self.root / name, "rb", buffering=0) as f:
            fd = f.fileno()
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
        self._shard_bytes = offset + len(record)
        self._index[utt_id] = (self._shard.name, offset, *feats.shape)

    def read(self, utt_id: str) -> np.ndarray:
        """Return the stored float32 matrix; verifies the CRC trailer."""
        try:
            shard_name, offset, t, fdim = self._index[utt_id]
        except KeyError:
            raise ArchiveError(f"id not in archive: {utt_id!r}") from None
        expected = _head(utt_id.encode("utf-8"), t, fdim)
        truncated = ArchiveError(f"truncated record for {utt_id!r} in {shard_name}")
        # Unbuffered, and the payload is read straight into the buffer the
        # returned array keeps: a run reads every record once per use.
        record = bytearray(t * fdim * 4 + _HEADER.size)  # payload and CRC trailer
        with open(os.path.join(self.root, shard_name), "rb", buffering=0) as f:
            f.seek(offset)
            head = f.read(len(expected))
            if len(head) != len(expected) or f.readinto(record) != len(record):
                raise truncated
        payload = memoryview(record)[: -_HEADER.size]
        (crc,) = _HEADER.unpack_from(record, len(payload))
        if zlib.crc32(payload, zlib.crc32(head)) != crc:
            raise ArchiveError(f"checksum mismatch for {utt_id!r} in {shard_name}")
        if head != expected:
            raise ArchiveError(f"record at {shard_name}:{offset} is not {utt_id!r}")
        return np.frombuffer(record, dtype="<f4", count=t * fdim).reshape(t, fdim)

    def flush(self) -> None:
        """Nothing to do: each write is in its shard once it returns."""

    def close(self) -> None:
        """Nothing to release: every read and write opens its own file."""

    def __enter__(self) -> "FeatureArchive":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
