"""On-disk feature archive.

A directory of binary shard files plus an ``index.json`` mapping
utterance id -> [shard filename, byte offset]. Each record is
little-endian:

    u32 id_len | id_len bytes UTF-8 id | u32 T | u32 F
    | T*F float32 row-major | u32 CRC32

The CRC covers everything before the trailer. Shards roll over at a
size threshold. One writer at a time; any number of concurrent readers
(each read seeks independently).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import ArchiveError

INDEX_NAME = "index.json"
_SHARD_TEMPLATE = "shard-{:05d}.bin"
_HEADER = struct.Struct("<I")
_DIMS = struct.Struct("<II")


def _encode_record(utt_id: str, feats: np.ndarray) -> bytes:
    id_bytes = utt_id.encode("utf-8")
    t, f = feats.shape
    body = (
        _HEADER.pack(len(id_bytes))
        + id_bytes
        + _DIMS.pack(t, f)
        + np.ascontiguousarray(feats, dtype="<f4").tobytes()
    )
    return body + _HEADER.pack(zlib.crc32(body))


class FeatureArchive:
    """Read/write access to one archive directory.

    ``mode`` is "r" (read-only) or "a" (read and append). Appends go to
    the newest shard until it exceeds ``max_shard_bytes``; the index is
    rewritten on :meth:`flush` and :meth:`close`.
    """

    def __init__(self, root: str | Path, mode: str = "r", max_shard_bytes: int = 64 * 1024 * 1024):
        if mode not in ("r", "a"):
            raise ArchiveError(f"unsupported archive mode {mode!r}")
        self.root = Path(root)
        self.mode = mode
        self.max_shard_bytes = max_shard_bytes
        self._index: dict[str, tuple[str, int]] = {}
        self._dirty = False

        index_path = self.root / INDEX_NAME
        if index_path.exists():
            with open(index_path, "r", encoding="utf-8") as f:
                raw = json.load(f)
            self._index = {k: (v[0], int(v[1])) for k, v in raw.items()}
        elif mode == "r":
            raise ArchiveError(f"no archive index at {index_path}")
        # The shard appends go to, its size and the shard count, found once
        # here and then kept up to date by write.
        self._shard: Path | None = None
        self._shard_bytes = 0
        self._shard_count = 0
        if mode == "a":
            self.root.mkdir(parents=True, exist_ok=True)
            shards = sorted(self.root.glob("shard-*.bin"))
            self._shard_count = len(shards)
            if shards:
                self._shard = shards[-1]
                self._shard_bytes = self._shard.stat().st_size

    @property
    def writable(self) -> bool:
        return self.mode == "a"

    def __contains__(self, utt_id: str) -> bool:
        return utt_id in self._index

    def __len__(self) -> int:
        return len(self._index)

    def ids(self) -> list[str]:
        return list(self._index)

    def write(self, utt_id: str, feats: np.ndarray) -> None:
        if not self.writable:
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
        self._index[utt_id] = (self._shard.name, offset)
        self._dirty = True

    def read(self, utt_id: str) -> np.ndarray:
        """Return the stored float32 matrix; verifies the CRC trailer."""
        try:
            shard_name, offset = self._index[utt_id]
        except KeyError:
            raise ArchiveError(f"id not in archive: {utt_id!r}") from None
        truncated = ArchiveError(f"truncated record for {utt_id!r} in {shard_name}")
        # Unbuffered, and the payload is read straight into the buffer the
        # returned array keeps: a run reads every record once per use.
        with open(os.path.join(self.root, shard_name), "rb", buffering=0) as f:
            available = os.fstat(f.fileno()).st_size - offset
            f.seek(offset)
            head = f.read(_HEADER.size)
            if len(head) != _HEADER.size:
                raise truncated
            (id_len,) = _HEADER.unpack(head)
            if _HEADER.size + id_len + _DIMS.size > available:
                raise truncated
            head += f.read(id_len + _DIMS.size)
            t, fdim = _DIMS.unpack_from(head, _HEADER.size + id_len)
            size = t * fdim * 4 + _HEADER.size  # payload and CRC trailer
            if len(head) + size > available:
                raise truncated
            record = bytearray(size)
            if f.readinto(record) != size:
                raise truncated
        payload = memoryview(record)[: -_HEADER.size]
        (crc,) = _HEADER.unpack_from(record, len(payload))
        if zlib.crc32(payload, zlib.crc32(head)) != crc:
            raise ArchiveError(f"checksum mismatch for {utt_id!r} in {shard_name}")
        stored_id = head[_HEADER.size : _HEADER.size + id_len]
        if stored_id.decode("utf-8") != utt_id:
            raise ArchiveError(f"index points at record {stored_id!r}, expected {utt_id!r}")
        return np.frombuffer(record, dtype="<f4", count=t * fdim).reshape(t, fdim)

    def flush(self) -> None:
        if not self._dirty:
            return
        index_path = self.root / INDEX_NAME
        tmp = index_path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump({k: [s, o] for k, (s, o) in self._index.items()}, f)
        tmp.replace(index_path)
        self._dirty = False

    def close(self) -> None:
        if self.writable:
            self.flush()

    def __enter__(self) -> "FeatureArchive":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
