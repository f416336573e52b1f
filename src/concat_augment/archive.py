"""On-disk feature archive: a directory holding one append-only file.

The file, ``features.bin``, starts with a header that names its format
and the feature config its records were extracted with, little-endian:

    magic "CAFA" | u32 format version | u32 n | n bytes config JSON
    | u32 CRC32 of the header's other bytes

The config is :meth:`FeatureConfig.summary` as canonical JSON. Records
follow, each self-describing:

    u32 id_len | u32 T | u32 F | u32 CRC32 of those 12 bytes
    | id_len bytes UTF-8 id | T*F float32 row-major | u32 CRC32

The trailing CRC covers everything in the record before it. Opening
reads the header and every record's head, skipping payloads, into the
index, the archive's one table of its records. It maps an id to its
record's entry, the exact tuple

    (offset, head, head_crc, nbytes, utt_id)

of the record's offset in the file, its head as written (the bytes
before the payload) and that head's CRC, its payload's size in bytes
and its id. CPython's garbage collector stops tracking an exact tuple
of atomic values once a collection has seen it (never a named tuple),
so the index adds nothing for later collections to walk. The scan
builds an entry from the head bytes it read, for an id's first record
only (the first record of an id wins); :meth:`FeatureArchive.write`
adds the entry of the head it encoded. A head is checked before any
length in it is trusted, so a head that fails its CRC is an error
naming the file and byte offset in both modes, never a reason to cut.
Only bytes after the last complete record that are shorter than a head,
or shorter than the one record a valid head describes, are a torn tail
from a killed writer: append mode truncates them, read mode ignores
them.

An archive holds its file open on one descriptor from open to
:meth:`FeatureArchive.close`; the scan, every read (``preadv``) and
every write go through it, so the file may be unlinked once it is open
(a scratch archive is). A read checks the record's length, CRC trailer
and head against its entry; a reader that reads a record again can keep
the index's own entry (:meth:`FeatureArchive.slot`) and read by it,
skipping the index lookup. One writer at a time: an append-mode archive
holds an exclusive ``flock`` on that descriptor, and a second
append-mode open fails before it changes a byte. Any number of readers,
which take no lock.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import struct
from pathlib import Path

import numpy as np

from .checksum import crc32
from .errors import ArchiveError, ConfigurationError
from .features import FeatureConfig

DATA_FILE = "features.bin"
FORMAT_VERSION = 1
_MAGIC = b"CAFA"
_PRELUDE = struct.Struct("<4sII")  # magic, format version, config length
_U32 = struct.Struct("<I")
_DIMS = struct.Struct("<III")  # id_len, T, F
_HEAD = struct.Struct("<IIII")  # the dims and their CRC
_PEEK = 256  # bytes read per record head while scanning; a longer id takes a second read


def _encode_record(utt_id: str, feats: np.ndarray) -> bytes:
    id_bytes = utt_id.encode("utf-8")
    dims = _DIMS.pack(len(id_bytes), *feats.shape)
    body = dims + _U32.pack(crc32(dims)) + id_bytes
    body += np.ascontiguousarray(feats, dtype="<f4").tobytes()
    return body + _U32.pack(crc32(body))


def _encode_header(feature: FeatureConfig) -> bytes:
    config = json.dumps(feature.summary(), sort_keys=True, separators=(",", ":"))
    body = _PRELUDE.pack(_MAGIC, FORMAT_VERSION, len(config)) + config.encode("utf-8")
    return body + _U32.pack(crc32(body))


class FeatureArchive:
    """Read/write access to one archive directory: ``mode`` "r" (read-only)
    or "a" (read and append).

    An append-mode archive takes the ``feature`` config its records are
    extracted with; a new archive's header records it. Whenever
    ``feature`` is given, an archive whose header holds another config
    raises :class:`ConfigurationError` naming the first field that
    differs. :attr:`feature` is the header's config mapping and
    :attr:`path` the data file.
    """

    def __init__(self, root: str | Path, mode: str = "r", feature: FeatureConfig | None = None):
        if mode not in ("r", "a"):
            raise ArchiveError(f"unsupported archive mode {mode!r}")
        if mode == "a" and feature is None:
            raise ArchiveError("an append-mode archive needs the feature config of its records")
        self.root = Path(root)
        self.path = self.root / DATA_FILE
        self.mode = mode
        self.feature: dict = {}
        self._index: dict[str, tuple] = {}
        self._fd: int | None = None
        self._end = 0  # where the next record goes
        try:
            if mode == "a":
                self.root.mkdir(parents=True, exist_ok=True)
            elif not self.root.is_dir():
                raise ArchiveError(f"no archive at {self.root}")
            if any(self.root.glob("shard-*.bin")):
                raise ArchiveError(
                    f"archive {self.root} holds shard-*.bin files of an older layout; "
                    "delete the directory and extract the features again"
                )
            if mode == "a":
                self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
                try:
                    fcntl.flock(self._fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except BlockingIOError:
                    raise ArchiveError(
                        f"archive {self.root} is already open for appending"
                    ) from None
                if os.fstat(self._fd).st_size == 0:
                    self._append(_encode_header(feature))
            else:
                self._fd = os.open(self.path, os.O_RDONLY)
            size = os.fstat(self._fd).st_size
            records_at = self._read_header(size)
            if feature is not None:
                self._check_feature(feature)
            self._end = self._scan(records_at, size)
            if self._end != size and mode == "a":  # a torn tail
                os.ftruncate(self._fd, self._end)
        except OSError as exc:
            self.close()
            raise ArchiveError(f"cannot open archive {self.root}: {exc.strerror}") from exc
        except BaseException:
            self.close()
            raise

    def _read_header(self, size: int) -> int:
        """Read the header into :attr:`feature`; return where it ends."""
        prelude = os.pread(self._fd, _PRELUDE.size, 0)
        if len(prelude) < _PRELUDE.size or prelude[:4] != _MAGIC:
            raise ArchiveError(f"{self.path} is not a feature archive")
        _, version, n = _PRELUDE.unpack(prelude)
        end = _PRELUDE.size + n + _U32.size
        if end > size:
            raise ArchiveError(f"{self.path}: truncated archive header")
        header = os.pread(self._fd, end, 0)
        if crc32(header[: -_U32.size]) != _U32.unpack_from(header, end - _U32.size)[0]:
            raise ArchiveError(f"{self.path}: archive header failed its checksum")
        if version != FORMAT_VERSION:
            raise ArchiveError(f"{self.path}: unsupported archive format version {version}")
        self.feature = json.loads(header[_PRELUDE.size : -_U32.size])
        return end

    def _check_feature(self, feature: FeatureConfig) -> None:
        wanted = feature.summary()
        for name in {**wanted, **self.feature}:
            have, want = self.feature.get(name), wanted.get(name)
            if have == want:
                continue
            if name == "n_mels":
                raise ConfigurationError(
                    f"archive {self.root} holds {have}-bin features; "
                    f"the feature config asks for {want} mels (n_mels)"
                )
            raise ConfigurationError(
                f"archive {self.root} holds features with {name} {have!r}; "
                f"the feature config asks for {name} {want!r}"
            )

    def _scan(self, offset: int, size: int) -> int:
        """Index the complete records from ``offset``; return where they end."""
        n_mels = self.feature["n_mels"]
        while offset + _HEAD.size <= size:
            head = os.pread(self._fd, _PEEK, offset)
            id_len, t, fdim, crc = _HEAD.unpack_from(head)
            if crc32(head[: _DIMS.size]) != crc:
                raise ArchiveError(f"{self.path}: corrupt record head at byte {offset}")
            nbytes = 4 * t * fdim
            end = offset + _HEAD.size + id_len + nbytes + _U32.size
            if end > size:
                break
            if _HEAD.size + id_len > len(head):
                head = os.pread(self._fd, _HEAD.size + id_len, offset)
            head = head[: _HEAD.size + id_len]
            try:
                utt_id = head[_HEAD.size :].decode("utf-8")
            except UnicodeDecodeError:
                raise ArchiveError(f"{self.path}: unreadable record id at byte {offset}") from None
            if fdim != n_mels:
                raise ArchiveError(
                    f"{self.path}: the record at byte {offset} holds {fdim}-bin features for "
                    f"{utt_id!r}; the archive's config has {n_mels} mels"
                )
            if utt_id not in self._index:
                self._index[utt_id] = (offset, head, crc32(head), nbytes, utt_id)
            offset = end
        return offset

    def _append(self, data: bytes) -> None:
        """Write all of ``data`` at the end of the file, or none of it."""
        view = memoryview(data)
        at = self._end
        try:
            while view:
                n = os.pwrite(self._fd, view, at)
                if n == 0:
                    raise OSError(0, "no bytes written")
                view, at = view[n:], at + n
        except OSError as exc:
            with contextlib.suppress(OSError):
                os.ftruncate(self._fd, self._end)
            raise ArchiveError(f"cannot append to {self.path}: {exc.strerror}") from exc
        self._end = at

    def __contains__(self, utt_id: str) -> bool:
        return utt_id in self._index

    def __len__(self) -> int:
        return len(self._index)

    def ids(self) -> list[str]:
        return list(self._index)

    def shape(self, utt_id: str) -> tuple[int, int]:
        """The stored matrix's (T, F), from the index; KeyError if absent."""
        return _DIMS.unpack_from(self._index[utt_id][1])[1:]

    def write(self, utt_id: str, feats: np.ndarray) -> None:
        if self.mode != "a":
            raise ArchiveError("archive opened read-only")
        feats = np.asarray(feats)
        if feats.ndim != 2:
            raise ArchiveError(f"expected a T x F matrix, got shape {feats.shape}")
        if feats.shape[1] != self.feature["n_mels"]:
            raise ArchiveError(
                f"cannot archive {feats.shape[1]}-bin features for {utt_id!r}; "
                f"the archive's config has {self.feature['n_mels']} mels"
            )
        if utt_id in self._index:
            raise ArchiveError(f"id already archived: {utt_id!r}")
        if self._fd is None:
            raise ArchiveError(f"archive {self.root} is closed")
        offset, nbytes = self._end, 4 * feats.size
        record = _encode_record(utt_id, feats)
        self._append(record)
        head = record[: len(record) - nbytes - _U32.size]
        self._index[utt_id] = (offset, head, crc32(head), nbytes, utt_id)

    def slot(self, utt_id: str) -> tuple:
        """The index's own entry of ``utt_id``'s record (see the module),
        for a reader that reads it again (:meth:`read`); ArchiveError if
        absent."""
        try:
            return self._index[utt_id]
        except KeyError:
            raise ArchiveError(f"id not in archive: {utt_id!r}") from None

    def read(self, key: str | tuple, out=None):
        """Read a record's float32 payload, checking the record's length,
        CRC trailer and head, and return what it was read into.

        ``key`` is the record's id, or its index entry (:meth:`slot`),
        which saves a reader that reads the record again the index
        lookup. The payload is read into a new ``(T, F)`` float32 array
        when ``out`` is None; into ``out`` when it is a writable
        C-contiguous ``(T, F)`` float32 array, such as a slice of a batch
        record; else ``out`` is any writable buffer of the payload's
        bytes, such as a memoryview of a batch record's row.
        """
        entry = key if isinstance(key, tuple) else self.slot(key)
        offset, expected, expected_crc, nbytes, utt_id = entry
        if out is None or isinstance(out, np.ndarray):
            shape = _DIMS.unpack_from(expected)[1:]
            if out is None:
                out = np.empty(shape, dtype="<f4")
            elif (
                out.shape != shape
                or out.dtype != np.dtype("<f4")
                or not out.flags.c_contiguous
            ):
                raise ArchiveError(
                    f"cannot read {utt_id!r} ({shape[0]} x {shape[1]} float32) into a "
                    f"{out.dtype} array of shape {out.shape}"
                )
            payload = memoryview(out.reshape(-1).view(np.uint8))
        else:
            payload = out
        head = bytearray(len(expected))
        trailer = bytearray(_U32.size)
        fd = self._fd
        if fd is None:
            raise ArchiveError(f"archive {self.root} is closed")
        # One unbuffered read of the whole record: a run reads every
        # record once per use, into the buffer it is emitted from.
        got = os.preadv(fd, [head, payload, trailer], offset)
        if got != len(head) + nbytes + len(trailer):
            raise ArchiveError(f"truncated record for {utt_id!r} in {DATA_FILE}")
        (crc,) = _U32.unpack(trailer)
        same_head = head == expected
        if crc32(payload, expected_crc if same_head else crc32(head)) != crc:
            raise ArchiveError(f"checksum mismatch for {utt_id!r} in {DATA_FILE}")
        if not same_head:
            raise ArchiveError(f"record at {DATA_FILE}:{offset} is not {utt_id!r}")
        return out

    def flush(self) -> None:
        """Nothing to do: each write is in the file once it returns."""

    def close(self) -> None:
        """Close the file, which releases the append lock; a read after
        this fails."""
        fd, self._fd = self._fd, None
        if fd is not None:
            os.close(fd)

    def __enter__(self) -> "FeatureArchive":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
