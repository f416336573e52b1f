"""Binary batch serialization.

Record layout, all little-endian:

    magic "CABX" | u32 version | u32 B | u32 T_max | u32 F
    | B*T_max*F float32 features, row-major
    | u32 target pad id
    | per item: u32 target length, then that many u32 token ids
    | per item: u32 feature length
    | u32 CRC32 of all preceding bytes

``--emit files`` writes one record per file; ``--emit stream`` writes a
single file of records, each prefixed with its u32 byte length.
Provenance ids are not part of the wire format.

A :class:`Record` is one record built in place in a single buffer that
starts with the stream length prefix: its size follows from the rows'
frame counts and targets, so the header, targets and lengths are
written when it is laid out, and the features are filled through a
``B x T_max x F`` view of the buffer. The buffer is a new zeroed one,
or one an earlier record used, whose bytes are stale: then
:meth:`Record.finish_row` zeroes each filled row's padding. Once every
byte is in, :meth:`Record.seal` writes the CRC trailer in one pass over
the record; the pipeline seals on the thread that writes, while the
next record builds, since the CRC runs without the GIL. A writer then
only writes the buffer: all of it to a stream, all but the prefix to a
batch file. :func:`decode_batch` reads a record back into a
:class:`Batch`.
"""

from __future__ import annotations

import operator
import os
import struct
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .batching import Batch
from .checksum import crc32
from .errors import BatchingError

MAGIC = b"CABX"
VERSION = 1
_U32 = struct.Struct("<I")
_HEADER = struct.Struct("<4sIIII")  # magic, version, B, T_max, F

_U32_MAX = 2**32 - 1

_PREFIX = _U32.size  # the stream length prefix before each record


def _target_out_of_range(row: int, tokens) -> BatchingError:
    for token in tokens:
        try:
            if 0 <= operator.index(token) <= _U32_MAX:
                continue
        except TypeError:
            return BatchingError(f"target of row {row} holds {token!r}, not an integer token id")
        return BatchingError(f"target of row {row} holds token id {token}, outside u32")
    return BatchingError(f"target of row {row} does not pack as u32 token ids")


class Record:
    """One CABX record laid out in ``buffer`` (bytes-like), after its
    stream length prefix.

    ``targets`` holds one sequence of token ids (or code points) per
    row; an id outside u32 raises :class:`BatchingError` naming the
    row. ``features`` is the writable ``B x T_max x F`` float32 view of
    the feature region. Without ``alloc`` the buffer is a new one and
    every feature is zero until filled. ``alloc(size)`` instead returns
    a uint8 array of at least ``size`` bytes, whose bytes may be stale:
    fill each row's frames and call :meth:`finish_row`, or write whole
    rows. Call :meth:`seal` once every feature is in.
    """

    def __init__(
        self,
        t_max: int,
        n_bins: int,
        feature_lengths: Sequence[int],
        targets: Sequence[Sequence[int]],
        target_pad_id: int,
        alloc: Callable[[int], np.ndarray] | None = None,
    ):
        b = len(feature_lengths)
        cells = b * t_max * n_bins
        # pad id, then per row a target length and its ids, then per row a feature length
        words = 1 + b + sum(len(tokens) for tokens in targets) + b
        size = _PREFIX + _HEADER.size + 4 * (cells + words) + _U32.size
        if alloc is None:
            # Zeroed by calloc: fresh pages need no memset.
            self.buffer = np.zeros(size, dtype=np.uint8)
        else:
            self.buffer = alloc(size)[:size]
        _U32.pack_into(self.buffer, 0, size - _PREFIX)
        _HEADER.pack_into(self.buffer, _PREFIX, MAGIC, VERSION, b, t_max, n_bins)
        at = _PREFIX + _HEADER.size
        self.features = np.frombuffer(self.buffer, "<f4", cells, at).reshape(b, t_max, n_bins)
        tail = np.frombuffer(self.buffer, "<u4", words, at + 4 * cells)
        tail[0] = target_pad_id
        pos = 1
        for row, tokens in enumerate(targets):
            tail[pos] = len(tokens)
            if isinstance(tokens, np.ndarray):
                # An array whose dtype fits in u32 needs no check.
                if (
                    not np.can_cast(tokens.dtype, tail.dtype)
                    and len(tokens)
                    and (tokens.min() < 0 or tokens.max() > _U32_MAX)
                ):
                    raise _target_out_of_range(row, tokens)
                tail[pos + 1 : pos + 1 + len(tokens)] = tokens
            else:
                # struct range-checks every id, Python and numpy integers
                # alike; a numpy slice assignment wraps numpy integers.
                try:
                    struct.pack_into(f"<{len(tokens)}I", tail, 4 * (pos + 1), *tokens)
                except struct.error:
                    raise _target_out_of_range(row, tokens) from None
            pos += 1 + len(tokens)
        tail[pos:] = feature_lengths
        self.feature_lengths = list(feature_lengths)

    def finish_row(self, at: int) -> None:
        """Zero row ``at``'s padding, its frames ``feature_lengths[at]``
        to ``T_max``."""
        self.features[at, self.feature_lengths[at] :] = 0

    def seal(self) -> "Record":
        """Write the CRC trailer over the record's other bytes."""
        crc_at = len(self.buffer) - _U32.size
        _U32.pack_into(self.buffer, crc_at, crc32(memoryview(self.buffer)[_PREFIX:crc_at]))
        return self

    @property
    def body(self) -> memoryview:
        """The record's bytes, without the stream length prefix."""
        return memoryview(self.buffer)[_PREFIX:]


def decode_batch(blob: bytes) -> Batch:
    """A record's bytes (a sealed :attr:`Record.body`) as a :class:`Batch`;
    validates magic, CRC, version and that the sizes in the record add
    up to its length."""
    if len(blob) < _HEADER.size + 2 * _U32.size:
        raise BatchingError(f"batch record of {len(blob)} bytes is shorter than its header")
    if blob[:4] != MAGIC:
        raise BatchingError(f"bad magic {bytes(blob[:4])!r}")
    end = len(blob) - _U32.size
    (crc,) = _U32.unpack_from(blob, end)
    if crc32(memoryview(blob)[:end]) != crc:
        raise BatchingError("batch record failed CRC check")
    _, version, b, t_max, n_bins = _HEADER.unpack_from(blob)
    if version != VERSION:
        raise BatchingError(f"unsupported batch format version {version}")
    malformed = BatchingError("batch record sizes do not add up to its length")
    pos = _HEADER.size
    cells = b * t_max * n_bins
    if pos + 4 * (cells + 1 + 2 * b) > end:
        raise malformed
    features = np.frombuffer(blob, "<f4", cells, pos).reshape(b, t_max, n_bins)
    pos += 4 * cells
    words = np.frombuffer(blob, "<u4", (end - pos) // 4, pos)
    pad_id = int(words[0])
    token_rows = []
    at = 1
    for _ in range(b):
        length = int(words[at])
        if at + 1 + length + b > len(words):
            raise malformed
        token_rows.append(words[at + 1 : at + 1 + length])
        at += 1 + length
    if pos + 4 * (at + b) != end:
        raise malformed
    feature_lengths = words[at : at + b].tolist()

    target_lengths = [int(r.size) for r in token_rows]
    targets = np.full((b, max(target_lengths) if b else 0), pad_id, dtype=np.int64)
    for row, tokens in enumerate(token_rows):
        targets[row, : tokens.size] = tokens
    return Batch(
        features=features.copy(),
        feature_lengths=feature_lengths,
        targets=targets,
        target_lengths=target_lengths,
        target_pad_id=pad_id,
        instance_ids=None,
    )


def write_batch_file(record: Record, path: str | Path) -> None:
    """Write one sealed record as a batch file."""
    with open(path, "wb") as f:
        f.write(record.body)


def read_batch_file(path: str | Path) -> Batch:
    blob = Path(path).read_bytes()
    try:
        return decode_batch(blob)
    except BatchingError as exc:
        raise BatchingError(f"{path}: {exc}") from None


class StreamWriter:
    """Length-prefixed record stream; one open writer per file."""

    def __init__(self, path: str | Path):
        self._f = open(path, "wb")

    def write(self, record: Record) -> None:
        """Append one sealed record and its length prefix in one write."""
        self._f.write(record.buffer)

    def close(self) -> None:
        self._f.close()

    def __enter__(self) -> "StreamWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def iter_stream(path: str | Path) -> Iterator[Batch]:
    """Decode a record stream; an error names the file and the record's
    index in it."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        index = 0
        while True:
            prefix = f.read(_PREFIX)
            if not prefix:
                return
            try:
                if len(prefix) != _PREFIX:
                    raise BatchingError("truncated length prefix")
                (length,) = _U32.unpack(prefix)
                # checked before reading, so a corrupt prefix allocates nothing
                if length > size - f.tell():
                    raise BatchingError("truncated batch stream")
                batch = decode_batch(f.read(length))
            except BatchingError as exc:
                raise BatchingError(f"{path}: record {index}: {exc}") from None
            yield batch
            index += 1
