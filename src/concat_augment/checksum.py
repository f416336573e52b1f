"""CRC-32 for the archive and batch records, at memory speed where the
platform allows.

:func:`crc32` returns exactly what ``zlib.crc32`` returns. The zlib that
CPython links may compute it a byte table at a time (about 2 GB/s);
libdeflate's ``libdeflate_crc32`` folds with carry-less multiplies and
runs several times faster. So when the system library ``libdeflate.so.0``
loads, buffers of ``_SMALL`` bytes or more go to it through ``ctypes``;
smaller ones, such as an archive record's head, stay on zlib, which
returns before a ctypes call would. Without the library every CRC is
zlib's. Both release the GIL while they run.
"""

from __future__ import annotations

import ctypes
import zlib

import numpy as np

_SMALL = 4096  # bytes; below this zlib.crc32 beats the cost of a ctypes call


def _load_libdeflate():
    """``libdeflate_crc32`` from the system library, or None without it."""
    try:
        fn = ctypes.CDLL("libdeflate.so.0").libdeflate_crc32
    except (OSError, AttributeError):
        return None
    fn.argtypes = (ctypes.c_uint32, ctypes.c_void_p, ctypes.c_size_t)
    fn.restype = ctypes.c_uint32
    return fn


_libdeflate_crc32 = _load_libdeflate()


def crc32(data, value: int = 0) -> int:
    """The CRC-32 of ``data`` (bytes or any buffer) continued from ``value``,
    as ``zlib.crc32(data, value)``."""
    fn = _libdeflate_crc32
    if fn is None:
        return zlib.crc32(data, value)
    if type(data) is bytes:
        # ctypes passes a bytes object's own storage
        if len(data) < _SMALL:
            return zlib.crc32(data, value)
        return fn(value, data, len(data))
    view = memoryview(data)
    if view.nbytes < _SMALL or not view.c_contiguous:
        return zlib.crc32(view, value)  # which also raises for a strided buffer
    if view.readonly:
        # ctypes maps only a writable buffer; numpy reads any
        return fn(value, np.frombuffer(view, np.uint8).ctypes.data, view.nbytes)
    mapped = ctypes.c_char.from_buffer(view)  # holds the buffer during the call
    return fn(value, ctypes.addressof(mapped), view.nbytes)
