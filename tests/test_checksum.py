"""``checksum.crc32`` against ``zlib.crc32``, the reference, over every
buffer kind the package passes it."""

import ctypes
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from concat_augment import checksum
from concat_augment.archive import FeatureArchive
from concat_augment.batchio import Record, decode_batch
from concat_augment.features import FeatureConfig

SMALL = checksum._SMALL


def as_bytes(raw):
    return raw


def as_bytearray(raw):
    return bytearray(raw)


def as_read_only_memoryview(raw):
    return memoryview(raw)


def as_odd_offset_numpy_slice(raw):
    buf = np.zeros(len(raw) + 4, dtype=np.uint8)
    buf[3 : 3 + len(raw)] = np.frombuffer(raw, dtype=np.uint8)
    return memoryview(buf)[3 : 3 + len(raw)]


def as_float32_array(raw):
    return np.frombuffer(raw[: len(raw) // 4 * 4], dtype="<f4").copy()


def as_float32_byte_view(raw):
    return memoryview(as_float32_array(raw).view(np.uint8))


BUFFER_KINDS = [
    as_bytes,
    as_bytearray,
    as_read_only_memoryview,
    as_odd_offset_numpy_slice,
    as_float32_byte_view,
    as_float32_array,
]

sizes = st.one_of(
    st.integers(0, 2 * SMALL),
    st.integers(0, 300_000),
    st.sampled_from([SMALL - 1, SMALL, SMALL + 1]),
)


def random_bytes(size, seed):
    return np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    size=sizes,
    seed=st.integers(0, 2**32 - 1),
    value=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(BUFFER_KINDS),
)
@example(size=SMALL, seed=0, value=0, kind=as_odd_offset_numpy_slice)
@example(size=300_000, seed=1, value=2**32 - 1, kind=as_float32_byte_view)
def test_equals_zlib(size, seed, value, kind):
    data = kind(random_bytes(size, seed))
    assert checksum.crc32(data, value) == zlib.crc32(data, value)
    assert checksum.crc32(data) == zlib.crc32(data)


@settings(max_examples=100, deadline=None)
@given(a=sizes, b=sizes, seed=st.integers(0, 2**32 - 1))
def test_chains(a, b, seed):
    head, tail = random_bytes(a, seed), random_bytes(b, seed + 1)
    assert checksum.crc32(tail, checksum.crc32(head)) == zlib.crc32(head + tail)


def test_strided_buffer_raises_as_zlib_does():
    strided = memoryview(bytearray(2 * SMALL + 2))[::2]
    with pytest.raises(BufferError):
        zlib.crc32(strided)
    with pytest.raises(BufferError):
        checksum.crc32(strided)


def libdeflate_loads():
    try:
        ctypes.CDLL("libdeflate.so.0").libdeflate_crc32
    except (OSError, AttributeError):
        return False
    return True


@pytest.fixture
def libdeflate_calls(monkeypatch):
    """The sizes of the buffers ``checksum`` hands to libdeflate."""
    if not libdeflate_loads():
        pytest.skip("libdeflate.so.0 does not load here")
    fn, sizes = checksum._libdeflate_crc32, []

    def counted(value, address, size):
        sizes.append(size)
        return fn(value, address, size)

    monkeypatch.setattr(checksum, "_libdeflate_crc32", counted)
    return sizes


def test_libdeflate_is_used_when_it_loads(libdeflate_calls):
    big = random_bytes(SMALL, 3)
    for kind in BUFFER_KINDS:
        checksum.crc32(kind(big))
    checksum.crc32(big[: SMALL - 1])
    assert libdeflate_calls == [SMALL] * len(BUFFER_KINDS)


def test_every_record_check_and_seal_goes_through_it(libdeflate_calls, tmp_path):
    feats = np.random.default_rng(4).standard_normal((40, 32)).astype(np.float32)
    with FeatureArchive(tmp_path / "arch", mode="a", feature=FeatureConfig(n_mels=32)) as archive:
        archive.write("u1", feats)  # seal
        assert libdeflate_calls == [16 + len(b"u1") + feats.nbytes]
        record = Record(40, 32, [40], [[7, 8]], target_pad_id=0)
        archive.read("u1", out=record.features[0])  # the payload; the head is small
        assert libdeflate_calls[1:] == [feats.nbytes]
    record.seal()
    decode_batch(bytes(record.body))
    body = len(record.body) - 4
    assert libdeflate_calls[2:] == [body, body]
