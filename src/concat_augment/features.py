"""Log-Mel filterbank feature extraction.

Computes the standard 80-dimensional log-Mel representation with 25 ms
analysis windows and a 10 ms frame shift: periodic Hann window, power
spectrum over a zero-padded FFT, triangular Mel filterbank on the HTK
scale (mel = 2595 * log10(1 + f/700)) spanning 0 Hz to Nyquist, and a
natural log with a small additive floor. Every choice beyond the
dimensions is exposed in :class:`FeatureConfig` so alternates can be
tested.

All DSP runs in float64; storage (the feature archive) uses float32.
An utterance's frames go through in blocks of :data:`BLOCK_FRAMES`, in
scratch buffers that each thread keeps across calls and frees when it
ends, so a thread that extracts many utterances allocates its buffers
once, and the bytes are those of one whole-utterance pass.
"""

from __future__ import annotations

import contextlib
import ctypes
import logging
import math
import threading
import time
import wave
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import FeatureError
from .manifest import Utterance

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FeatureConfig:
    """Extraction parameters.

    Attributes
    ----------
    sample_rate_hz : int
        Input sampling rate. PCM at any other rate is a caller error;
        resampling is out of scope.
    n_mels : int
        Number of Mel filters (feature dimension).
    win_ms, hop_ms : float
        Analysis window length and frame shift in milliseconds, finite,
        each at least one sample long at ``sample_rate_hz``.
        ``hop_ms <= win_ms`` is required.
    fft_size : int or None
        FFT length. ``None`` selects the smallest power of two that is
        >= the window length in samples (512 for 25 ms at 16 kHz).
    log_floor : float
        Added to filterbank energies before the natural log; finite and
        positive.
    mean_var_norm : bool
        Per-utterance mean/variance normalization over time, per bin.
        Off by default: temporal concatenation is cleaner without it.
    """

    sample_rate_hz: int = 16000
    n_mels: int = 80
    win_ms: float = 25.0
    hop_ms: float = 10.0
    fft_size: int | None = None
    log_floor: float = 1e-10
    mean_var_norm: bool = False

    def __post_init__(self) -> None:
        if self.n_mels <= 0:
            raise FeatureError(f"n_mels must be positive, got {self.n_mels!r}")
        for name in ("sample_rate_hz", "win_ms", "hop_ms", "log_floor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise FeatureError(f"{name} must be finite and positive, got {value!r}")
        for name, samples in (("win_ms", self.win_samples), ("hop_ms", self.hop_samples)):
            if samples < 1:
                raise FeatureError(
                    f"{name} {getattr(self, name)!r} is under one sample "
                    f"at {self.sample_rate_hz} Hz"
                )
        if self.hop_ms > self.win_ms:
            raise FeatureError(f"hop_ms {self.hop_ms} exceeds win_ms {self.win_ms}")
        if self.fft_size is not None and self.fft_size < self.win_samples:
            raise FeatureError(
                f"fft_size {self.fft_size} is smaller than the window "
                f"({self.win_samples} samples)"
            )

    @property
    def win_samples(self) -> int:
        return int(round(self.win_ms * self.sample_rate_hz / 1000.0))

    @property
    def hop_samples(self) -> int:
        return int(round(self.hop_ms * self.sample_rate_hz / 1000.0))

    @property
    def n_fft(self) -> int:
        if self.fft_size is not None:
            return self.fft_size
        n = 1
        while n < self.win_samples:
            n *= 2
        return n

    def summary(self) -> dict:
        """The resolved config, as a run's report and an archive's header
        record it: ``fft_size`` is the FFT length in use."""
        return {
            "sample_rate_hz": self.sample_rate_hz,
            "n_mels": self.n_mels,
            "win_ms": self.win_ms,
            "hop_ms": self.hop_ms,
            "fft_size": self.n_fft,
            "log_floor": self.log_floor,
            "mean_var_norm": self.mean_var_norm,
        }


def frame_count(n_samples: int, cfg: FeatureConfig) -> int:
    """Number of frames produced for ``n_samples`` of audio.

    Zero when the input is shorter than one window, else
    ``1 + floor((n_samples - win) / hop)``.
    """
    if n_samples < 0:
        raise FeatureError("n_samples must be non-negative")
    if n_samples < cfg.win_samples:
        return 0
    return 1 + (n_samples - cfg.win_samples) // cfg.hop_samples


def hann_window(length: int) -> np.ndarray:
    """Periodic Hann window: w[n] = 0.5 - 0.5 cos(2 pi n / N)."""
    n = np.arange(length, dtype=np.float64)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / length)


def hz_to_mel(freq_hz):
    """HTK Mel scale: mel = 2595 log10(1 + f / 700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg: FeatureConfig) -> np.ndarray:
    """Triangular Mel filterbank, shape (n_mels, n_fft // 2 + 1).

    Filters are spaced uniformly on the HTK Mel scale from 0 Hz to
    Nyquist; triangles are unit-height (no area normalization).
    """
    n_bins = cfg.n_fft // 2 + 1
    bin_freqs = np.arange(n_bins, dtype=np.float64) * cfg.sample_rate_hz / cfg.n_fft
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(cfg.sample_rate_hz / 2.0), cfg.n_mels + 2)
    hz_points = mel_to_hz(mel_points)

    weights = np.zeros((cfg.n_mels, n_bins), dtype=np.float64)
    for m in range(cfg.n_mels):
        lower, center, upper = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        rising = (bin_freqs - lower) / (center - lower)
        falling = (upper - bin_freqs) / (upper - center)
        weights[m] = np.maximum(0.0, np.minimum(rising, falling))
    return weights


@lru_cache(maxsize=8)
def _analysis_arrays(cfg: FeatureConfig) -> tuple[np.ndarray, np.ndarray]:
    """The Hann window and Mel filterbank of ``cfg``, built once per
    config and read-only, since every caller shares them."""
    window = hann_window(cfg.win_samples)
    fb = mel_filterbank(cfg)
    window.flags.writeable = False
    fb.flags.writeable = False
    return window, fb


def _load_openblas():
    """The thread-count getter and setter of numpy's bundled OpenBLAS, or
    None without the library or its symbols."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))  # the copy numpy loaded: the same handle
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        set_.argtypes, set_.restype = (ctypes.c_int,), None
        return get, set_
    return None


_openblas = _load_openblas()
_pin_lock = threading.Lock()
_pins = 0  # blocks in one_blas_thread
_unpinned = 0  # the thread count to restore when the last one ends


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's bundled OpenBLAS at one thread while the block runs,
    then restore its thread count: when a pool of workers computes
    features, the pool is the parallelism, and BLAS threads on top of it
    oversubscribe the cores. The count is process-wide; nested and
    concurrent blocks restore it when the last one ends. Without the
    library or its symbols this does nothing. The bytes do not depend
    on the count."""
    global _pins, _unpinned
    if _openblas is None:
        yield
        return
    get, set_ = _openblas
    with _pin_lock:
        if _pins == 0:
            _unpinned = get()
            set_(1)
        _pins += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pins -= 1
            if _pins == 0:
                set_(_unpinned)


def _frame_signal(pcm: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    """The ``frame_count`` frames of ``pcm``, a read-only (T, win) view of it."""
    (step,) = pcm.strides
    return np.lib.stride_tricks.as_strided(
        pcm,
        (frame_count(len(pcm), cfg), cfg.win_samples),
        (cfg.hop_samples * step, step),
        writeable=False,
    )


# Frames per block. At the default config a block's windowed frames,
# spectrum and power take 1.3 MB (2.6 MB for a last block of 255 frames),
# whatever the utterance's length; 256 frames was slower on 30 s of audio.
BLOCK_FRAMES = 128
# OpenBLAS computes a product of at most this many multiply-adds
# (M * N * K) with a separate small-matrix kernel whose sums can round
# differently, so a block's filterbank product stays above it: its rows
# then equal those of the whole utterance's product.
_SMALL_GEMM = 10**6


def _block_frames(cfg: FeatureConfig) -> int | None:
    """Frames per block for ``cfg``: ``BLOCK_FRAMES``, or the least
    multiple of it whose filterbank product is over ``_SMALL_GEMM``.
    None for one filter: numpy then takes a matrix-vector product, whose
    sums depend on how BLAS splits the whole product among its threads,
    so the utterance is one block."""
    if cfg.n_mels == 1:
        return None
    least = _SMALL_GEMM // (cfg.n_mels * (cfg.n_fft // 2 + 1)) + 1
    return -(-least // BLOCK_FRAMES) * BLOCK_FRAMES


def _blocks(n_frames: int, rows: int | None) -> list[tuple[int, int]]:
    """``(start, stop)`` of each block: ``rows`` frames each, the last one
    also taking the remainder, so no block is shorter than ``rows``
    frames unless it is the whole utterance (as it is when ``rows`` is
    None)."""
    if rows is None:
        return [(0, n_frames)]
    starts = list(range(0, max(n_frames - rows, 0) + 1, rows))
    return list(zip(starts, starts[1:] + [n_frames]))


def _checked_pcm(pcm, cfg: FeatureConfig) -> np.ndarray:
    """``pcm`` as float64, or a FeatureError: not mono, shorter than one
    window, or not finite."""
    pcm = np.asarray(pcm, dtype=np.float64)
    if pcm.ndim != 1:
        raise FeatureError(f"expected mono PCM, got shape {pcm.shape}")
    if len(pcm) < cfg.win_samples:
        raise FeatureError(
            f"audio too short: {len(pcm)} samples < one window ({cfg.win_samples})"
        )
    if not np.all(np.isfinite(pcm)):
        raise FeatureError("PCM contains non-finite samples")
    return pcm


# Each thread's block buffers, kept across calls; a thread's are freed when it ends.
_scratch = threading.local()


def _scratch_array(name: str, shape: tuple[int, int], dtype) -> np.ndarray:
    """This thread's scratch buffer ``name`` as an array of ``shape``, its
    values stale. A buffer too small is freed, then replaced by one of
    exactly the size asked for."""
    size = shape[0] * shape[1]
    buffer = getattr(_scratch, name, None)
    if buffer is None or len(buffer) < size:
        setattr(_scratch, name, None)  # freed before its replacement is allocated
        buffer = np.empty(size, dtype)
        setattr(_scratch, name, buffer)
    return buffer[:size].reshape(shape)


def _power_blocks(pcm: np.ndarray, cfg: FeatureConfig):
    """Yield ``(start, stop, power)`` for each block of the frames of
    ``pcm`` (checked), ``power`` being their (stop - start, n_fft//2+1)
    power spectrum in a scratch buffer that the next block overwrites.

    The scratch buffers are the calling thread's (:func:`_scratch_array`),
    except for one filter: its one block is the whole utterance, so it
    gets buffers of its own that the call frees. The windowed frames
    are ``n_fft`` columns wide, with the columns past the window zeroed
    on every call, so ``rfft`` pads nothing and no column left by a
    config with a longer window is read."""
    window, _ = _analysis_arrays(cfg)
    frames = _frame_signal(pcm, cfg)
    rows = _block_frames(cfg)
    blocks = _blocks(len(frames), rows)
    size = max(stop - start for start, stop in blocks)
    n_bins = cfg.n_fft // 2 + 1

    def scratch(name, shape, dtype):
        return np.empty(shape, dtype) if rows is None else _scratch_array(name, shape, dtype)

    windowed = scratch("windowed", (size, cfg.n_fft), np.float64)
    spectrum = scratch("spectrum", (size, n_bins), np.complex128)
    power = scratch("power", (size, n_bins), np.float64)
    windowed[:, cfg.win_samples :] = 0.0
    for start, stop in blocks:
        n = stop - start
        np.multiply(frames[start:stop], window, out=windowed[:n, : cfg.win_samples])
        np.fft.rfft(windowed[:n], axis=1, out=spectrum[:n])
        parts = spectrum[:n].view(np.float64)  # real, imaginary, real, ...
        np.square(parts, out=parts)
        np.add(parts[:, 0::2], parts[:, 1::2], out=power[:n])
        yield start, stop, power[:n]


def compute_logmel(pcm, cfg: FeatureConfig | None = None) -> np.ndarray:
    """Log-Mel filterbank features, shape (T, n_mels) float64.

    ``T == frame_count(len(pcm), cfg)``. Output is always finite: zero
    energy maps to ``log(log_floor)`` exactly. The frames go through in
    blocks (:data:`BLOCK_FRAMES`), each windowed, transformed, passed
    through the filterbank and logged into its rows of the output, so
    the memory beside the output does not grow with the utterance. The
    bytes are those of one whole-utterance pass.

    Parameters
    ----------
    pcm : array-like of float
        Mono samples in [-1, 1].
    cfg : FeatureConfig, optional
        Defaults to the standard 80-mel / 25 ms / 10 ms configuration.
    """
    if cfg is None:
        cfg = FeatureConfig()
    pcm = _checked_pcm(pcm, cfg)
    _, fb = _analysis_arrays(cfg)
    feats = np.empty((frame_count(len(pcm), cfg), cfg.n_mels))
    for start, stop, power in _power_blocks(pcm, cfg):
        block = feats[start:stop]
        np.matmul(power, fb.T, out=block)
        block += cfg.log_floor
        np.log(block, out=block)
    if cfg.mean_var_norm:
        mean = feats.mean(axis=0)
        std = feats.std(axis=0)
        feats -= mean
        feats /= np.maximum(std, 1e-8)
    return feats


def load_pcm(path: str | Path) -> np.ndarray:
    """Load mono PCM from .wav (16-bit), .npy, or raw .f32/.pcm float32."""
    path = Path(path)
    if not path.exists():
        raise FeatureError(f"audio file not found: {path}")
    suffix = path.suffix.lower()
    if suffix == ".wav":
        with wave.open(str(path), "rb") as wav:
            if wav.getnchannels() != 1:
                raise FeatureError(f"expected mono audio: {path}")
            if wav.getsampwidth() != 2:
                raise FeatureError(f"expected 16-bit PCM: {path}")
            raw = wav.readframes(wav.getnframes())
        pcm = np.frombuffer(raw, dtype="<i2").astype(np.float64)
        pcm /= 32768.0  # a power of two: the same bytes as a division into a new array
        return pcm
    if suffix == ".npy":
        return np.asarray(np.load(path), dtype=np.float64)
    if suffix in (".f32", ".pcm"):
        return np.fromfile(path, dtype="<f4").astype(np.float64)
    raise FeatureError(f"unsupported audio format {suffix!r}: {path}")


def load_or_compute(
    utt: Utterance, cfg: FeatureConfig, audio_root=None, seconds: list[float] | None = None
) -> np.ndarray:
    """Compute the float32 feature matrix of ``utt.audio_ref``.

    A relative audio path is resolved against ``audio_root``. A manifest /
    computed frame-count mismatch logs a warning and returns the computed
    matrix; the pipeline's feature store then drops the utterance. A
    call that returns adds the seconds it spent loading the audio to
    ``seconds[0]`` and computing the features to ``seconds[1]``.
    """
    start = time.perf_counter()
    path = Path(utt.audio_ref)
    if audio_root is not None and not path.is_absolute():
        path = Path(audio_root) / path
    pcm = load_pcm(path)
    loaded = time.perf_counter()
    feats = compute_logmel(pcm, cfg).astype(np.float32)
    if seconds is not None:
        seconds[0] += loaded - start
        seconds[1] += time.perf_counter() - loaded
    if feats.shape[0] != utt.n_frames:
        logger.warning(
            "utterance %s: manifest says %d frames, computed %d",
            utt.id,
            utt.n_frames,
            feats.shape[0],
        )
    return feats
