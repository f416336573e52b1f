"""Log-Mel filterbank feature extraction.

Computes the standard 80-dimensional log-Mel representation with 25 ms
analysis windows and a 10 ms frame shift: periodic Hann window, power
spectrum over a zero-padded FFT, triangular Mel filterbank on the HTK
scale (mel = 2595 * log10(1 + f/700)) spanning 0 Hz to Nyquist, and a
natural log with a small additive floor. Every choice beyond the
dimensions is exposed in :class:`FeatureConfig` so alternates can be
tested.

All DSP runs in float64; storage (the feature archive) uses float32.
"""

from __future__ import annotations

import logging
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
        Analysis window length and frame shift in milliseconds.
        ``hop_ms <= win_ms`` is required.
    fft_size : int or None
        FFT length. ``None`` selects the smallest power of two that is
        >= the window length in samples (512 for 25 ms at 16 kHz).
    log_floor : float
        Added to filterbank energies before the natural log.
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
        if self.sample_rate_hz <= 0 or self.n_mels <= 0:
            raise FeatureError("sample_rate_hz and n_mels must be positive")
        if self.win_ms <= 0 or self.hop_ms <= 0:
            raise FeatureError("win_ms and hop_ms must be positive")
        if self.hop_ms > self.win_ms:
            raise FeatureError(f"hop_ms {self.hop_ms} exceeds win_ms {self.win_ms}")
        if self.log_floor <= 0:
            raise FeatureError("log_floor must be positive")
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


def filter_center_freqs(cfg: FeatureConfig) -> np.ndarray:
    """Center frequency in Hz of each Mel filter."""
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(cfg.sample_rate_hz / 2.0), cfg.n_mels + 2)
    return mel_to_hz(mel_points)[1:-1]


@lru_cache(maxsize=8)
def _analysis_arrays(cfg: FeatureConfig) -> tuple[np.ndarray, np.ndarray]:
    """The Hann window and Mel filterbank of ``cfg``, built once per
    config and read-only, since every caller shares them."""
    window = hann_window(cfg.win_samples)
    fb = mel_filterbank(cfg)
    window.flags.writeable = False
    fb.flags.writeable = False
    return window, fb


def _frame_signal(pcm: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    n_frames = frame_count(len(pcm), cfg)
    idx = np.arange(cfg.win_samples)[None, :] + cfg.hop_samples * np.arange(n_frames)[:, None]
    return pcm[idx]


def power_spectrogram(pcm, cfg: FeatureConfig) -> np.ndarray:
    """Windowed power spectrum |X(k)|^2 per frame, shape (T, n_fft//2+1).

    Parameters
    ----------
    pcm : array-like of float
        Samples in [-1, 1], at least one window long, all finite.
    cfg : FeatureConfig

    Raises
    ------
    FeatureError
        If the input is shorter than one window or contains non-finite
        samples.
    """
    pcm = np.asarray(pcm, dtype=np.float64)
    if pcm.ndim != 1:
        raise FeatureError(f"expected mono PCM, got shape {pcm.shape}")
    if len(pcm) < cfg.win_samples:
        raise FeatureError(
            f"audio too short: {len(pcm)} samples < one window ({cfg.win_samples})"
        )
    if not np.all(np.isfinite(pcm)):
        raise FeatureError("PCM contains non-finite samples")
    window, _ = _analysis_arrays(cfg)
    frames = _frame_signal(pcm, cfg) * window
    spectrum = np.fft.rfft(frames, n=cfg.n_fft, axis=1)
    return spectrum.real**2 + spectrum.imag**2


def compute_logmel(pcm, cfg: FeatureConfig | None = None) -> np.ndarray:
    """Log-Mel filterbank features, shape (T, n_mels) float64.

    ``T == frame_count(len(pcm), cfg)``. Output is always finite: zero
    energy maps to ``log(log_floor)`` exactly.

    Parameters
    ----------
    pcm : array-like of float
        Mono samples in [-1, 1].
    cfg : FeatureConfig, optional
        Defaults to the standard 80-mel / 25 ms / 10 ms configuration.
    """
    if cfg is None:
        cfg = FeatureConfig()
    power = power_spectrogram(pcm, cfg)
    _, fb = _analysis_arrays(cfg)
    energies = power @ fb.T
    feats = np.log(energies + cfg.log_floor)
    if cfg.mean_var_norm:
        mean = feats.mean(axis=0)
        std = feats.std(axis=0)
        feats = (feats - mean) / np.maximum(std, 1e-8)
    return feats


def validate_feature_matrix(feats: np.ndarray, n_mels: int | None = None) -> None:
    """Check the FeatureMatrix contract: 2-D, >= 1 frame, all finite."""
    if feats.ndim != 2:
        raise FeatureError(f"feature matrix must be 2-D, got shape {feats.shape}")
    if feats.shape[0] < 1:
        raise FeatureError("feature matrix has no frames")
    if n_mels is not None and feats.shape[1] != n_mels:
        raise FeatureError(f"expected {n_mels} bins, got {feats.shape[1]}")
    if not np.all(np.isfinite(feats)):
        raise FeatureError("feature matrix contains non-finite values")


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
        return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if suffix == ".npy":
        return np.asarray(np.load(path), dtype=np.float64)
    if suffix in (".f32", ".pcm"):
        return np.fromfile(path, dtype="<f4").astype(np.float64)
    raise FeatureError(f"unsupported audio format {suffix!r}: {path}")


def load_or_compute(utt: Utterance, cfg: FeatureConfig, audio_root=None) -> np.ndarray:
    """Compute the float32 feature matrix of ``utt.audio_ref``.

    A relative audio path is resolved against ``audio_root``. A manifest /
    computed frame-count mismatch logs a warning and returns the computed
    matrix; the pipeline's feature store then drops the utterance.
    """
    path = Path(utt.audio_ref)
    if audio_root is not None and not path.is_absolute():
        path = Path(audio_root) / path
    pcm = load_pcm(path)
    feats = compute_logmel(pcm, cfg).astype(np.float32)
    if feats.shape[0] != utt.n_frames:
        logger.warning(
            "utterance %s: manifest says %d frames, computed %d",
            utt.id,
            utt.n_frames,
            feats.shape[0],
        )
    return feats
