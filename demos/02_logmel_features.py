"""
Log-Mel feature extraction
==========================

80-dimensional log-Mel filterbanks with 25 ms windows and a 10 ms
shift, plus the on-disk feature archive.
"""

import tempfile
from pathlib import Path

import numpy as np

from concat_augment import (
    ConfigurationError,
    FeatureArchive,
    FeatureConfig,
    compute_logmel,
    frame_count,
)

cfg = FeatureConfig()
print(f"window {cfg.win_samples} samples, hop {cfg.hop_samples}, fft {cfg.n_fft}")

# One second of a 1 kHz tone at 16 kHz: 98 frames of 80 mel bins.
t = np.arange(16000) / cfg.sample_rate_hz
pcm = 0.5 * np.sin(2 * np.pi * 1000.0 * t)
feats = compute_logmel(pcm, cfg)
print(f"1s tone  -> {feats.shape} ({frame_count(len(pcm), cfg)} frames expected)")
print(f"energy peaks in mel bin {int(np.argmax(feats.mean(axis=0)))} of {cfg.n_mels}")

# Silence maps every cell to log(log_floor): the hard floor.
silent = compute_logmel(np.zeros(16000), cfg)
print(f"silence  -> every cell == {silent[0, 0]:.4f} (log of the floor)")

# Doubling the amplitude adds 2*log(2) to well-energized cells.
louder = compute_logmel(2 * pcm, cfg)
delta = (louder - feats)[feats > silent[0, 0] + 10]
print(f"2x louder-> cells shift by {delta.mean():.4f} (2*ln 2 = {2 * np.log(2):.4f})")

# The archive is one file of float32 matrices in CRC-protected records,
# behind a header that records the feature config they were extracted
# with; an open with another config is refused, naming the field.
with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp) / "features"
    with FeatureArchive(root, mode="a", feature=cfg) as archive:
        archive.write("tone-1khz", feats.astype(np.float32))
        round_tripped = archive.read("tone-1khz")
    print(f"archive round trip exact: {np.array_equal(round_tripped, feats.astype(np.float32))}")
    with FeatureArchive(root) as archive:
        print(f"archive files: {sorted(p.name for p in root.iterdir())}, header: {archive.feature}")
    try:
        FeatureArchive(root, mode="a", feature=FeatureConfig(hop_ms=12.5))
    except ConfigurationError as exc:
        print(f"hop_ms=12.5 refused: {str(exc).split('; ')[-1]}")
