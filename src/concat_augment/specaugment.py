"""SpecAugment frequency and time masking.

The pipeline masks each instance in place, on its frames in its row of
the batch record (the row's first ``n_frames``), so padding stays zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class MaskPolicy:
    """Masking policy: width parameters, mask counts, fill value.

    Mask widths are sampled inclusive of 0 (a mask may be empty) and
    capped by the matrix extent along the masked axis.
    """

    freq_param: int = 27
    time_param: int = 100
    n_freq_masks: int = 2
    n_time_masks: int = 2
    mask_value: float = 0.0

    def __post_init__(self) -> None:
        if self.freq_param < 0 or self.time_param < 0:
            raise ConfigurationError("mask width parameters must be >= 0")
        if self.n_freq_masks < 0 or self.n_time_masks < 0:
            raise ConfigurationError("mask counts must be >= 0")


def mask_in_place(feats: np.ndarray, policy: MaskPolicy, rng: np.random.Generator) -> None:
    """Mask random frequency bands and time spans of a T x F matrix.

    For each frequency mask, width f ~ Uniform{0..F} and start
    ~ Uniform{0..n_bins-f}; columns [start, start+f) are set to the mask
    value. Time masks work the same on rows, with width capped at
    n_frames. All frequency masks are drawn before the time masks.
    ``rng`` is only asked for ``integers(0, high)``, so a
    :class:`rng.KeyedDraws` replaying a generator draws the same masks.
    """
    n_frames, n_bins = feats.shape
    for _ in range(policy.n_freq_masks):
        width = int(rng.integers(0, min(policy.freq_param, n_bins) + 1))
        start = int(rng.integers(0, n_bins - width + 1))
        feats[:, start : start + width] = policy.mask_value
    for _ in range(policy.n_time_masks):
        width = int(rng.integers(0, min(policy.time_param, n_frames) + 1))
        start = int(rng.integers(0, n_frames - width + 1))
        feats[start : start + width, :] = policy.mask_value
