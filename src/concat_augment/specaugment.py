"""SpecAugment frequency and time masking.

The pipeline masks each instance in place, on its frames in its row of
the batch record (the row's first ``n_frames``), so padding stays zero.
It draws an epoch's masks for every instance at once
(:func:`keyed_spans`), keyed by the instance's ordinal, and applies each
row's with :func:`apply_spans`. A row whose draw may be rejected is drawn
again with :func:`draw_spans` from its own generator;
:func:`mask_in_place` draws and applies one matrix's masks from a
generator, and is the reference those draws are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .rng import MASK_STREAM, bounded_draws, keyed_halves, keyed_rng


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


def draw_spans(policy: MaskPolicy, n_frames: int, n_bins: int, rng) -> list[tuple[int, int]]:
    """The ``(width, start)`` of each mask on an ``n_frames x n_bins``
    matrix, frequency masks first, in the order ``rng`` draws them.

    For each frequency mask, width f ~ Uniform{0..min(freq_param,
    n_bins)} and start ~ Uniform{0..n_bins-f}; time masks work the same
    on frames, with time_param and n_frames. ``rng`` is only asked for
    ``integers(0, high)``.
    """
    spans = []
    for n_masks, param, extent in (
        (policy.n_freq_masks, policy.freq_param, n_bins),
        (policy.n_time_masks, policy.time_param, n_frames),
    ):
        for _ in range(n_masks):
            width = int(rng.integers(0, min(param, extent) + 1))
            spans.append((width, int(rng.integers(0, extent - width + 1))))
    return spans


def apply_spans(feats: np.ndarray, policy: MaskPolicy, spans) -> None:
    """Set the masked bands of a T x F matrix to the mask value: columns
    ``[start, start + width)`` for each of the first ``n_freq_masks``
    spans, frames for the rest."""
    n_freq = policy.n_freq_masks
    for at, (width, start) in enumerate(spans):
        if width:
            if at < n_freq:
                feats[:, start : start + width] = policy.mask_value
            else:
                feats[start : start + width] = policy.mask_value


def mask_in_place(feats: np.ndarray, policy: MaskPolicy, rng: np.random.Generator) -> None:
    """Mask random frequency bands and time spans of a T x F matrix, as
    :func:`draw_spans` draws them from ``rng``."""
    apply_spans(feats, policy, draw_spans(policy, *feats.shape, rng))


def _spans_from_halves(
    halves: np.ndarray, policy: MaskPolicy, n_frames: np.ndarray, n_bins: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`draw_spans` for many rows at once, from each row's 32-bit
    halves (:func:`rng.keyed_halves`): the ``(rows, masks, 2)`` spans, and
    the rows whose draws may not stand (:func:`rng.bounded_draws`). A row
    takes its next half only for a range of more than one value, as the
    generator does."""
    rows = len(n_frames)
    spans = np.zeros((rows, policy.n_freq_masks + policy.n_time_masks, 2), dtype=np.uint32)
    replay = np.zeros(rows, dtype=bool)
    cursor = np.zeros(rows, dtype=np.intp)
    at = np.arange(rows)

    def draw(excl: np.ndarray) -> np.ndarray:
        values, suspect = bounded_draws(halves[at, cursor], excl)
        drawn = excl > 1
        replay[drawn & suspect] = True
        cursor[drawn] += 1
        return np.where(drawn, values, 0)

    extents = [np.full(rows, n_bins, dtype=np.int64)] * policy.n_freq_masks
    extents += [np.asarray(n_frames, dtype=np.int64)] * policy.n_time_masks
    params = [policy.freq_param] * policy.n_freq_masks + [policy.time_param] * policy.n_time_masks
    for mask, (extent, param) in enumerate(zip(extents, params)):
        # a parameter past any extent caps nothing; min() keeps it in int64
        width = draw(np.minimum(extent, min(param, 2**62)) + 1)
        spans[:, mask, 0] = width
        spans[:, mask, 1] = draw(extent - width.astype(np.int64) + 1)
    return spans, replay


# Rows drawn together: a block's uint64 temporaries peak near 23 MB, where
# a 562k-row epoch drawn at once peaked near 126 MB (tracemalloc).
_BLOCK_ROWS = 1 << 16


def keyed_spans(
    policy: MaskPolicy, n_frames: np.ndarray, n_bins: int, seed: int, epoch: int, ordinals
) -> np.ndarray:
    """The masks of many instances of an epoch: row ``r`` holds the
    ``(width, start)`` spans :func:`draw_spans` draws for an
    ``n_frames[r] x n_bins`` matrix with ``keyed_rng(seed, MASK_STREAM,
    epoch, ordinals[r])``, as a ``(rows, masks, 2)`` uint32 array.
    ``ordinals`` holds uint64 values.

    The rows' halves are replayed and drawn from a block of rows at a
    time; a row whose draw may have been rejected is drawn again with
    :func:`draw_spans` from its own :func:`rng.keyed_rng`.
    """
    n_frames = np.asarray(n_frames, dtype=np.int64)
    ordinals = np.asarray(ordinals, dtype=np.uint64)
    draws = 2 * (policy.n_freq_masks + policy.n_time_masks)
    spans = np.empty((len(n_frames), draws // 2, 2), dtype=np.uint32)
    replay = np.zeros(len(n_frames), dtype=bool)
    for start in range(0, len(n_frames), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        halves = keyed_halves(seed, MASK_STREAM, epoch, ordinals[block], draws)
        spans[block], replay[block] = _spans_from_halves(halves, policy, n_frames[block], n_bins)
    for row in np.flatnonzero(replay).tolist():
        rng = keyed_rng(seed, MASK_STREAM, epoch, int(ordinals[row]))
        spans[row] = draw_spans(policy, int(n_frames[row]), n_bins, rng)
    return spans
