"""Frame-budget batch assembly.

Instances are shuffled by a keyed RNG, optionally stable-sorted into
length buckets (width 100 frames), packed greedily under the budget,
and the batch order is shuffled by the same stream. The default budget
accounting is padded (B * T_max <= budget), since padded frame mass is
what memory scales with; summed true frames is available as a switch.

A batch record holds its targets as integers: :func:`target_codes`
gives token ids as they are and text as its Unicode code points, so a
decoded :class:`Batch`'s padded target tensor is always integer-valued
and true lengths recover the exact original sequences either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BatchingError
from .rng import BATCH_STREAM, keyed_rng

BUCKET_WIDTH_FRAMES = 100

ACCOUNTING_MODES = ("padded", "true")


@dataclass
class Batch:
    """Padded feature tensor plus target sequences and true lengths."""

    features: np.ndarray  # B x T_max x F, float32, zero-padded
    feature_lengths: list[int]
    targets: np.ndarray  # B x L_max, int64, pad-filled
    target_lengths: list[int]
    target_pad_id: int
    instance_ids: list[tuple[str, ...]] | None = None

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def t_max(self) -> int:
        return self.features.shape[1]

    @property
    def padded_frames(self) -> int:
        return self.size * self.t_max


def target_codes(target) -> Sequence[int]:
    """A target as the integers a batch holds: token ids as they are,
    text as its Unicode code points."""
    if isinstance(target, str):
        return np.frombuffer(target.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    return target


def compose_batches(
    n_frames: Sequence[int] | np.ndarray,
    budget_frames: int,
    seed: int,
    epoch: int,
    bucketing: bool = True,
    accounting: str = "padded",
) -> list[np.ndarray]:
    """Decide batch membership from frame counts only (no features needed).

    ``n_frames[i]`` is instance ``i``'s frame count; each returned group
    holds the positions of its instances, and the groups come in batch
    order. Deterministic for fixed (seed, epoch, input order). Raises
    :class:`BatchingError` when any single instance exceeds the budget.
    """
    if accounting not in ACCOUNTING_MODES:
        raise BatchingError(f"unknown accounting mode {accounting!r}")
    frames = np.asarray(n_frames, dtype=np.int64)
    over = np.flatnonzero(frames > budget_frames)
    if over.size:
        first = int(over[0])
        raise BatchingError(
            f"instance {first} has {frames[first]} frames, over the budget of {budget_frames}"
        )
    if frames.size == 0:
        return []

    rng = keyed_rng(seed, BATCH_STREAM, epoch)
    order = rng.permutation(len(frames))
    if bucketing:
        # stable sort keeps the shuffled order inside each bucket
        order = order[np.argsort(frames[order] // BUCKET_WIDTH_FRAMES, kind="stable")]

    # Greedy pack in that order: a group closes when the next instance
    # would take it over the budget.
    starts = []
    size = peak = total = 0
    if accounting == "padded":
        for i, n in enumerate(frames[order].tolist()):
            grown = n if n > peak else peak
            if size and (size + 1) * grown > budget_frames:
                starts.append(i)
                size, grown = 0, n
            size += 1
            peak = grown
    else:
        for i, n in enumerate(frames[order].tolist()):
            if size and total + n > budget_frames:
                starts.append(i)
                size = total = 0
            size += 1
            total += n
    groups = np.split(order, starts)

    batch_order = rng.permutation(len(groups))
    return [groups[i] for i in batch_order]


def padding_waste(groups: Sequence[Sequence[int]], n_frames: Sequence[int] | np.ndarray) -> float:
    """Fraction of padded frame mass that is padding, over composed groups
    of positions into ``n_frames``."""
    frames = np.asarray(n_frames, dtype=np.int64)
    padded = 0
    true = 0
    for group in groups:
        sizes = frames[np.asarray(group, dtype=np.intp)]
        padded += len(sizes) * int(sizes.max())
        true += int(sizes.sum())
    if padded == 0:
        return 0.0
    return (padded - true) / padded
