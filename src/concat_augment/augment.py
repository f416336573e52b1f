"""Temporal-concatenation augmentation.

Three pairing strategies build new training instances by appending one
instance's feature frames (and target tokens) after another's, with no
separator:

* ``self``: every utterance is paired with itself (one repetition).
* ``speaker``: partners are drawn from the anchor's speaker group,
  excluding the anchor; utterances from singleton groups or without a
  speaker label are excluded from the plan.
* ``random``: partners are drawn uniformly from the whole corpus;
  the anchor itself is allowed as partner only when the pool has size 1.

Plans are drawn once per epoch over the entire corpus: every eligible
utterance anchors exactly one augmented instance, so pre-filter the
augmented set is the same size as the eligible original set. Plans are
a pure function of (seed, epoch, strategy, utterance order) and rerun
bit-identically. A plan and its length filter hold utterance positions
and frame counts only; a survivor's constituents and target are read
from them (:class:`Survivors`) only when a batch is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .manifest import Corpus, SpeakerIndex, Target
from .rng import PLAN_STREAM, keyed_rng

STRATEGY_KINDS = ("self", "speaker", "random")

EXCLUDED_SPEAKERLESS = "speakerless"
EXCLUDED_SINGLETON = "singleton-speaker"

PlanEntry = tuple[str, tuple[str, ...]]


@dataclass(frozen=True)
class Strategy:
    """Concatenation strategy: kind plus arity k (instances per concat)."""

    kind: str
    k: int = 2

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ConfigurationError(
                f"unknown strategy {self.kind!r}; expected one of {STRATEGY_KINDS}"
            )
        if self.kind == "self" and self.k != 2:
            raise ConfigurationError("self-concatenation repeats once; k must be 2")
        if self.k < 2:
            raise ConfigurationError(f"arity must be >= 2, got {self.k}")


@dataclass(frozen=True, eq=False)
class EpochPlan:
    """All pairings for one epoch, by position.

    Row ``i`` concatenates utterance ``anchors[i]`` with the utterances
    ``partners[i]``, in that order; positions index ``ids``, the corpus
    order the plan was drawn over. ``excluded`` lists the ``(id,
    reason)`` of every utterance that anchors nothing.
    """

    strategy: Strategy
    ids: Sequence[str] = field(repr=False)
    anchors: np.ndarray  # n, int
    partners: np.ndarray  # n x (k - 1), int
    excluded: tuple[tuple[str, str], ...]

    def __len__(self) -> int:
        return len(self.anchors)

    @property
    def pairings(self) -> tuple[PlanEntry, ...]:
        """Every row as ``(anchor_id, partner_ids)``, in plan order."""
        get = self.ids.__getitem__
        partner_ids = zip(*(map(get, column) for column in self.partners.T.tolist()))
        return tuple(zip(map(get, self.anchors.tolist()), partner_ids))

    def instance_frames(self, frames: np.ndarray) -> np.ndarray:
        """Each row's frame count, given every utterance's: frame counts
        add exactly under concatenation."""
        return frames[self.anchors] + frames[self.partners].sum(axis=1)


def _gap_partners(rng: np.random.Generator, pool: int, anchor_pos: int, n_partners: int):
    """Uniform draw of partner positions from range(pool) minus anchor_pos.

    Without replacement within the tuple; falls back to with-replacement
    draws when fewer than n_partners candidates exist (degenerate pools
    smaller than the arity).
    """
    if pool <= 1:
        return [anchor_pos] * n_partners
    if n_partners == 1:
        j = int(rng.integers(0, pool - 1))
        return [j + (j >= anchor_pos)]
    if n_partners <= pool - 1:
        draws = rng.choice(pool - 1, size=n_partners, replace=False)
    else:
        draws = rng.integers(0, pool - 1, size=n_partners)
    return [int(j) + (int(j) >= anchor_pos) for j in draws]


def _within(rng: np.random.Generator, pool: int, n_partners: int) -> np.ndarray:
    """Partner positions in range(pool) for every anchor position in it,
    as a pool x n_partners array (vectorized gap trick for one partner)."""
    if n_partners == 1 and pool > 1:
        draws = rng.integers(0, pool - 1, size=pool)
        return (draws + (draws >= np.arange(pool)))[:, None]
    rows = [_gap_partners(rng, pool, i, n_partners) for i in range(pool)]
    return np.array(rows, dtype=np.int64).reshape(pool, n_partners)


def plan_epoch(
    corpus: Corpus,
    index: SpeakerIndex | None,
    strategy: Strategy,
    seed: int,
    epoch: int,
) -> EpochPlan:
    """Draw the epoch's pairings over the entire corpus.

    The RNG stream is keyed by (seed, epoch): different epochs yield
    different plans, reruns are bit-identical. Anchors follow the
    corpus order; every eligible utterance anchors exactly once.
    ``index`` is the corpus's speaker index, built once per run; only
    the speaker strategy reads it. Build a corpus from utterances with
    :meth:`Corpus.from_utterances`.

    Raises :class:`ConfigurationError` for the speaker strategy when no
    speaker groups exist.
    """
    if not len(corpus):
        raise ConfigurationError("cannot plan an epoch over an empty corpus")
    rng = keyed_rng(seed, PLAN_STREAM, epoch)
    ids = corpus.ids
    n = len(ids)
    n_partners = strategy.k - 1

    if strategy.kind == "self":
        everyone = np.arange(n)
        partners = np.repeat(everyone[:, None], n_partners, axis=1)
        return EpochPlan(strategy, ids, everyone, partners, ())

    if strategy.kind == "random":
        partners = _within(rng, n, n_partners)
        return EpochPlan(strategy, ids, np.arange(n), partners, ())

    # speaker strategy
    if index is None or len(index) == 0:
        raise ConfigurationError("speaker strategy requires a manifest with speaker labels")
    # Draw group by group in code order. The index lists each group's
    # members in corpus order, so the members of every group of two or
    # more, concatenated, are the anchors, and sorting them puts the
    # anchors back in corpus order.
    pairable = index.sizes >= 2
    anchors = index.members[np.repeat(pairable, index.sizes)]
    sizes = index.sizes[pairable].tolist()
    starts = np.cumsum([0, *sizes[:-1]], dtype=np.int64)
    within = [start + _within(rng, size, n_partners) for start, size in zip(starts, sizes)]
    partners = anchors[np.concatenate(within)] if within else np.zeros((0, n_partners), np.int64)
    order = np.argsort(anchors, kind="stable")
    anchors = anchors[order]
    partners = partners[order]

    anchored = np.zeros(n, dtype=bool)
    anchored[anchors] = True
    left_out = np.flatnonzero(~anchored)
    speakerless = corpus.speaker_codes[left_out] < 0
    excluded = tuple(
        (ids[i], EXCLUDED_SPEAKERLESS if none else EXCLUDED_SINGLETON)
        for i, none in zip(left_out.tolist(), speakerless.tolist())
    )
    return EpochPlan(strategy, ids, anchors, partners, excluded)


def _join_targets(targets: list[Target]) -> Target:
    # text joins with a single space; token sequences concatenate with
    # no separator symbol of any kind
    if isinstance(targets[0], str):
        return " ".join(targets)  # type: ignore[arg-type]
    joined: tuple[int, ...] = ()
    for t in targets:
        joined = joined + t  # type: ignore[operator]
    return joined


@dataclass(frozen=True, eq=False)
class Survivors:
    """An epoch's instances that pass the length filter, by position.

    Survivor ``r``, whose ordinal is ``r``, is the original of utterance
    ``originals[r]`` when ``r < len(originals)``, else the augmented
    instance of plan row ``augmented[r - len(originals)]``: originals
    come first (a later keyed shuffle decides batch composition).
    ``frames[r]`` is its frame count.
    """

    plan: EpochPlan
    frames: np.ndarray
    originals: np.ndarray
    augmented: np.ndarray
    dropped_original: int
    dropped_augmented: int

    def __len__(self) -> int:
        return len(self.frames)

    def positions(self, r: int) -> list[int]:
        """The utterance positions survivor ``r`` concatenates, in order."""
        n_original = len(self.originals)
        if r < n_original:
            return [int(self.originals[r])]
        row = self.augmented[r - n_original]
        return [int(self.plan.anchors[row]), *self.plan.partners[row].tolist()]

    def first_use(self, ordinals: np.ndarray) -> np.ndarray:
        """The distinct positions that survivors ``ordinals`` concatenate,
        in the order they are first used: ``dict.fromkeys`` over each
        survivor's :meth:`positions`, in turn, as one array."""
        ordinals = np.asarray(ordinals, dtype=np.int64)
        n_original = len(self.originals)
        # one row per survivor, its positions padded with -1
        table = np.full((len(ordinals), self.plan.partners.shape[1] + 1), -1, dtype=np.int64)
        original = ordinals < n_original
        table[original, 0] = self.originals[ordinals[original]]
        rows = self.augmented[ordinals[~original] - n_original]
        table[~original, 0] = self.plan.anchors[rows]
        table[~original, 1:] = self.plan.partners[rows]
        used = table[table >= 0]
        distinct, first = np.unique(used, return_index=True)
        return distinct[np.argsort(first)]

    def constituents(self, r: int) -> tuple[str, ...]:
        """The utterance ids survivor ``r`` concatenates, in order."""
        return tuple(self.plan.ids[p] for p in self.positions(r))

    def target(self, r: int, targets: Sequence[Target]) -> Target:
        """Survivor ``r``'s target, given every utterance's by position:
        text joins with one space, tokens concatenate."""
        return _join_targets([targets[p] for p in self.positions(r)])


def length_filter(
    plan: EpochPlan, frames: np.ndarray, max_frames: int, include_original: bool = True
) -> Survivors:
    """Keep the originals and the plan's augmented instances that have at
    most ``max_frames`` frames. ``frames[i]`` is the frame count of the
    utterance at position ``i`` of the plan's corpus. Pass
    ``include_original=False`` for the augmented-only ablation.

    A concatenation's frame count is summed over counts capped just
    above the limit, so it is exact for every survivor, over the limit
    for every other row, and never wraps. The limit on a concatenation
    is at most ``INT64_MAX // k - 1`` frames, the most an int64 sum of
    ``k`` capped counts can compare against.
    """
    k = plan.partners.shape[1] + 1
    limit = min(max_frames, np.iinfo(np.int64).max // k - 1)
    augmented_frames = plan.instance_frames(np.minimum(frames, limit + 1))
    augmented = np.flatnonzero(augmented_frames <= limit)
    if include_original:
        originals = np.flatnonzero(frames <= max_frames)
    else:
        originals = np.zeros(0, dtype=np.int64)
    return Survivors(
        plan,
        np.concatenate([frames[originals], augmented_frames[augmented]]),
        originals,
        augmented,
        (len(frames) - len(originals)) if include_original else 0,
        len(plan) - len(augmented),
    )
