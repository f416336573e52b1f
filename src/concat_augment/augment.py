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
and frame counts only; a :class:`TrainingInstance` is built from them
when a batch needs its features.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, MaterializationError
from .manifest import SpeakerIndex, Target, Utterance
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


@dataclass(frozen=True)
class TrainingInstance:
    """A training instance with provenance.

    Originals have a single constituent and ``strategy is None``;
    augmented instances record their ordered constituent utterance ids
    and the strategy that created them. ``features`` is filled by
    materialization and stays ``None`` until a batch loads them.
    """

    constituents: tuple[str, ...]
    n_frames: int
    target: Target
    strategy: str | None = None
    features: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def is_original(self) -> bool:
        return self.strategy is None


@dataclass(frozen=True, eq=False)
class EpochPlan:
    """All pairings for one epoch, before materialization, by position.

    Row ``i`` concatenates utterance ``anchors[i]`` with the utterances
    ``partners[i]``, in that order; positions index ``ids``, the corpus
    order the plan was drawn over. ``excluded`` lists the ``(id,
    reason)`` of every utterance that anchors nothing.
    """

    epoch: int
    seed: int
    strategy: Strategy
    ids: Sequence[str] = field(repr=False)
    anchors: np.ndarray  # n, int
    partners: np.ndarray  # n x (k - 1), int
    excluded: tuple[tuple[str, str], ...]

    def __len__(self) -> int:
        return len(self.anchors)

    def entry(self, row: int) -> PlanEntry:
        """Row ``row`` as ``(anchor_id, partner_ids)``."""
        return self.ids[self.anchors[row]], tuple(self.ids[p] for p in self.partners[row])

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

    def canonical_bytes(self) -> bytes:
        """Stable byte serialization, for determinism audits."""
        doc = {
            "epoch": self.epoch,
            "seed": self.seed,
            "strategy": [self.strategy.kind, self.strategy.k],
            "pairings": [[a, list(p)] for a, p in self.pairings],
            "excluded": [list(e) for e in self.excluded],
        }
        return json.dumps(doc, separators=(",", ":")).encode("utf-8")


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
    utterances: Sequence[Utterance],
    index: SpeakerIndex | None,
    strategy: Strategy,
    seed: int,
    epoch: int,
) -> EpochPlan:
    """Draw the epoch's pairings over the entire corpus.

    The RNG stream is keyed by (seed, epoch): different epochs yield
    different plans, reruns are bit-identical. Anchors follow the
    utterance list order; every eligible utterance anchors exactly once.

    Raises :class:`ConfigurationError` for the speaker strategy when no
    speaker groups exist.
    """
    if not utterances:
        raise ConfigurationError("cannot plan an epoch over an empty corpus")
    rng = keyed_rng(seed, PLAN_STREAM, epoch)
    ids = [u.id for u in utterances]
    n = len(ids)
    n_partners = strategy.k - 1

    if strategy.kind == "self":
        everyone = np.arange(n)
        partners = np.repeat(everyone[:, None], n_partners, axis=1)
        return EpochPlan(epoch, seed, strategy, ids, everyone, partners, ())

    if strategy.kind == "random":
        partners = _within(rng, n, n_partners)
        return EpochPlan(epoch, seed, strategy, ids, np.arange(n), partners, ())

    # speaker strategy
    if index is None or len(index.groups) == 0:
        raise ConfigurationError("speaker strategy requires a manifest with speaker labels")
    # Draw group by group in index order. A group's j-th member is the
    # j-th utterance of that speaker in list order, so the members'
    # positions, concatenated, are the anchors, and sorting them puts
    # the anchors back in list order.
    groups = [members for members in index.groups.values() if len(members) >= 2]
    sizes = [len(members) for members in groups]
    position = dict(zip(ids, range(n)))
    anchors = np.fromiter(
        map(position.__getitem__, itertools.chain.from_iterable(groups)),
        dtype=np.int64,
        count=sum(sizes),
    )
    starts = np.cumsum([0, *sizes[:-1]], dtype=np.int64)
    within = [start + _within(rng, size, n_partners) for start, size in zip(starts, sizes)]
    partners = anchors[np.concatenate(within)] if within else np.zeros((0, n_partners), np.int64)
    order = np.argsort(anchors, kind="stable")
    anchors = anchors[order]
    partners = partners[order]

    anchored = np.zeros(n, dtype=bool)
    anchored[anchors] = True
    excluded = tuple(
        (ids[i], EXCLUDED_SPEAKERLESS if utterances[i].speaker_id is None else EXCLUDED_SINGLETON)
        for i in np.flatnonzero(~anchored).tolist()
    )
    return EpochPlan(epoch, seed, strategy, ids, anchors, partners, excluded)


def _join_targets(targets: list[Target]) -> Target:
    # text joins with a single space; token sequences concatenate with
    # no separator symbol of any kind
    if isinstance(targets[0], str):
        return " ".join(targets)  # type: ignore[arg-type]
    joined: tuple[int, ...] = ()
    for t in targets:
        joined = joined + t  # type: ignore[operator]
    return joined


def instance_from_utterance(utt: Utterance) -> TrainingInstance:
    return TrainingInstance(
        constituents=(utt.id,),
        n_frames=utt.n_frames,
        target=utt.target,
        strategy=None,
    )


def instance_from_plan(
    entry: PlanEntry,
    utterances_by_id: Mapping[str, Utterance],
    strategy: Strategy,
) -> TrainingInstance:
    """Metadata-only augmented instance: exact frame and target sums."""
    anchor, partners = entry
    constituents = (anchor, *partners)
    utts = [utterances_by_id[c] for c in constituents]
    return TrainingInstance(
        constituents=constituents,
        n_frames=sum(u.n_frames for u in utts),
        target=_join_targets([u.target for u in utts]),
        strategy=strategy.kind,
    )


def with_features(
    instance: TrainingInstance,
    load_features: Callable[[str], np.ndarray],
) -> TrainingInstance:
    """Materialize: stack constituent feature matrices along time.

    Frame counts come from the loaded matrices, so the frame-additivity
    invariant holds exactly. (The pipeline's feature store fails an
    utterance whose matrix does not have its manifest frame count, so
    there they also equal the planned counts.) Load failures raise
    :class:`MaterializationError`; the pipeline drops the entry with a
    diagnostic.
    """
    try:
        parts = [np.asarray(load_features(cid)) for cid in instance.constituents]
    except Exception as exc:
        raise MaterializationError(
            f"failed to load features for {instance.constituents}: {exc}"
        ) from exc
    stacked = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)
    return replace(instance, n_frames=int(stacked.shape[0]), features=stacked)


def materialize(
    entry: PlanEntry,
    utterances_by_id: Mapping[str, Utterance],
    load_features: Callable[[str], np.ndarray],
    strategy: Strategy,
) -> TrainingInstance:
    """Turn one plan entry into a concrete augmented instance."""
    return with_features(instance_from_plan(entry, utterances_by_id, strategy), load_features)


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

    def instance(self, r: int, utterances_by_id: Mapping[str, Utterance]) -> TrainingInstance:
        """Metadata-only instance of survivor ``r``."""
        n_original = len(self.originals)
        if r < n_original:
            return instance_from_utterance(utterances_by_id[self.plan.ids[self.originals[r]]])
        entry = self.plan.entry(self.augmented[r - n_original])
        return instance_from_plan(entry, utterances_by_id, self.plan.strategy)


def length_filter(
    plan: EpochPlan, frames: np.ndarray, max_frames: int, include_original: bool = True
) -> Survivors:
    """Keep the originals and the plan's augmented instances that have at
    most ``max_frames`` frames. ``frames[i]`` is the frame count of the
    utterance at position ``i`` of the plan's corpus. Pass
    ``include_original=False`` for the augmented-only ablation."""
    augmented_frames = plan.instance_frames(frames)
    augmented = np.flatnonzero(augmented_frames <= max_frames)
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
