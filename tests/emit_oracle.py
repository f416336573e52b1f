"""Reference emit path: every epoch's CABX output for a manifest, a
config and an in-memory feature table, built batch by batch as
``with_features`` -> ``apply_masks`` -> ``pad_and_collate`` ->
``encode_batch``, each of which copies.

Planning, filtering and composition come from the package (their own
reference is ``plan_oracle``). Concatenating, masking, collating and
encoding are written here, apart from the package's in-place record
path (``pipeline._build_group``), so that the reference shares no emit
code with it. An instance here is an :class:`Instance`, built from the
plan's pairings and the utterances, and a materialized one is an
``(Instance, features)`` pair.
"""

from __future__ import annotations

import struct
import zlib
from typing import NamedTuple

import numpy as np

from concat_augment.augment import length_filter, plan_epoch
from concat_augment.batching import Batch, compose_batches
from concat_augment.errors import BatchingError
from concat_augment.manifest import build_speaker_index, load_manifest
from concat_augment.rng import MASK_STREAM, keyed_rng

_U32 = struct.Struct("<I")


class Instance(NamedTuple):
    constituents: tuple[str, ...]
    n_frames: int
    target: tuple[int, ...] | str


def survivor_instance(survivors, pairings, ordinal, by_id) -> Instance:
    """Survivor ``ordinal`` as an :class:`Instance`. ``pairings`` is its
    plan's, ``by_id`` the utterances by id: frames sum, text joins with
    one space and tokens concatenate."""
    n_original = len(survivors.originals)
    if ordinal < n_original:
        constituents = (survivors.plan.ids[survivors.originals[ordinal]],)
    else:
        anchor, partners = pairings[survivors.augmented[ordinal - n_original]]
        constituents = (anchor, *partners)
    utts = [by_id[c] for c in constituents]
    targets = [u.target for u in utts]
    target = " ".join(targets) if isinstance(targets[0], str) else sum(targets, ())
    return Instance(constituents, sum(u.n_frames for u in utts), target)


def with_features(instance, load_features):
    """``(instance, features)``: its constituents' matrices stacked along
    time. A constituent that fails to load raises its loader's error."""
    parts = [np.asarray(load_features(cid)) for cid in instance.constituents]
    return instance, parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)


def apply_masks(feats, policy, rng):
    out = np.array(feats, copy=True)
    n_frames, n_bins = out.shape
    for _ in range(policy.n_freq_masks):
        width = int(rng.integers(0, min(policy.freq_param, n_bins) + 1))
        start = int(rng.integers(0, n_bins - width + 1))
        out[:, start : start + width] = policy.mask_value
    for _ in range(policy.n_time_masks):
        width = int(rng.integers(0, min(policy.time_param, n_frames) + 1))
        start = int(rng.integers(0, n_frames - width + 1))
        out[start : start + width, :] = policy.mask_value
    return out


def pad_and_collate(group, target_pad_id: int = 0) -> Batch:
    """Zero-pad a group of ``(instance, features)`` pairs to T_max and
    their targets to L_max; text targets become Unicode code points."""
    if not group:
        raise BatchingError("cannot collate an empty group")
    for inst, feats in group:
        if feats is None:
            raise BatchingError(f"instance {inst.constituents} has no materialized features")
    dims = {feats.shape[1] for _, feats in group}
    if len(dims) != 1:
        raise BatchingError(f"inconsistent feature dimensions in batch: {sorted(dims)}")
    (n_bins,) = dims

    feature_lengths = [int(feats.shape[0]) for _, feats in group]
    features = np.zeros((len(group), max(feature_lengths), n_bins), dtype=np.float32)
    for row, (_, feats) in enumerate(group):
        features[row, : feature_lengths[row]] = feats

    codes = [
        [ord(c) for c in inst.target] if isinstance(inst.target, str) else inst.target
        for inst, _ in group
    ]
    target_lengths = [len(c) for c in codes]
    targets = np.full((len(group), max(target_lengths)), target_pad_id, dtype=np.int64)
    for row, seq in enumerate(codes):
        targets[row, : len(seq)] = seq

    return Batch(
        features=features,
        feature_lengths=feature_lengths,
        targets=targets,
        target_lengths=target_lengths,
        target_pad_id=target_pad_id,
        instance_ids=[inst.constituents for inst, _ in group],
    )


def encode_batch(batch) -> bytes:
    b, t_max, n_bins = batch.features.shape
    parts = [
        b"CABX",
        _U32.pack(1),
        struct.pack("<III", b, t_max, n_bins),
        np.ascontiguousarray(batch.features, dtype="<f4").tobytes(),
        _U32.pack(batch.target_pad_id),
    ]
    for row in range(b):
        length = batch.target_lengths[row]
        parts.append(_U32.pack(length))
        parts.append(batch.targets[row, :length].astype("<u4").tobytes())
    parts.append(np.asarray(batch.feature_lengths, dtype="<u4").tobytes())
    body = b"".join(parts)
    return body + _U32.pack(zlib.crc32(body))


def emit(config, table: dict[str, np.ndarray]) -> dict[str, bytes]:
    """Relative output path -> bytes, as ``run`` writes them to ``out_dir``.
    An id missing from ``table`` fails to load."""
    utterances = load_manifest(config.manifest_path, config.corpus_mode).utterances
    by_id = {u.id: u for u in utterances}
    index = build_speaker_index(utterances)
    frames = np.array([u.n_frames for u in utterances], dtype=np.int64)
    out = {}
    for epoch in range(config.epochs):
        plan = plan_epoch(utterances, index, config.strategy, config.seed, epoch)
        survivors = length_filter(plan, frames, config.max_frames, config.include_original)
        pairings = plan.pairings
        groups = compose_batches(
            survivors.frames,
            config.budget_frames,
            config.seed,
            epoch,
            config.bucketing,
            config.accounting,
        )
        records = []
        for group in groups:
            kept = []
            for ordinal in group.tolist():
                try:
                    inst, feats = with_features(
                        survivor_instance(survivors, pairings, ordinal, by_id),
                        table.__getitem__,
                    )
                except KeyError:
                    continue
                if config.specaugment is not None:
                    rng = keyed_rng(config.seed, MASK_STREAM, epoch, ordinal)
                    feats = apply_masks(feats, config.specaugment, rng)
                kept.append((inst, feats))
            if kept:
                records.append(encode_batch(pad_and_collate(kept, config.target_pad_id)))
        if config.emit == "stream":
            out[f"epoch-{epoch:03d}.cabxs"] = b"".join(_U32.pack(len(r)) + r for r in records)
        else:
            for i, record in enumerate(records):
                out[f"epoch-{epoch:03d}/batch-{i:05d}.cabx"] = record
    return out
