"""Reference emit path: every epoch's CABX output for a manifest, a
config and an in-memory feature table, built batch by batch as
``with_features`` -> ``apply_masks`` -> ``pad_and_collate`` ->
``encode_batch``.

Planning, filtering and composition come from the package (their own
reference is ``plan_oracle``). Masking and encoding here are the
earlier copy-based implementations, kept so that the reference shares
no code with the pipeline's in-place record path.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import replace

import numpy as np

from concat_augment.augment import length_filter, plan_epoch, with_features
from concat_augment.batching import compose_batches, pad_and_collate
from concat_augment.errors import MaterializationError
from concat_augment.manifest import build_speaker_index, load_manifest
from concat_augment.rng import MASK_STREAM, keyed_rng

_U32 = struct.Struct("<I")


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
                    inst = with_features(survivors.instance(ordinal, by_id), table.__getitem__)
                except MaterializationError:
                    continue
                if config.specaugment is not None:
                    rng = keyed_rng(config.seed, MASK_STREAM, epoch, ordinal)
                    inst = replace(
                        inst, features=apply_masks(inst.features, config.specaugment, rng)
                    )
                kept.append(inst)
            if kept:
                records.append(encode_batch(pad_and_collate(kept, config.target_pad_id)))
        if config.emit == "stream":
            out[f"epoch-{epoch:03d}.cabxs"] = b"".join(_U32.pack(len(r)) + r for r in records)
        else:
            for i, record in enumerate(records):
                out[f"epoch-{epoch:03d}/batch-{i:05d}.cabx"] = record
    return out
