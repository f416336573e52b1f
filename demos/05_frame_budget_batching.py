"""
Frame-budget batching
=====================

Pack variable-length instances into padded batches under a frame
budget, compare bucketing waste, and build one batch's binary record
the way the pipeline does: in place, in a single buffer.
"""

import tempfile
from pathlib import Path

import numpy as np

from concat_augment import Record, compose_batches, decode_batch, padding_waste

rng = np.random.default_rng(5)
# Batch membership needs frame counts only: groups hold positions into them.
frames = rng.integers(50, 1200, size=500)

BUDGET = 8000  # padded accounting: batch_size * longest_instance <= budget

for bucketing in (False, True):
    groups = compose_batches(frames, BUDGET, seed=3, epoch=0, bucketing=bucketing)
    sizes = [len(g) for g in groups]
    print(f"bucketing={bucketing}: {len(groups)} batches, "
          f"sizes {min(sizes)}..{max(sizes)}, waste {padding_waste(groups, frames):.3f}")

# Three utterances' features; the batch holds two originals and the
# concatenation g0 + g2.
feats = {f"g{i}": rng.standard_normal((int(rng.integers(20, 60)), 80)).astype(np.float32)
         for i in range(3)}
tokens = {uid: tuple(int(t) for t in rng.integers(0, 100, size=3)) for uid in feats}
instances = [("g0",), ("g1",), ("g0", "g2")]

# A record is laid out from frame counts and targets alone, before any
# feature is read: header, targets (joined, no separator) and true
# lengths are written, and the zeroed feature region is B x T_max x F.
lengths = [sum(len(feats[uid]) for uid in inst) for inst in instances]
targets = [sum((tokens[uid] for uid in inst), ()) for inst in instances]
record = Record(max(lengths), 80, lengths, targets, target_pad_id=0)

# Each constituent's features go straight into its row at its frame
# offset; padding is never written, so it stays zero. Then the CRC.
for row, inst in enumerate(instances):
    start = 0
    for uid in inst:
        record.features[row, start : start + len(feats[uid])] = feats[uid]
        start += len(feats[uid])
record.seal()

batch = decode_batch(record.body)
concat = np.concatenate([feats["g0"], feats["g2"]])
print(f"\nrecord: B={batch.size}, T_max={batch.t_max}, lengths {batch.feature_lengths}")
print(f"concatenated row exact after decode: "
      f"{batch.features[2, :lengths[2]].tobytes() == concat.tobytes()}")
print(f"padding zero: {not batch.features[1, lengths[1]:].any()}")
print(f"targets: {[batch.targets[r, :n].tolist() for r, n in enumerate(batch.target_lengths)]}")

# The wire format is little-endian with a CRC trailer; a batch file is
# the record's body, a stream prefixes each body with its length.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "batch-00000.cabx"
    path.write_bytes(record.body)
    print(f"wrote {path.name}: {path.stat().st_size} bytes")
