"""
Frame-budget batching
=====================

Pack variable-length instances into padded batches under a frame
budget, compare bucketing waste, and round-trip the binary format.
"""

import tempfile
from pathlib import Path

import numpy as np

from concat_augment import (
    TrainingInstance,
    compose_batches,
    decode_batch,
    encode_batch,
    pad_and_collate,
    padding_waste,
)

rng = np.random.default_rng(5)
# Batch membership needs frame counts only: groups hold positions into them.
frames = rng.integers(50, 1200, size=500)

BUDGET = 8000  # padded accounting: batch_size * longest_instance <= budget

for bucketing in (False, True):
    groups = compose_batches(frames, BUDGET, seed=3, epoch=0, bucketing=bucketing)
    sizes = [len(g) for g in groups]
    print(f"bucketing={bucketing}: {len(groups)} batches, "
          f"sizes {min(sizes)}..{max(sizes)}, waste {padding_waste(groups, frames):.3f}")

# Collation pads features with zeros and targets with the pad symbol;
# true lengths recover the originals exactly.
group = []
for i in range(4):
    n = int(rng.integers(20, 60))
    group.append(
        TrainingInstance(
            constituents=(f"g{i}",),
            n_frames=n,
            target=tuple(int(t) for t in rng.integers(0, 100, size=3)),
            features=rng.standard_normal((n, 80)).astype(np.float32),
        )
    )
batch = pad_and_collate(group, target_pad_id=0)
print(f"\ncollated batch: B={batch.size}, T_max={batch.t_max}, "
      f"lengths {batch.feature_lengths}")

# The wire format is little-endian with a CRC trailer.
blob = encode_batch(batch)
decoded = decode_batch(blob)
print(f"binary record: {len(blob)} bytes, features exact after decode: "
      f"{decoded.features.tobytes() == batch.features.tobytes()}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "batch-00000.cabx"
    path.write_bytes(blob)
    print(f"wrote {path.name}: {path.stat().st_size} bytes")
