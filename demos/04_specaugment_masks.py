"""
SpecAugment masking
===================

Frequency and time masks with the standard policy (F=27, T=100, two
masks per axis), driven by keyed random streams.
"""

import numpy as np

from concat_augment import MaskPolicy, keyed_rng, mask_in_place


def masked(feats, policy, rng):
    # Masks are written in place: the pipeline masks each instance's
    # frames in its row of the batch record. Here they go on a copy.
    out = feats.copy()
    mask_in_place(out, policy, rng)
    return out


rng = np.random.default_rng(0)
feats = rng.uniform(1.0, 2.0, size=(300, 80))

policy = MaskPolicy()
first = masked(feats, policy, keyed_rng(7, 3, 0, 42))

changed = first != feats
full_cols = np.where(changed.all(axis=0))[0]
full_rows = np.where(changed.all(axis=1))[0]
print(f"masked {len(full_cols)} mel bins (<= {policy.n_freq_masks * policy.freq_param})")
print(f"masked {len(full_rows)} frames  (<= {policy.n_time_masks * policy.time_param})")
print(f"untouched cells identical: "
      f"{np.array_equal(first[~changed], feats[~changed])}")

# The same key reproduces the same masks; a different instance index
# gives fresh ones. The pipeline keys each instance by
# (seed, epoch, instance ordinal).
again = masked(feats, policy, keyed_rng(7, 3, 0, 42))
other = masked(feats, policy, keyed_rng(7, 3, 0, 43))
print(f"same key identical: {np.array_equal(first, again)}")
print(f"next instance differs: {not np.array_equal(first, other)}")

# Counts of zero disable masking entirely.
identity = masked(feats, MaskPolicy(n_freq_masks=0, n_time_masks=0), keyed_rng(1))
print(f"zero-mask policy is identity: {np.array_equal(identity, feats)}")

# Masking the frames of a padded row leaves its padding zero.
padded = np.zeros((400, 80))
padded[:300] = feats
mask_in_place(padded[:300], MaskPolicy(mask_value=-1.0), keyed_rng(7, 3, 0, 42))
print(f"padding still zero: {not padded[300:].any()}")
