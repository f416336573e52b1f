"""
Concatenation strategies
========================

The augmentation core: plan an epoch of self / same-speaker / random
pairings over a toy corpus and materialize a few instances.
"""

import numpy as np

from concat_augment import (
    Corpus,
    Strategy,
    Utterance,
    build_speaker_index,
    length_filter,
    materialize,
    plan_epoch,
)

# Plans are drawn over a Corpus: the manifest's columns (a parsed
# manifest is one; here it is built from utterances).
corpus = Corpus.from_utterances([
    Utterance("u1", "u1.npy", n_frames=120, target=(7, 9), speaker_id="alice"),
    Utterance("u2", "u2.npy", n_frames=80, target=(3,), speaker_id="alice"),
    Utterance("u3", "u3.npy", n_frames=200, target=(5, 5, 1), speaker_id="bob"),
    Utterance("u4", "u4.npy", n_frames=60, target=(2, 8), speaker_id=None),
])
by_id = {u.id: u for u in corpus}
index = build_speaker_index(corpus)


def toy_features(uid):
    # stand-in features: each utterance's rows are filled with its index
    u = by_id[uid]
    return np.full((u.n_frames, 4), float(uid[-1]), dtype=np.float32)


for kind in ("self", "speaker", "random"):
    plan = plan_epoch(corpus, index, Strategy(kind), seed=7, epoch=0)
    print(f"\n{kind}: {len(plan.pairings)} pairings, {len(plan.excluded)} excluded")
    for anchor, partners in plan.pairings:
        print(f"  {anchor} + {list(partners)}")
    for uid, reason in plan.excluded:
        print(f"  excluded {uid}: {reason}")

# Materializing stacks features along time and concatenates targets;
# frame counts add exactly, targets gain no separator token.
plan = plan_epoch(corpus, index, Strategy("random"), seed=7, epoch=0)
inst = materialize(plan.pairings[0], by_id, toy_features, Strategy("random"))
parts = [by_id[c] for c in inst.constituents]
print(f"\nmaterialized {inst.constituents}: {inst.n_frames} frames "
      f"(= {' + '.join(str(p.n_frames) for p in parts)}), target {inst.target}")

# Plans hold utterance positions; frame counts add exactly, so the
# length filter over the originals and the augmented instances runs on
# integer arrays. A 3000-frame cap drops nothing here. Survivors are
# numbered originals first; only a batch that loads features builds
# its instances.
survivors = length_filter(plan, corpus.n_frames, max_frames=3000)
print(f"\ncombined: {len(survivors)} instances "
      f"({survivors.dropped_original}/{survivors.dropped_augmented} dropped orig/aug), "
      f"frames {survivors.frames.tolist()}")
last = survivors.instance(len(survivors) - 1, by_id)
print(f"last survivor: {last.constituents} ({last.strategy}), {last.n_frames} frames")
