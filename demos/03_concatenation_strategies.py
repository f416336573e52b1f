"""
Concatenation strategies
========================

The augmentation core: plan an epoch of self / same-speaker / random
pairings over a toy corpus, filter it by length, and read the
survivors' constituents, frame counts and targets.
"""

from concat_augment import (
    Corpus,
    Strategy,
    Utterance,
    build_speaker_index,
    length_filter,
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
index = build_speaker_index(corpus)

for kind in ("self", "speaker", "random"):
    plan = plan_epoch(corpus, index, Strategy(kind), seed=7, epoch=0)
    print(f"\n{kind}: {len(plan.pairings)} pairings, {len(plan.excluded)} excluded")
    for anchor, partners in plan.pairings:
        print(f"  {anchor} + {list(partners)}")
    for uid, reason in plan.excluded:
        print(f"  excluded {uid}: {reason}")

# Plans hold utterance positions; frame counts add exactly, so the
# length filter over the originals and the augmented instances runs on
# integer arrays. A 3000-frame cap drops nothing here. Survivors are
# numbered originals first.
plan = plan_epoch(corpus, index, Strategy("random"), seed=7, epoch=0)
survivors = length_filter(plan, corpus.n_frames, max_frames=3000)
print(f"\ncombined: {len(survivors)} instances "
      f"({survivors.dropped_original}/{survivors.dropped_augmented} dropped orig/aug), "
      f"frames {survivors.frames.tolist()}")

# A survivor is read from the plan's positions only when a batch is
# built: its frame counts add and its targets concatenate with no
# separator token. The batch then reads each constituent's features, in
# order, straight into the survivor's row of its record (see demo 05).
for r in (0, len(survivors) - 1):
    kind = "original" if r < len(survivors.originals) else plan.strategy.kind
    parts = " + ".join(str(corpus.n_frames[p]) for p in survivors.positions(r))
    print(f"survivor {r}: {survivors.constituents(r)} ({kind}), "
          f"{survivors.frames[r]} frames (= {parts}), "
          f"target {survivors.target(r, corpus.targets)}")
