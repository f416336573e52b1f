"""Reference plan and batch composition over ids and objects.

The library plans, filters and composes an epoch on integer position
arrays. This module keeps the earlier, slower formulation: plans built
as ``(anchor_id, partner_ids)`` tuples in one loop over the corpus, and
batches packed from a list sorted with a key function. Both draw the
same RNG calls in the same order, so for a given key they must give
the same pairings and the same groups. Slow and simple on purpose.
"""

from __future__ import annotations

import numpy as np

from concat_augment.rng import BATCH_STREAM, PLAN_STREAM, keyed_rng

BUCKET_WIDTH_FRAMES = 100


def _gap_partners(rng, pool, anchor_pos, n_partners):
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


def plan_pairings(utterances, index, kind, k, seed, epoch):
    """``(pairings, excluded)`` as id tuples, in utterance order."""
    rng = keyed_rng(seed, PLAN_STREAM, epoch)
    ids = [u.id for u in utterances]

    if kind == "self":
        return tuple((uid, (uid,) * (k - 1)) for uid in ids), ()

    if kind == "random":
        n = len(ids)
        entries = []
        if k == 2 and n > 1:
            draws = rng.integers(0, n - 1, size=n)
            partner_pos = draws + (draws >= np.arange(n))
            entries = [(ids[i], (ids[int(p)],)) for i, p in enumerate(partner_pos)]
        else:
            for i, uid in enumerate(ids):
                partners = _gap_partners(rng, n, i, k - 1)
                entries.append((uid, tuple(ids[p] for p in partners)))
        return tuple(entries), ()

    group_pos = {}
    drawn = {}
    for speaker, members in index.groups.items():
        g = len(members)
        if g < 2:
            continue
        if k == 2:
            draws = rng.integers(0, g - 1, size=g)
            partner_pos = draws + (draws >= np.arange(g))
            drawn[speaker] = [[int(p)] for p in partner_pos]
        else:
            drawn[speaker] = [_gap_partners(rng, g, i, k - 1) for i in range(g)]

    pairings = []
    excluded = []
    for utt in utterances:
        if utt.speaker_id is None:
            excluded.append((utt.id, "speakerless"))
            continue
        members = index.groups[utt.speaker_id]
        if len(members) < 2:
            excluded.append((utt.id, "singleton-speaker"))
            continue
        pos = group_pos.setdefault(utt.speaker_id, 0)
        group_pos[utt.speaker_id] = pos + 1
        partners = drawn[utt.speaker_id][pos]
        pairings.append((utt.id, tuple(members[p] for p in partners)))
    return tuple(pairings), tuple(excluded)


def compose_groups(n_frames, budget_frames, seed, epoch, bucketing, accounting):
    """Groups of positions into ``n_frames``, in batch order."""
    items = list(enumerate(int(n) for n in n_frames))
    if not items:
        return []
    rng = keyed_rng(seed, BATCH_STREAM, epoch)
    order = rng.permutation(len(items))
    shuffled = [items[i] for i in order]
    if bucketing:
        shuffled.sort(key=lambda item: item[1] // BUCKET_WIDTH_FRAMES)

    groups = []
    current = []
    current_max = 0
    current_sum = 0
    for pos, frames in shuffled:
        if current:
            if accounting == "padded":
                fits = (len(current) + 1) * max(current_max, frames) <= budget_frames
            else:
                fits = current_sum + frames <= budget_frames
            if not fits:
                groups.append(current)
                current, current_max, current_sum = [], 0, 0
        current.append(pos)
        current_max = max(current_max, frames)
        current_sum += frames
    if current:
        groups.append(current)

    batch_order = rng.permutation(len(groups))
    return [groups[i] for i in batch_order]
