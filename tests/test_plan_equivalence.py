"""Property tests: planning and batch composition on position arrays give
exactly the pairings and groups of the id- and object-based reference
in ``plan_oracle``, which draws the same RNG calls in the same order."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concat_augment.augment import Strategy, plan_epoch
from concat_augment.batching import compose_batches
from concat_augment.errors import ConfigurationError
from concat_augment.manifest import Corpus, Utterance, build_speaker_index

import plan_oracle
from conftest import synth_utterances

# Few labels, so corpora mix groups, singleton speakers and no label.
SPEAKERS = st.one_of(st.none(), st.sampled_from(["a", "b", "c", "d", "e"]))


@st.composite
def corpora(draw):
    speakers = draw(st.lists(SPEAKERS, min_size=1, max_size=40))
    frames = draw(st.lists(st.integers(1, 400), min_size=len(speakers), max_size=len(speakers)))
    return Corpus.from_utterances(
        Utterance(f"u{i:03d}", f"u{i:03d}.npy", n, (i,), speaker)
        for i, (speaker, n) in enumerate(zip(speakers, frames))
    )


@st.composite
def concat_strategies(draw):
    kind = draw(st.sampled_from(["self", "speaker", "random"]))
    k = 2 if kind == "self" else draw(st.integers(2, 4))
    return Strategy(kind, k)


KEYS = st.integers(0, 2**32 - 1)


def check_plan(utterances, strategy, seed, epoch):
    index = build_speaker_index(utterances)
    try:
        plan = plan_epoch(utterances, index, strategy, seed, epoch)
    except ConfigurationError:
        assert strategy.kind == "speaker" and not index.groups
        return
    pairings, excluded = plan_oracle.plan_pairings(
        utterances, index, strategy.kind, strategy.k, seed, epoch
    )
    assert plan.pairings == pairings
    assert plan.excluded == excluded
    assert plan.partners.shape == (len(pairings), strategy.k - 1)
    anchored = [a for a, _ in pairings] + [e for e, _ in excluded]
    assert sorted(anchored) == [u.id for u in utterances]
    frames = np.array([u.n_frames for u in utterances])
    by_id = {u.id: u for u in utterances}
    expected = [sum(by_id[c].n_frames for c in (a, *p)) for a, p in pairings]
    assert plan.instance_frames(frames).tolist() == expected


@settings(max_examples=300, deadline=None)
@given(corpora(), concat_strategies(), KEYS, st.integers(0, 50))
def test_plan_matches_reference(utterances, strategy, seed, epoch):
    check_plan(utterances, strategy, seed, epoch)


@pytest.mark.parametrize(
    "strategy",
    [Strategy("self")] + [Strategy(kind, k) for kind in ("speaker", "random") for k in (2, 3, 4)],
    ids=lambda s: f"{s.kind}-k{s.k}",
)
def test_plan_matches_reference_on_interleaved_speakers(strategy):
    # Speakers take turns through the list and every ninth row has none,
    # so speaker groups interleave and list order differs from group order.
    rng = np.random.default_rng(17)
    for n, n_speakers in [(1, 1), (2, 1), (7, 3), (60, 7), (300, 40)]:
        utterances = synth_utterances(n, n_speakers, 5, 50, rng, speakerless_every=9)
        check_plan(utterances, strategy, seed=n, epoch=3)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 3000), max_size=300),
    st.integers(0, 3000),
    KEYS,
    st.integers(0, 50),
    st.booleans(),
    st.sampled_from(["padded", "true"]),
)
def test_compose_matches_reference(frames, slack, seed, epoch, bucketing, accounting):
    budget = max(frames, default=1) + slack
    groups = compose_batches(frames, budget, seed, epoch, bucketing, accounting)
    expected = plan_oracle.compose_groups(frames, budget, seed, epoch, bucketing, accounting)
    assert [g.tolist() for g in groups] == expected
    assert Counter(p for g in groups for p in g.tolist()) == Counter(range(len(frames)))
    for group in groups:
        sizes = [frames[p] for p in group]
        used = len(sizes) * max(sizes) if accounting == "padded" else sum(sizes)
        assert used <= budget


@pytest.mark.parametrize("accounting", ["padded", "true"])
def test_compose_matches_reference_at_corpus_scale(accounting):
    frames = np.random.default_rng(8).integers(20, 3000, size=20_000)
    for bucketing in (True, False):
        groups = compose_batches(frames, 40_000, 9, 3, bucketing, accounting)
        expected = plan_oracle.compose_groups(frames, 40_000, 9, 3, bucketing, accounting)
        assert [g.tolist() for g in groups] == expected
