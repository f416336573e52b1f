import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from concat_augment.archive import FeatureArchive
from concat_augment.augment import Strategy, length_filter, plan_epoch
from concat_augment.errors import ConfigurationError
from concat_augment.features import FeatureConfig
from concat_augment.manifest import Corpus, Utterance, build_speaker_index
from concat_augment.pipeline import PipelineConfig, audit, iter_epoch_batches

from conftest import manifest_text, synth_utterances


def utt(uid, n_frames=10, target=(1, 2), speaker=None):
    return Utterance(id=uid, audio_ref=f"{uid}.npy", n_frames=n_frames, target=target,
                     speaker_id=speaker)


def corpus(*utts):
    return Corpus.from_utterances(utts)


def fake_loader(utts, n_bins=6):
    """Deterministic per-id feature factory honoring manifest frame counts."""
    by_id = {u.id: u for u in utts}

    def load(uid):
        rng = np.random.default_rng(abs(hash(uid)) % (2**32))
        return rng.standard_normal((by_id[uid].n_frames, n_bins)).astype(np.float32)

    return load


def same_plan(a, b):
    """Whether two plans pair and exclude the same utterances, in the same order."""
    return (
        a.pairings == b.pairings
        and a.excluded == b.excluded
        and np.array_equal(a.anchors, b.anchors)
        and np.array_equal(a.partners, b.partners)
    )


def augmented_survivors(utts, strategy, seed=0, epoch=0, index=None):
    """Every augmented instance of one epoch's plan over ``utts``, unfiltered."""
    plan = plan_epoch(utts, index, strategy, seed=seed, epoch=epoch)
    return length_filter(plan, utts.n_frames, 2**62, include_original=False)


def epoch_rows(root, utts, strategy, n_bins=6, archived=None):
    """Every row ``iter_epoch_batches`` yields for epoch 0 over ``utts``,
    as ``constituents -> (the row's frames, the row's padding)``. The
    archive holds ``fake_loader(utts)``'s features of the ids in
    ``archived`` (default: all); no audio exists for any id."""
    load = fake_loader(utts, n_bins)
    archive = FeatureArchive(root / "archive", mode="a", feature=FeatureConfig(n_mels=n_bins))
    with archive:
        for u in utts:
            if archived is None or u.id in archived:
                archive.write(u.id, load(u.id))
    rows = [(u.id, f"{u.id}.npy", u.n_frames, " ".join(map(str, u.target)), u.speaker_id or "")
            for u in utts]
    (root / "m.tsv").write_text(manifest_text(rows), encoding="utf-8")
    config = PipelineConfig(
        manifest_path=root / "m.tsv",
        audio_root=root,
        archive_dir=root / "archive",
        feature=FeatureConfig(n_mels=n_bins),
        strategy=strategy,
        budget_frames=100_000,
        max_frames=100_000,
    )
    out = {}
    for batch in iter_epoch_batches(config, epoch=0):
        for row, ids in enumerate(batch.instance_ids):
            n = batch.feature_lengths[row]
            out[ids] = (batch.features[row, :n], batch.features[row, n:])
    return out


class TestStrategy:
    def test_kinds(self):
        for kind in ("self", "speaker", "random"):
            Strategy(kind)

    def test_bad_kind(self):
        with pytest.raises(ConfigurationError):
            Strategy("mix")

    def test_self_must_have_arity_two(self):
        with pytest.raises(ConfigurationError):
            Strategy("self", k=3)

    def test_arity_below_two_rejected(self):
        with pytest.raises(ConfigurationError):
            Strategy("random", k=1)


class TestPlanSelf:
    def test_pairs_each_with_itself(self):
        utts = corpus(utt("u1"), utt("u2"))
        plan = plan_epoch(utts, None, Strategy("self"), seed=0, epoch=0)
        assert plan.pairings == (("u1", ("u1",)), ("u2", ("u2",)))
        assert plan.excluded == ()


class TestPlanSpeaker:
    def test_singletons_excluded(self):
        utts = corpus(utt("u1", speaker="a"), utt("u2", speaker="b"), utt("u3", speaker="b"))
        idx = build_speaker_index(utts)
        plan = plan_epoch(utts, idx, Strategy("speaker"), seed=1, epoch=0)
        assert dict(plan.pairings) == {"u2": ("u3",), "u3": ("u2",)}
        assert plan.excluded == (("u1", "singleton-speaker"),)

    def test_speakerless_excluded(self):
        utts = corpus(utt("u1"), utt("u2", speaker="a"), utt("u3", speaker="a"))
        idx = build_speaker_index(utts)
        plan = plan_epoch(utts, idx, Strategy("speaker"), seed=1, epoch=0)
        assert ("u1", "speakerless") in plan.excluded
        assert len(plan.pairings) == 2

    def test_no_speaker_index_is_fatal(self):
        utts = corpus(utt("u1"), utt("u2"))
        with pytest.raises(ConfigurationError):
            plan_epoch(utts, None, Strategy("speaker"), seed=0, epoch=0)
        with pytest.raises(ConfigurationError):
            plan_epoch(utts, build_speaker_index(utts), Strategy("speaker"), seed=0, epoch=0)

    def test_partners_stay_in_group_never_anchor(self):
        rng = np.random.default_rng(2)
        utts = synth_utterances(400, 8, 5, 20, rng)
        idx = build_speaker_index(utts)
        speaker_of = {u.id: u.speaker_id for u in utts}
        for epoch in range(5):
            plan = plan_epoch(utts, idx, Strategy("speaker"), seed=9, epoch=epoch)
            for anchor, partners in plan.pairings:
                for partner in partners:
                    assert speaker_of[partner] == speaker_of[anchor]
                    assert partner != anchor


class TestPlanRandom:
    def test_no_self_pairing_when_pool_allows(self):
        rng = np.random.default_rng(3)
        utts = synth_utterances(150, 5, 5, 20, rng)
        for epoch in range(10):
            plan = plan_epoch(utts, None, Strategy("random"), seed=4, epoch=epoch)
            for anchor, partners in plan.pairings:
                assert anchor not in partners

    def test_pool_of_one_pairs_with_itself(self):
        plan = plan_epoch(corpus(utt("only")), None, Strategy("random"), seed=0, epoch=0)
        assert plan.pairings == (("only", ("only",)),)

    def test_arity_three_partners_distinct(self):
        rng = np.random.default_rng(5)
        utts = synth_utterances(50, 5, 5, 20, rng)
        plan = plan_epoch(utts, None, Strategy("random", k=3), seed=6, epoch=0)
        for anchor, partners in plan.pairings:
            assert len(partners) == 2
            assert len(set(partners)) == 2
            assert anchor not in partners


class TestPlanProperties:
    def test_anchor_coverage(self):
        rng = np.random.default_rng(7)
        utts = synth_utterances(200, 6, 5, 20, rng, speakerless_every=9)
        idx = build_speaker_index(utts)
        all_ids = {u.id for u in utts}
        for strat in (Strategy("self"), Strategy("random"), Strategy("speaker")):
            plan = plan_epoch(utts, idx, strat, seed=8, epoch=2)
            anchors = [a for a, _ in plan.pairings]
            assert len(anchors) == len(set(anchors))
            assert set(anchors) | {e for e, _ in plan.excluded} == all_ids

    def test_rerun_is_byte_identical(self):
        rng = np.random.default_rng(9)
        utts = synth_utterances(120, 4, 5, 20, rng)
        idx = build_speaker_index(utts)
        for strat in (Strategy("self"), Strategy("random"), Strategy("speaker")):
            a = plan_epoch(utts, idx, strat, seed=77, epoch=3)
            b = plan_epoch(utts, idx, strat, seed=77, epoch=3)
            assert same_plan(a, b)

    def test_epochs_differ(self):
        # consecutive epochs differ in at least one pairing, 100 trials
        rng = np.random.default_rng(10)
        utts = synth_utterances(100, 4, 5, 20, rng)
        for trial in range(100):
            a = plan_epoch(utts, None, Strategy("random"), seed=trial, epoch=0)
            b = plan_epoch(utts, None, Strategy("random"), seed=trial, epoch=1)
            assert a.pairings != b.pairings

    def test_seed_changes_plan(self):
        rng = np.random.default_rng(11)
        utts = synth_utterances(100, 4, 5, 20, rng)
        a = plan_epoch(utts, None, Strategy("random"), seed=0, epoch=0)
        b = plan_epoch(utts, None, Strategy("random"), seed=1, epoch=0)
        assert a.pairings != b.pairings

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_epoch(corpus(), None, Strategy("self"), seed=0, epoch=0)


class TestMaterialize:
    """Plan rows as survivors (``Survivors.constituents``, ``frames`` and
    ``target``) and as the rows the run path builds from them
    (``iter_epoch_batches``)."""

    def test_concat_order_and_rows(self, tmp_path):
        utts = [utt("a", n_frames=100), utt("b", n_frames=50)]
        load = fake_loader(utts)
        rows = epoch_rows(tmp_path, utts, Strategy("random"))
        assert set(rows) == {("a",), ("b",), ("a", "b"), ("b", "a")}
        frames, padding = rows[("a", "b")]
        assert frames.shape == (150, 6)
        np.testing.assert_array_equal(frames[:100], load("a"))
        np.testing.assert_array_equal(frames[100:], load("b"))
        assert padding.size == 0
        frames, padding = rows[("b",)]
        np.testing.assert_array_equal(frames, load("b"))
        assert padding.shape == (100, 6) and padding.tobytes() == bytes(padding.nbytes)

    def test_self_concat_doubles_frames_and_target(self, tmp_path):
        utts = [utt("u", n_frames=80, target=(5, 9))]
        survivors = augmented_survivors(corpus(*utts), Strategy("self"))
        assert survivors.frames.tolist() == [160]
        assert survivors.target(0, [(5, 9)]) == (5, 9, 5, 9)
        frames, _ = epoch_rows(tmp_path, utts, Strategy("self"))[("u", "u")]
        assert frames.shape[0] == 160
        np.testing.assert_array_equal(frames[:80], frames[80:])
        np.testing.assert_array_equal(frames[:80], fake_loader(utts)("u"))

    def test_three_way_sums_match_recount(self):
        rng = np.random.default_rng(12)
        utts = synth_utterances(30, 3, 5, 40, rng)
        by_id = {u.id: u for u in utts}
        survivors = augmented_survivors(utts, Strategy("random", k=3), seed=1)
        for r in range(10):
            parts = [by_id[c] for c in survivors.constituents(r)]
            assert len(parts) == 3
            assert survivors.frames[r] == sum(p.n_frames for p in parts)
            assert len(survivors.target(r, utts.targets)) == sum(len(p.target) for p in parts)

    def test_text_targets_joined_with_single_space(self):
        survivors = augmented_survivors(
            corpus(utt("a", target="the cat"), utt("b", target="sat down")), Strategy("random")
        )
        assert survivors.constituents(0) == ("a", "b")
        target = survivors.target(0, ["the cat", "sat down"])
        assert target == "the cat sat down"
        assert len(target) == len("the cat") + len("sat down") + 1

    def test_no_new_tokens_introduced(self):
        rng = np.random.default_rng(13)
        utts = synth_utterances(60, 4, 5, 20, rng)
        survivors = augmented_survivors(utts, Strategy("random"), seed=2)
        assert len(survivors) == 60
        for r in range(len(survivors)):
            allowed = set()
            for pos in survivors.positions(r):
                allowed |= set(utts.targets[pos])
            assert set(survivors.target(r, utts.targets)) <= allowed

    def test_speaker_purity(self):
        rng = np.random.default_rng(14)
        utts = synth_utterances(200, 5, 5, 20, rng)
        idx = build_speaker_index(utts)
        survivors = augmented_survivors(utts, Strategy("speaker"), seed=3, epoch=1, index=idx)
        assert len(survivors) == 200
        for r in range(len(survivors)):
            assert len({utts.speaker_codes[p] for p in survivors.positions(r)}) == 1

    def test_load_failure_drops_the_instance(self, tmp_path):
        # "b" is neither archived nor on disk: every instance using it is dropped
        utts = [utt("a"), utt("b")]
        rows = epoch_rows(tmp_path, utts, Strategy("random"), archived={"a"})
        assert set(rows) == {("a",)}

    def test_original_instance_from_utterance(self):
        utts = corpus(utt("a", n_frames=33, target=(1, 2, 3)))
        plan = plan_epoch(utts, None, Strategy("self"), seed=0, epoch=0)
        survivors = length_filter(plan, utts.n_frames, 3000)
        assert len(survivors.originals) == 1  # survivor 0 is the original
        assert survivors.positions(0) == [0]
        assert survivors.constituents(0) == ("a",)
        assert survivors.frames[0] == 33
        assert survivors.target(0, utts.targets) == (1, 2, 3)


class TestCombineAndFilter:
    """The length filter over originals and an epoch's plan, by position."""

    @staticmethod
    def _filter(utts, strategy, max_frames=3000, include_original=True):
        """The survivors, and each one's ``(constituents, frames, is_original)``."""
        utts = corpus(*utts)
        plan = plan_epoch(utts, None, strategy, seed=0, epoch=0)
        frames = np.array([u.n_frames for u in utts])
        survivors = length_filter(plan, frames, max_frames, include_original)
        return survivors, [
            (survivors.constituents(r), int(survivors.frames[r]), r < len(survivors.originals))
            for r in range(len(survivors))
        ]

    def test_overlong_augmented_dropped(self):
        result, instances = self._filter([utt("o1", n_frames=1600)], Strategy("self"))
        assert [constituents for constituents, _, _ in instances] == [("o1",)]
        assert result.dropped_augmented == 1
        assert result.dropped_original == 0

    def test_nothing_dropped_when_under_limit(self):
        utts = [utt(f"o{i}", n_frames=1450) for i in range(5)]
        result, instances = self._filter(utts, Strategy("self"))
        assert len(instances) == 10
        assert result.frames.tolist() == [1450] * 5 + [2900] * 5

    def test_originals_precede_augmented(self):
        _, instances = self._filter([utt("o1", n_frames=10)], Strategy("random"))
        assert instances == [(("o1",), 10, True), (("o1", "o1"), 20, False)]

    def test_survivors_match_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(15)
        utts = synth_utterances(500, 5, 1500, 2000, rng)
        by_id = {u.id: u for u in utts}
        plan = plan_epoch(utts, None, Strategy("random"), seed=4, epoch=0)
        frames = np.array([u.n_frames for u in utts])
        result = length_filter(plan, frames, max_frames=3000, include_original=False)
        expected = [
            (anchor, *partners)
            for anchor, partners in plan.pairings
            if by_id[anchor].n_frames + sum(by_id[p].n_frames for p in partners) <= 3000
        ]
        assert [result.constituents(r) for r in range(len(result))] == expected
        assert result.dropped_augmented == len(plan.pairings) - len(expected)
        recount = [sum(by_id[c].n_frames for c in constituents) for constituents in expected]
        assert all(n <= 3000 for n in recount)
        assert recount == result.frames.tolist()

    def test_frame_counts_that_overflow_int64_are_dropped(self):
        utts = [utt("a", n_frames=2**62), utt("b", n_frames=2**62)]
        result, instances = self._filter(utts, Strategy("random"))
        assert instances == []
        assert (result.dropped_original, result.dropped_augmented) == (2, 2)

    def test_survivors_near_the_int64_limit_are_exact(self):
        utts = corpus(utt("a", n_frames=2**61), utt("b", n_frames=1), utt("c", n_frames=7))
        by_id = {u.id: u.n_frames for u in utts}
        plan = plan_epoch(utts, None, Strategy("random"), seed=0, epoch=0)
        sums = [by_id[a] + sum(by_id[p] for p in partners) for a, partners in plan.pairings]
        for max_frames in (8, 2**61 + 1, 2**63 - 1, 2**64):
            result = length_filter(plan, utts.n_frames, max_frames, include_original=False)
            assert result.frames.tolist() == [n for n in sums if n <= max_frames]

    def test_augmented_only_mode_keeps_no_originals(self):
        rng = np.random.default_rng(16)
        utts = synth_utterances(100, 5, 5, 20, rng)
        result, instances = self._filter(utts, Strategy("random"), include_original=False)
        assert len(instances) <= 100
        assert not any(is_original for _, _, is_original in instances)
        assert result.dropped_original == 0

    def test_bad_max_frames(self, tmp_path):
        config = PipelineConfig(manifest_path=tmp_path / "never-read.tsv", max_frames=0)
        with pytest.raises(ConfigurationError, match="max_frames must be >= 1, got 0"):
            audit(config)


_words = st.text("abcxyz", min_size=1, max_size=4)
_token_target = st.lists(st.integers(0, 30), min_size=1, max_size=4).map(tuple)
_text_target = st.lists(_words, min_size=1, max_size=3).map(" ".join)


@st.composite
def _corpora(draw):
    """A small corpus, all token or all text targets, some speakers unlabelled."""
    target = draw(st.sampled_from([_token_target, _text_target]))
    rows = draw(st.lists(
        st.tuples(st.integers(1, 60), target, st.sampled_from(["s0", "s1", "s2", None])),
        min_size=1,
        max_size=12,
    ))
    return corpus(*(utt(f"u{i}", n, t, spk) for i, (n, t, spk) in enumerate(rows)))


@st.composite
def _strategies(draw):
    kind = draw(st.sampled_from(["self", "speaker", "random"]))
    return Strategy(kind, 2 if kind == "self" else draw(st.integers(2, 4)))


class TestSurvivorsOracle:
    """Every survivor's positions, frames, constituents and target against
    an oracle built from the plan's pairings and the utterances."""

    @staticmethod
    def oracle(utts, plan, max_frames, include_original):
        """``(constituents, frames, target)`` of every survivor, in order:
        originals in corpus order, then augmented rows in plan order."""
        by_id = {u.id: u for u in utts}
        rows = [(u.id,) for u in utts] if include_original else []
        rows += [(anchor, *partners) for anchor, partners in plan.pairings]
        expected = []
        for constituents in rows:
            parts = [by_id[c] for c in constituents]
            frames = sum(p.n_frames for p in parts)
            if frames > max_frames:
                continue
            if isinstance(parts[0].target, str):
                target = " ".join(p.target for p in parts)
            else:
                target = tuple(token for p in parts for token in p.target)
            expected.append((constituents, frames, target))
        return expected

    @settings(max_examples=200, deadline=None)
    @given(
        utts=_corpora(),
        strategy=_strategies(),
        max_frames=st.integers(1, 150),
        include_original=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_survivors_match_the_oracle(self, utts, strategy, max_frames, include_original, seed):
        index = build_speaker_index(utts)
        assume(strategy.kind != "speaker" or len(index))
        plan = plan_epoch(utts, index, strategy, seed=seed, epoch=0)
        survivors = length_filter(plan, utts.n_frames, max_frames, include_original)
        expected = self.oracle(utts, plan, max_frames, include_original)
        assert len(survivors) == len(expected)
        position = {utt_id: i for i, utt_id in enumerate(utts.ids)}
        for r, (constituents, frames, target) in enumerate(expected):
            assert survivors.positions(r) == [position[c] for c in constituents]
            assert survivors.constituents(r) == constituents
            assert survivors.frames[r] == frames
            assert survivors.target(r, utts.targets) == target


@settings(max_examples=200, deadline=None)
@given(
    utts=_corpora(),
    strategy=_strategies(),
    include_original=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_first_use_is_the_order_positions_are_first_read(
    utts, strategy, include_original, seed, data
):
    """``Survivors.first_use`` over any sequence of survivors, repeats
    included, is ``dict.fromkeys`` over their positions, in turn."""
    index = build_speaker_index(utts)
    assume(strategy.kind != "speaker" or len(index))
    plan = plan_epoch(utts, index, strategy, seed=seed, epoch=0)
    survivors = length_filter(plan, utts.n_frames, 60 * strategy.k, include_original)
    ordinal = st.integers(0, len(survivors) - 1)
    ordinals = data.draw(st.lists(ordinal, max_size=30) if len(survivors) else st.just([]))
    expected = list(dict.fromkeys(p for r in ordinals for p in survivors.positions(r)))
    assert survivors.first_use(np.array(ordinals, dtype=np.int64)).tolist() == expected
