import io

import numpy as np
import pytest

from concat_augment.errors import ManifestError
from concat_augment.manifest import (
    build_speaker_index,
    ingestion_report,
    normalize_target,
    parse_manifest,
    serialize_manifest,
)

from conftest import manifest_text


class TestParse:
    def test_single_well_formed_row(self):
        text = manifest_text([("u1", "a.wav", 120, "7 8 9", "spk_a")])
        result = parse_manifest(text)
        assert len(result.utterances) == 1
        utt = result.utterances[0]
        assert utt.id == "u1"
        assert utt.n_frames == 120
        assert utt.target == (7, 8, 9)
        assert utt.speaker_id == "spk_a"
        assert result.skipped == []

    def test_header_only_gives_empty_list(self):
        result = parse_manifest("id\taudio\tn_frames\ttgt_text\n")
        assert result.utterances == []

    def test_bad_n_frames_row_skipped_with_diagnostic(self):
        # 5 rows, one with n_frames=-3: 4 accepted + 1 skip, counted by hand
        rows = [
            ("u1", "a.wav", 10, "1", "s"),
            ("u2", "b.wav", 20, "2", "s"),
            ("u3", "c.wav", -3, "3", "s"),
            ("u4", "d.wav", 40, "4", "s"),
            ("u5", "e.wav", 50, "5", "s"),
        ]
        result = parse_manifest(manifest_text(rows))
        assert [u.id for u in result.utterances] == ["u1", "u2", "u4", "u5"]
        assert len(result.skipped) == 1
        assert "n_frames" in result.skipped[0][1]

    def test_unparseable_n_frames_skipped(self):
        rows = [("u1", "a.wav", "twelve", "1 2", "s"), ("u2", "b.wav", 5, "3", "s")]
        result = parse_manifest(manifest_text(rows))
        assert [u.id for u in result.utterances] == ["u2"]
        assert len(result.skipped) == 1

    def test_missing_header_columns_fatal(self):
        with pytest.raises(ManifestError, match="n_frames"):
            parse_manifest("id\taudio\ttgt_text\nu1\ta.wav\thello\n")

    def test_duplicate_id_fatal(self):
        rows = [("u1", "a.wav", 10, "1", "s"), ("u1", "b.wav", 20, "2", "s")]
        with pytest.raises(ManifestError, match="u1"):
            parse_manifest(manifest_text(rows))

    def test_empty_target_skipped(self):
        rows = [("u1", "a.wav", 10, "", "s")]
        result = parse_manifest(manifest_text(rows))
        assert result.utterances == []
        assert "empty target" in result.skipped[0][1]

    def test_negative_token_id_skipped(self):
        rows = [("u1", "a.wav", 10, "3 -4", "s")]
        result = parse_manifest(manifest_text(rows))
        assert result.utterances == []

    def test_token_id_over_u32_skipped(self):
        rows = [
            ("u1", "a.wav", 10, f"3 {2**32}", "s"),
            ("u2", "b.wav", 10, f"{2**64} 1", "s"),
            ("u3", "c.wav", 10, f"{2**32 - 1}", "s"),
        ]
        result = parse_manifest(manifest_text(rows))
        assert [u.id for u in result.utterances] == ["u3"]
        assert result.utterances[0].target == (2**32 - 1,)
        assert [lineno for lineno, _ in result.skipped] == [2, 3]
        assert all("bad target" in reason and "32 bits" in reason for _, reason in result.skipped)

    def test_missing_speaker_column_is_fine(self):
        text = manifest_text(
            [("u1", "a.wav", 10, "1 2")], columns=("id", "audio", "n_frames", "tgt_text")
        )
        result = parse_manifest(text)
        assert result.utterances[0].speaker_id is None

    def test_column_order_free(self):
        text = manifest_text(
            [("3 4", "u9", 7, "x.wav")], columns=("tgt_text", "id", "n_frames", "audio")
        )
        utt = parse_manifest(text).utterances[0]
        assert utt.id == "u9" and utt.audio_ref == "x.wav" and utt.target == (3, 4)

    def test_asr_normalized_mode_normalizes(self):
        text = manifest_text([("u1", "a.wav", 10, "Hello, World!", "s")])
        utt = parse_manifest(text, mode="asr-normalized").utterances[0]
        assert utt.target == "hello world"

    def test_asr_normalized_empty_after_cleanup_skipped(self):
        text = manifest_text([("u1", "a.wav", 10, "?!...", "s")])
        result = parse_manifest(text, mode="asr-normalized")
        assert result.utterances == []

    def test_accepts_file_object(self):
        text = manifest_text([("u1", "a.wav", 10, "1", "s")])
        result = parse_manifest(io.StringIO(text))
        assert len(result.utterances) == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(ManifestError):
            parse_manifest("id\taudio\tn_frames\ttgt_text\n", mode="words")


class TestNormalize:
    def test_punctuation_removed(self):
        assert normalize_target("Hello, World!") == "hello world"

    def test_inverted_marks_removed_accents_kept(self):
        assert normalize_target("¿Qué tal?") == "qué tal"

    def test_whitespace_collapsed(self):
        assert normalize_target("A  B\tC") == "a b c"

    def test_typographic_quotes_and_dashes(self):
        assert normalize_target("“yes” — ‘no’") == "yes no"

    def test_idempotent_on_random_text(self):
        rng = np.random.default_rng(7)
        alphabet = list("abcXYZ123 ,.!?¿¡«»–—'\"\t éü")
        for _ in range(200):
            s = "".join(rng.choice(alphabet, size=rng.integers(0, 40)))
            once = normalize_target(s)
            assert normalize_target(once) == once


class TestRoundTrip:
    def test_parse_serialize_identity(self):
        rows = [
            ("u1", "a.wav", 10, "1 2 3", "spk_a"),
            ("u2", "b.wav", 20, "4", ""),
            ("u3", "c.wav", 30, "5 6", "spk_b"),
        ]
        first = parse_manifest(manifest_text(rows)).utterances
        second = parse_manifest(serialize_manifest(first)).utterances
        assert first == second

    def test_text_mode_round_trip(self):
        rows = [("u1", "a.wav", 10, "Voilà, c'est ça!", "s")]
        first = parse_manifest(manifest_text(rows), mode="asr-normalized").utterances
        second = parse_manifest(serialize_manifest(first), mode="asr-normalized").utterances
        assert first == second

    def test_tab_inside_field_rejected_on_serialize(self):
        from concat_augment.manifest import Utterance

        bad = Utterance(id="u\t1", audio_ref="a.wav", n_frames=1, target=(1,))
        with pytest.raises(ManifestError):
            serialize_manifest([bad])


class TestSpeakerIndex:
    def test_three_utterances_two_speakers(self):
        rows = [
            ("u1", "a.wav", 10, "1", "a"),
            ("u2", "b.wav", 10, "1", "a"),
            ("u3", "c.wav", 10, "1", "b"),
        ]
        utts = parse_manifest(manifest_text(rows)).utterances
        idx = build_speaker_index(utts)
        assert idx.groups == {"a": ["u1", "u2"], "b": ["u3"]}
        assert idx.singletons == ["b"]

    def test_empty_corpus(self):
        idx = build_speaker_index([])
        assert idx.groups == {} and idx.singletons == []

    def test_group_sizes_sum_to_corpus(self):
        # 1000 synthetic utterances over 10 speakers: brute-force recount
        rng = np.random.default_rng(11)
        rows = [
            (f"u{i}", "x.wav", 5, "1", f"spk{rng.integers(0, 10)}") for i in range(1000)
        ]
        utts = parse_manifest(manifest_text(rows)).utterances
        idx = build_speaker_index(utts)
        assert sum(len(ids) for ids in idx.groups.values()) == 1000

    def test_partition_property_with_speakerless(self):
        rng = np.random.default_rng(13)
        rows = []
        for i in range(300):
            speaker = "" if rng.random() < 0.2 else f"spk{rng.integers(0, 7)}"
            rows.append((f"u{i}", "x.wav", 5, "1", speaker))
        result = parse_manifest(manifest_text(rows))
        idx = build_speaker_index(result.utterances)
        grouped = sum(len(ids) for ids in idx.groups.values())
        speakerless = sum(1 for u in result.utterances if u.speaker_id is None)
        assert grouped + speakerless == len(result.utterances)
        # every labeled utterance lands in exactly one group
        all_grouped = [uid for ids in idx.groups.values() for uid in ids]
        assert len(all_grouped) == len(set(all_grouped))


class TestIngestionReport:
    def test_fields(self):
        rows = [
            ("u1", "a.wav", 10, "1", "a"),
            ("u2", "b.wav", 0, "1", "a"),
            ("u3", "c.wav", 10, "1", ""),
            ("u4", "d.wav", 10, "1", "b"),
        ]
        result = parse_manifest(manifest_text(rows))
        report = ingestion_report(result, build_speaker_index(result.utterances))
        assert report == {
            "accepted": 3,
            "skipped": 1,
            "speakerless": 1,
            "singleton_speakers": 2,
        }
