import io

import numpy as np
import pytest

from concat_augment import cli, manifest
from concat_augment.errors import ManifestError
from concat_augment.manifest import (
    Corpus,
    Utterance,
    build_speaker_index,
    ingestion_report,
    load_manifest,
    normalize_target,
    parse_manifest,
)

from conftest import manifest_text


def serialize_manifest(utterances) -> str:
    """Write utterances back to TSV. parse(serialize(x)) == x on accepted rows."""
    out = ["\t".join(manifest.REQUIRED_COLUMNS + ("speaker",))]
    for utt in utterances:
        if isinstance(utt.target, str):
            tgt = utt.target
        else:
            tgt = " ".join(str(t) for t in utt.target)
        row = (utt.id, utt.audio_ref, str(utt.n_frames), tgt, utt.speaker_id or "")
        for value in row:
            if "\t" in value:
                raise ManifestError(f"tab inside field {value!r} of utterance {utt.id!r}")
        out.append("\t".join(row))
    return "\n".join(out) + "\n"


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
        assert list(result.utterances) == []

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
        assert list(result.utterances) == []
        assert "empty target" in result.skipped[0][1]

    def test_negative_token_id_skipped(self):
        rows = [("u1", "a.wav", 10, "3 -4", "s")]
        result = parse_manifest(manifest_text(rows))
        assert list(result.utterances) == []

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
        assert list(result.utterances) == []

    def test_accepts_file_object(self):
        text = manifest_text([("u1", "a.wav", 10, "1", "s")])
        result = parse_manifest(io.StringIO(text))
        assert len(result.utterances) == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(ManifestError):
            parse_manifest("id\taudio\tn_frames\ttgt_text\n", mode="words")

    def test_n_frames_over_int64_skipped(self):
        rows = [("u1", "a.wav", 2**63, "1", "s"), ("u2", "b.wav", 2**63 - 1, "2", "s")]
        result = parse_manifest(manifest_text(rows))
        assert [u.id for u in result.utterances] == ["u2"]
        assert result.skipped == [(2, f"n_frames {2**63} does not fit in 64 bits")]

    def test_reads_one_chunk_before_it_normalizes(self, monkeypatch):
        drawn = 0

        def lines():
            nonlocal drawn
            drawn += 1
            yield "id\taudio\tn_frames\ttgt_text\n"
            for i in range(3 * manifest._CHUNK_ROWS):
                drawn += 1
                yield f"u{i}\ta.wav\t10\tWord {i}.\n"

        drawn_at_calls = []
        normalize = manifest.normalize_targets

        def counting(texts):
            drawn_at_calls.append(drawn)
            return normalize(texts)

        monkeypatch.setattr(manifest, "normalize_targets", counting)
        result = parse_manifest(lines(), mode="asr-normalized")
        assert len(result.utterances) == 3 * manifest._CHUNK_ROWS
        assert drawn_at_calls[0] <= manifest._CHUNK_ROWS + 1
        assert len(drawn_at_calls) == 3


class TestEncoding:
    def test_byte_order_mark_before_the_header_is_ignored(self, tmp_path):
        text = manifest_text([("u1", "a.wav", 10, "1 2", "s")])
        path = tmp_path / "bom.tsv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        with_bom = load_manifest(path)
        assert list(with_bom.utterances) == list(parse_manifest(text).utterances)
        assert list(parse_manifest("\ufeff" + text).utterances) == list(with_bom.utterances)
        assert with_bom.utterances[0].id == "u1"

    def test_only_one_byte_order_mark_is_ignored(self):
        with pytest.raises(ManifestError, match="missing required columns: \\['id'\\]"):
            parse_manifest("\ufeff\ufeff" + manifest_text([("u1", "a.wav", 10, "1", "s")]))

    def test_invalid_utf8_names_the_file_and_the_byte_offset(self, tmp_path):
        head = manifest_text([("u1", "a.wav", 10, "1 2", "s")]).encode("utf-8")
        path = tmp_path / "bad.tsv"
        path.write_bytes(head + b"u2\tb.wav\t10\t3 \xff\ts\n")
        offset = len(head) + len(b"u2\tb.wav\t10\t3 ")
        with pytest.raises(ManifestError, match=f"{path}.* byte offset {offset}$"):
            load_manifest(path)

    def test_invalid_utf8_past_the_first_read_gives_the_file_offset(self, tmp_path):
        rows = [(f"u{i}", "a.wav", 10, "word " * 20, "s") for i in range(2000)]
        head = manifest_text(rows).encode("utf-8")
        path = tmp_path / "bad.tsv"
        path.write_bytes(head + b"\xc3\n")
        with pytest.raises(ManifestError, match=f"byte offset {len(head)}$"):
            load_manifest(path, mode="asr-normalized")

    def test_cli_reports_invalid_utf8_as_fatal(self, tmp_path, capsys):
        head = b"id\taudio\tn_frames\ttgt_text\nu1\ta.wav\t10\t"
        path = tmp_path / "bad.tsv"
        path.write_bytes(head + b"\xff\n")
        rc = cli.main(["audit", "--manifest", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        reason = f"invalid start byte at byte offset {len(head)}"
        assert err == f"fatal: manifest {path} is not UTF-8: {reason}\n"
        assert "Traceback" not in err


class TestCorpus:
    UTTS = [
        Utterance("u1", "a.wav", 10, (1,), "b"),
        Utterance("u2", "b.wav", 20, (2, 3), None),
        Utterance("u3", "c.wav", 30, (4,), "a"),
        Utterance("u4", "d.wav", 40, (5,), "b"),
    ]

    def test_rows_are_the_utterances(self):
        corpus = Corpus.from_utterances(self.UTTS)
        assert len(corpus) == 4
        assert list(corpus) == self.UTTS
        assert [corpus[i] for i in range(-4, 4)] == self.UTTS * 2
        assert corpus == Corpus.from_utterances(self.UTTS)
        assert corpus != Corpus.from_utterances(self.UTTS[:3])

    def test_columns(self):
        corpus = Corpus.from_utterances(self.UTTS)
        assert corpus.ids == ["u1", "u2", "u3", "u4"]
        assert corpus.n_frames.dtype == np.int64
        assert corpus.n_frames.tolist() == [10, 20, 30, 40]
        # codes in order of first appearance; -1 for no speaker
        assert corpus.speaker_codes.dtype == np.int32
        assert corpus.speaker_codes.tolist() == [0, -1, 1, 0]
        assert corpus.speakers == ["b", "a"]

    def test_speaker_index_positions(self):
        index = build_speaker_index(Corpus.from_utterances(self.UTTS))
        assert index.members.tolist() == [0, 3, 2]
        assert index.sizes.tolist() == [2, 1]
        assert index.groups == {"b": ["u1", "u4"], "a": ["u3"]}
        assert index.singletons == ["a"]


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
        idx = build_speaker_index(Corpus.from_utterances([]))
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
