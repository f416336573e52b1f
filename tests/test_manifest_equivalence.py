"""Property tests: the column parser accepts, skips and rejects exactly as
the row-at-a-time reference in ``manifest_oracle``, over drawn manifests
given as text, as a file and as a list of lines."""

import ast
import re
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from concat_augment import manifest
from concat_augment.errors import ManifestError
from concat_augment.manifest import load_manifest, normalize_targets, parse_manifest

import manifest_oracle

MODES = ("tokens", "asr-normalized")
COLUMNS = ("id", "audio", "n_frames", "tgt_text")

# Typographic marks the normalizer strips, Greek capital sigma (its
# lowercase depends on the letters around it), a soft hyphen and a BOM
# (case-ignorable, so the sigma context looks through them), and
# whitespace that str.split() splits on but that ends no manifest line.
TEXT = st.text(
    alphabet="aZé ΣσςΑ.,'!«»¿¡–—‘’“”\u00ad\ufeff\x85\u2028\x1c\x0b\r7",
    max_size=8,
)
TOKEN = st.sampled_from(["0", "7", "-1", "x", str(2**32 - 1), str(2**32), "+3", "1_0"])
TOKENS = st.lists(TOKEN, max_size=4).flatmap(
    lambda toks: st.sampled_from([" ", "  ", "\x1c", "\u2028"]).map(lambda sep: sep.join(toks))
)
# Counts of 2**63 and above are skipped rows; the reference accepts them,
# so it is given them marked unparseable (see ``oracle_outcome``).
N_FRAMES = st.sampled_from(
    ["1", "12", "0", "-3", "x", "", " 5", "+4", "1_0", "٣", "4" * 18, str(2**63 - 1)]
    + [str(2**63), "+" + str(2**63), str(2**64 + 5)]
)
SPEAKERS = st.sampled_from(["", "a", "b", "Σ"])
ENDINGS = st.sampled_from(["\n", "\n", "\r\n", "\r"])


@st.composite
def manifests(draw):
    """TSV text, with rows of drawn fields, some with a field too many or
    too few, ids that repeat, blank lines and mixed line endings."""
    columns = list(COLUMNS)
    if draw(st.booleans()):
        columns.append("speaker")
    if draw(st.booleans()):
        columns.append("src_text")
    columns = draw(st.permutations(columns))
    lines = ["\t".join(columns)]
    ids = []
    for i in range(draw(st.integers(0, 16))):
        if ids and draw(st.integers(0, 4)) == 0:
            utt_id = draw(st.sampled_from(ids))
        else:
            utt_id = f"u{i}"
        ids.append(utt_id)
        values = {
            "id": utt_id,
            "audio": f"{utt_id}.wav",
            "n_frames": draw(N_FRAMES),
            "tgt_text": draw(st.one_of(TEXT, TOKENS)),
            "speaker": draw(SPEAKERS),
            "src_text": draw(TEXT),
        }
        fields = [values[name] for name in columns]
        extra = draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
        fields = fields + ["z"] if extra > 0 else fields[:extra] if extra < 0 else fields
        lines.append("\t".join(fields))
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
    text = "".join(line + draw(ENDINGS) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def outcome(parse, source, mode):
    try:
        result = parse(source, mode)
    except ManifestError as exc:
        return "error", str(exc)
    return list(result.utterances), result.skipped


# A frame count that needs 19 digits or more; no other drawn field has a
# run of digits that long.
_LONG_COUNT = re.compile(r"(?<![\d-])\+?\d{19,}")
_MARKED = re.compile(r"unparseable n_frames ('.*#.*')")


def mark_big_counts(text):
    """``text`` with a '#' before each frame count of 2**63 or more."""
    return _LONG_COUNT.sub(lambda m: "#" * (int(m[0]) >= 2**63) + m[0], text)


def oracle_outcome(parse, source, mode):
    """The reference's outcome on a source whose big counts are marked,
    with each marked count's skip read as the parser words it. A marked
    field that is not a number (a ``\\r`` that ends no line joined the
    count to the next row's text) is read as unparseable, mark removed."""
    result = outcome(parse, source, mode)
    if result[0] == "error":
        return result
    utterances, skipped = result
    for i, (line, message) in enumerate(skipped):
        if marked := _MARKED.fullmatch(message):
            field = ast.literal_eval(marked[1]).replace("#", "")
            try:
                message = f"n_frames {int(field)} does not fit in 64 bits"
            except ValueError:
                message = f"unparseable n_frames {field!r}"
            skipped[i] = line, message
    return utterances, skipped


H = "id\taudio\tn_frames\ttgt_text\tspeaker\n"


@settings(max_examples=400, deadline=None)
@given(manifests(), st.sampled_from(MODES), st.sampled_from([1, 3, 8192]))
# a chunk of 3 with no accepted row; a skipped 2**63 count whose id a later row reuses
@example(
    H
    + "u1\ta\tx\t1\ts\nu2\ta\t3\t\ts\nu3\ta\n"
    + f"u4\ta\t{2**63}\t1\ts\nu4\ta\t3\t1\ts\nu5\ta\t+{2**64}\t1\n",
    "tokens",
    3,
)
# a duplicate of a skipped row's id is accepted
@example(H + "u1\ta\tx\t1\ts\nu1\ta\t3\t1\ts\n", "tokens", 1)
# a skipped row that duplicates an accepted id is fatal
@example(H + "u1\ta\t3\t1\ts\nu1\ta\t-3\t1\ts\n", "tokens", 1)
# u32 bounds; a target that normalizes to empty
@example(H + f"u1\ta\t3\t{2**32 - 1}\ts\nu2\ta\t3\t{2**32}\ts\n", "tokens", 8192)
@example(H + "u1\ta\t3\t?! —\ts\nu2\ta\t3\tAΣ\u00ad.\ts\n", "asr-normalized", 8192)
def test_parser_matches_the_row_loop(text, mode, chunk_rows):
    marked = mark_big_counts(text)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        manifest, "_CHUNK_ROWS", chunk_rows
    ):
        path, marked_path = Path(tmp) / "train.tsv", Path(tmp) / "marked.tsv"
        path.write_bytes(text.encode("utf-8"))
        marked_path.write_bytes(marked.encode("utf-8"))
        for parse, oracle, source, oracle_source in [
            (parse_manifest, manifest_oracle.parse_manifest, text, marked),
            (
                parse_manifest,
                manifest_oracle.parse_manifest,
                text.splitlines(keepends=True),
                marked.splitlines(keepends=True),
            ),
            (load_manifest, manifest_oracle.load_manifest, path, marked_path),
        ]:
            expected = oracle_outcome(oracle, oracle_source, mode)
            assert outcome(parse, source, mode) == expected


# Texts that are ASCII once the marks are gone take the path that skips
# the per-text whitespace pass unless their spaces need collapsing. A
# punctuation-only text is an empty line between its neighbours there.
NORMALIZE_TEXT = st.one_of(
    st.text(alphabet="aZ. —", max_size=6),
    st.text(alphabet="aZ.— \t\n\x0c\x1f", max_size=6),
    st.text(alphabet="aZΣ.—\u00ad\x85\u2028\x1c\n ", max_size=6),
    st.text(alphabet="a?. \x01\x7f", max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(NORMALIZE_TEXT, max_size=6))
@example(["a b", "?!", "c d"])
@example(["?", "a", "."])
@example(["a\x01b", "c\x01 d"])
@example([" a", "b"])
@example(["a", "b "])
@example(["a", " ", "b"])
@example(["a b", "c\n d"])
def test_normalize_targets_matches_one_at_a_time(texts):
    assert normalize_targets(texts) == [manifest_oracle.normalize_target(t) for t in texts]
