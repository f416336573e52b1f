"""Property tests: the column parser accepts, skips and rejects exactly as
the row-at-a-time reference in ``manifest_oracle``, over drawn manifests
given as text, as a file and as a list of lines."""

import ast
import io
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
# so it is given them marked unparseable (see ``mark_big_counts``).
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


_MARKED = re.compile(r"unparseable n_frames ('#.*')")


def _too_big(count):
    """Whether ``int``, as the reference reads a count, reads 2**63 or more."""
    try:
        return int(count) >= 2**63
    except ValueError:
        return False


def mark_big_counts(lines):
    """``lines``, a source's lines as it yields them, with a '#' before
    each ``n_frames`` field that the reference reads as a count of 2**63
    or more, so the reference skips that row as unparseable. Fields
    are found as the reference finds them: the header line names the
    columns, and a row is its line without its ending, split at tabs.
    Where a source ends a line decides which field a count lands in (a
    ``\\x1c`` ends a line only in a list of ``splitlines`` lines), so a
    digit run in any other field is left as it is."""
    columns = lines[0].rstrip("\r\n").split("\t")
    at = {name: i for i, name in enumerate(columns)}.get("n_frames")
    if at is None:  # the reference rejects the header
        return lines
    marked = lines[:1]
    for line in lines[1:]:
        row = line.rstrip("\r\n")
        fields = row.split("\t")
        if len(fields) == len(columns) and _too_big(fields[at]):
            fields[at] = "#" + fields[at]
        marked.append("\t".join(fields) + line[len(row) :])
    return marked


def oracle_outcome(parse, source, mode):
    """The reference's outcome on a source whose big counts are marked,
    with each marked count's skip read as the parser words it."""
    result = outcome(parse, source, mode)
    if result[0] == "error":
        return result
    utterances, skipped = result
    for i, (line, message) in enumerate(skipped):
        if marked := _MARKED.fullmatch(message):
            count = int(ast.literal_eval(marked[1])[1:])
            skipped[i] = line, f"n_frames {count} does not fit in 64 bits"
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
# a "\x1c" ends a line only in the list of lines, which moves a big
# count out of n_frames into the audio field of an accepted row
@example(
    "id\tsrc_text\taudio\tn_frames\ttgt_text\nu0\t\tu0.wav\t1\t\nu0\t\tu0.wav\t1\t\n\n"
    "u0\t\tu0.wav\t1\t\nu3\t\x1c\tu3.wav\t9223372036854775808\t7\tz\n",
    "asr-normalized",
    1,
)
def test_parser_matches_the_row_loop(text, mode, chunk_rows):
    # each source's lines: a string and a file as the parser reads them
    # (only "\n" ends a string's line; open() also ends one at "\r"), and
    # the list of lines as given
    lines = text.splitlines(keepends=True)
    marked = "".join(mark_big_counts(list(io.StringIO(text))))
    marked_file = "".join(mark_big_counts(list(io.StringIO(text, newline=""))))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        manifest, "_CHUNK_ROWS", chunk_rows
    ):
        path, marked_path = Path(tmp) / "train.tsv", Path(tmp) / "marked.tsv"
        path.write_bytes(text.encode("utf-8"))
        marked_path.write_bytes(marked_file.encode("utf-8"))
        for parse, oracle, source, oracle_source in [
            (parse_manifest, manifest_oracle.parse_manifest, text, marked),
            (parse_manifest, manifest_oracle.parse_manifest, lines, mark_big_counts(lines)),
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
