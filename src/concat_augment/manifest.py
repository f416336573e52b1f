"""Training-manifest ingestion.

Manifests are UTF-8 TSV files with a header row. Required columns:
``id``, ``audio``, ``n_frames``, ``tgt_text``; optional: ``speaker``,
``src_text``. Column order is free; lookup is by header name. There is
no quoting or escaping, so tabs are forbidden inside fields. One
leading byte-order mark is ignored.

Two corpus modes are supported:

* ``tokens``: ``tgt_text`` holds space-separated non-negative integer
  token ids (pre-tokenized corpora).
* ``asr-normalized``: ``tgt_text`` holds raw transcription text that is
  lowercased and stripped of punctuation on ingest, so accepted
  utterances always satisfy the normalized-text invariant.

The punctuation set removed by :func:`normalize_target` is fixed and
documented (ASCII punctuation plus a small set of common typographic
marks) rather than locale-dependent, so results are reproducible across
platforms. Language-specific intra-word apostrophes (French "l'eau")
are removed like any other punctuation; corpora that need different
behavior should pre-normalize and use ``tokens`` mode.

A manifest is parsed into a :class:`Corpus`: one column per field,
frame counts and speaker codes as arrays. An :class:`Utterance` is
built only when a row is read.

The parser reads a chunk of rows at a time and screens it in bulk. The
rows with every field are joined with tabs and split once, so each
column is a slice of one list. The frame counts and targets give one
accept flag per row, and each column keeps the accepted rows. Only a
skipped row gets a diagnostic, and only a chunk that repeats an id is
walked row by row, to find the first duplicate.
"""

from __future__ import annotations

import io
import string
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import compress, count, islice, repeat
from operator import not_
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

import numpy as np

from .errors import ManifestError

CORPUS_MODES = ("tokens", "asr-normalized")

REQUIRED_COLUMNS = ("id", "audio", "n_frames", "tgt_text")

Target = Union[tuple[int, ...], str]

# ASCII punctuation plus guillemets, inverted marks, en/em dashes and
# typographic quotes. Fixed set: reproducibility beats locale fidelity.
_EXTRA_PUNCTUATION = "«»¿¡–—‘’“”"
# ASCII bytes never occur inside a multi-byte UTF-8 sequence, so deleting
# these from UTF-8 text deletes exactly the ASCII punctuation.
_ASCII_PUNCTUATION_UTF8 = string.punctuation.encode("ascii")
# The ASCII characters str.split() splits on, besides the space and the newline.
_OTHER_ASCII_SPACE = "\t\x0b\x0c\r\x1c\x1d\x1e\x1f"

# Rows parsed per pass of the parser: the raw fields of one chunk are
# all that is held beside the columns.
_CHUNK_ROWS = 8192
# The first frame count an int64 cannot hold.
_N_FRAMES_END = 2**63


@dataclass(frozen=True)
class Utterance:
    """One manifest row: an audio-text pair with optional speaker label."""

    id: str
    audio_ref: str
    n_frames: int
    target: Target
    speaker_id: str | None = None


@dataclass(frozen=True, eq=False)
class Corpus(Sequence):
    """Accepted utterances as columns, in manifest order.

    Row ``i`` is utterance ``i``: ``ids[i]``, ``audio_refs[i]``,
    ``n_frames[i]`` (int64), ``targets[i]`` and speaker
    ``speakers[speaker_codes[i]]``, where codes (int32) number the
    speakers in order of first appearance and -1 means no speaker.
    Reading a row builds its :class:`Utterance`; planning, filtering
    and batching read the columns.
    """

    ids: list[str]
    audio_refs: list[str]
    n_frames: np.ndarray
    speaker_codes: np.ndarray
    speakers: list[str]
    targets: list[Target]

    @classmethod
    def from_utterances(cls, utterances: Iterable[Utterance]) -> Corpus:
        utterances = list(utterances)
        code_of: dict[str | None, int] = {None: -1}
        codes = [code_of.setdefault(u.speaker_id, len(code_of) - 1) for u in utterances]
        return cls(
            [u.id for u in utterances],
            [u.audio_ref for u in utterances],
            np.array([u.n_frames for u in utterances], dtype=np.int64),
            np.array(codes, dtype=np.int32),
            list(code_of)[1:],
            [u.target for u in utterances],
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> Utterance:
        code = int(self.speaker_codes[i])
        speaker = self.speakers[code] if code >= 0 else None
        return Utterance(
            self.ids[i], self.audio_refs[i], int(self.n_frames[i]), self.targets[i], speaker
        )

    def __iter__(self) -> Iterator[Utterance]:
        labels = [*self.speakers, None]  # code -1 reads the last entry
        rows = zip(self.ids, self.audio_refs, self.n_frames.tolist(), self.targets)
        for (utt_id, audio_ref, n_frames, target), code in zip(rows, self.speaker_codes.tolist()):
            yield Utterance(utt_id, audio_ref, n_frames, target, labels[code])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return list(self) == list(other)


@dataclass(frozen=True, eq=False)
class SpeakerIndex:
    """A corpus's speaker groups as position arrays.

    ``members`` holds the position of every utterance with a speaker,
    grouped by speaker code and in manifest order within a group;
    ``sizes[c]`` is the size of group ``c``, so group ``c`` is the
    ``sizes[c]`` members that follow the groups before it.
    """

    corpus: Corpus
    members: np.ndarray
    sizes: np.ndarray

    def __len__(self) -> int:
        return len(self.sizes)

    @property
    def groups(self) -> dict[str, list[str]]:
        """Speaker label -> member ids, in order of first appearance."""
        ids = self.corpus.ids
        ends = np.cumsum(self.sizes).tolist()
        members = self.members.tolist()
        return {
            label: [ids[p] for p in members[end - size : end]]
            for label, size, end in zip(self.corpus.speakers, self.sizes.tolist(), ends)
        }

    @property
    def singletons(self) -> list[str]:
        """Labels of the speakers with one utterance."""
        return [self.corpus.speakers[c] for c in np.flatnonzero(self.sizes == 1).tolist()]


@dataclass
class ParseResult:
    """Accepted utterances plus per-row skip diagnostics."""

    utterances: Corpus
    skipped: list[tuple[int, str]] = field(default_factory=list)


def normalize_targets(texts: Sequence[str]) -> list[str]:
    """:func:`normalize_target` of every text, in a few passes over all
    of them at once.

    The texts are joined with newlines; ASCII punctuation is deleted
    from its UTF-8 bytes, the other marks from the decoded text.
    Lowercasing the joined text gives each text's own lowercase, since a
    newline is neither cased nor case-ignorable, and so it bounds the
    final-sigma context as a text's ends do.
    """
    if not texts:
        return []
    joined = "\n".join(texts)
    if joined.count("\n") != len(texts) - 1:
        # a newline inside a text is whitespace like any other
        joined = "\n".join(text.replace("\n", " ") for text in texts)
    text = (
        joined.encode("utf-8", "surrogatepass")
        .translate(None, _ASCII_PUNCTUATION_UTF8)
        .decode("utf-8", "surrogatepass")
    )
    for mark in _EXTRA_PUNCTUATION:
        if mark in text:
            text = text.replace(mark, "")
    lowered = text.lower()
    if _collapsed(lowered):
        return lowered.split("\n")
    return [" ".join(text.split()) for text in lowered.split("\n")]


def _collapsed(text: str) -> bool:
    """Whether each line of ``text`` is already whitespace-collapsed:
    ASCII, words separated by one space, no space at either end. One
    vectorised pass over the bytes finds a space next to a space or a
    newline."""
    if (
        not text.isascii()
        or text.startswith(" ")
        or text.endswith(" ")
        or any(space in text for space in _OTHER_ASCII_SPACE)
    ):
        return False
    codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    space = codes == ord(" ")
    gap = space | (codes == ord("\n"))
    return not (space[1:] & gap[:-1] | gap[1:] & space[:-1]).any()


def normalize_target(text: str) -> str:
    """Lowercase, strip the fixed punctuation set, collapse whitespace.

    Total and idempotent: normalize(normalize(x)) == normalize(x).
    """
    return normalize_targets([text])[0]


def _token_ids(raw: str) -> tuple[int, ...]:
    ids = []
    for tok in raw.split():
        value = int(tok)
        if not 0 <= value < 2**32:
            raise ValueError(
                f"negative token id {value!r}"
                if value < 0
                else f"token id {value} does not fit in 32 bits"
            )
        ids.append(value)
    return tuple(ids)


def _parse_targets(raw: list[str], mode: str) -> tuple[list[Target], dict[int, ValueError]]:
    """The raw targets parsed, and the error of each that is a bad target,
    by index. A bad target parses as ``()``."""
    if mode == "asr-normalized":
        return normalize_targets(raw), {}
    parsed: list[Target] = []
    errors: dict[int, ValueError] = {}
    for i, text in enumerate(raw):
        try:
            parsed.append(_token_ids(text))
        except ValueError as exc:
            parsed.append(())
            errors[i] = exc
    return parsed, errors


def _frame_counts(raw: list[str]) -> list[int]:
    """Each raw ``n_frames`` as an int; 0, which no row accepts, where it
    is not an integer."""
    counts = []
    for text in raw:
        try:
            counts.append(int(text))
        except ValueError:
            counts.append(0)
    return counts


def _false_at(flags: list[bool]) -> Iterator[int]:
    """The indices of the false flags."""
    return compress(count(), map(not_, flags))


def _skip_reason(raw_frames: str, error: ValueError | None) -> str:
    """Why a row with all its fields is skipped: its first failed check."""
    try:
        frames = int(raw_frames)
    except ValueError:
        return f"unparseable n_frames {raw_frames!r}"
    if frames <= 0:
        return f"non-positive n_frames {frames}"
    if frames >= _N_FRAMES_END:
        return f"n_frames {frames} does not fit in 64 bits"
    if error is not None:
        return f"bad target: {error}"
    return "empty target"


def _check_repeats(
    ids: list[str], accept: list[bool], linenos: Sequence[int], seen: set[str]
) -> None:
    """Raise for the first row whose id an earlier accepted row has. For a
    chunk that repeats an id, in itself or from ``seen``: a repeat of a
    skipped row's id is no duplicate."""
    accepted: set[str] = set()
    for utt_id, ok, lineno in zip(ids, accept, linenos):
        if utt_id in seen or utt_id in accepted:
            raise ManifestError(f"duplicate utterance id {utt_id!r} at line {lineno}")
        if ok:
            accepted.add(utt_id)


def parse_manifest(stream: IO[str] | Iterable[str] | str, mode: str = "tokens") -> ParseResult:
    """Parse a TSV manifest into a :class:`Corpus`.

    ``stream`` is an open text file, an iterable of lines, or the TSV
    content itself. Malformed headers and duplicate ids raise
    :class:`ManifestError`; bad rows (an ``n_frames`` that is not an
    integer in [1, 2**63), empty target, a token id outside u32, wrong
    field count) are skipped with a per-row diagnostic. Accepted rows
    keep their input order.
    """
    if mode not in CORPUS_MODES:
        raise ManifestError(f"unknown corpus mode {mode!r}; expected one of {CORPUS_MODES}")
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    lines = iter(stream)

    try:
        header_line = next(lines)
    except StopIteration:
        raise ManifestError("empty manifest: missing header row") from None
    columns = header_line.rstrip("\r\n").removeprefix("\ufeff").split("\t")
    missing = [c for c in REQUIRED_COLUMNS if c not in columns]
    if missing:
        raise ManifestError(f"manifest header is missing required columns: {missing}")
    col = {name: i for i, name in enumerate(columns)}
    width = len(columns)
    i_id, i_audio, i_frames, i_target = (col[name] for name in REQUIRED_COLUMNS)
    i_speaker = col.get("speaker")

    ids: list[str] = []
    audio_refs: list[str] = []
    n_frames: list[int] = []
    codes: list[int] = []
    targets: list[Target] = []
    code_of = {"": -1}
    skipped: list[tuple[int, str]] = []
    seen: set[str] = set()
    first = 2  # the line number of the chunk's first line
    while chunk := list(islice(lines, _CHUNK_ROWS)):
        tabs = list(map(str.count, chunk, repeat("\t")))
        whole = list(map((width - 1).__eq__, tabs))
        rows, linenos, skips = chunk, range(first, first + len(chunk)), []
        if not all(whole):
            skips = [
                (first + j, f"expected {width} fields, got {tabs[j] + 1}")
                for j in _false_at(whole)
                if chunk[j].rstrip("\r\n")  # a blank line is no row
            ]
            rows = list(compress(chunk, whole))
            linenos = list(compress(linenos, whole))
        first += len(chunk)
        if not rows:
            skipped.extend(skips)
            continue
        # No field holds a tab, so the whole rows joined by tabs split
        # into their fields, row after row; each row's line ending is
        # left on its last field.
        flat = "\t".join(rows).split("\t")
        flat[width - 1 :: width] = map(str.rstrip, flat[width - 1 :: width], repeat("\r\n"))
        chunk_ids = flat[i_id::width]
        raw_frames = flat[i_frames::width]
        frames = _frame_counts(raw_frames)
        parsed, errors = _parse_targets(flat[i_target::width], mode)
        accept = [0 < f < _N_FRAMES_END and len(t) > 0 for f, t in zip(frames, parsed)]
        unique = set(chunk_ids)
        if len(unique) != len(chunk_ids) or not seen.isdisjoint(unique):
            _check_repeats(chunk_ids, accept, linenos, seen)
        skips += [
            (linenos[j], _skip_reason(raw_frames[j], errors.get(j))) for j in _false_at(accept)
        ]
        skipped.extend(sorted(skips))
        seen.update(compress(chunk_ids, accept))
        ids.extend(compress(chunk_ids, accept))
        audio_refs.extend(compress(flat[i_audio::width], accept))
        n_frames.extend(compress(frames, accept))
        targets.extend(compress(parsed, accept))
        if i_speaker is None:
            codes.extend(repeat(-1, sum(accept)))
        else:
            labels = list(compress(flat[i_speaker::width], accept))
            for label in dict.fromkeys(labels):
                code_of.setdefault(label, len(code_of) - 1)
            codes.extend(map(code_of.__getitem__, labels))

    corpus = Corpus(
        ids,
        audio_refs,
        np.array(n_frames, dtype=np.int64),
        np.array(codes, dtype=np.int32),
        list(code_of)[1:],
        targets,
    )
    return ParseResult(utterances=corpus, skipped=skipped)


def load_manifest(path: str | Path, mode: str = "tokens") -> ParseResult:
    """Parse the manifest file at ``path``. A byte sequence that is not
    UTF-8 raises :class:`ManifestError` naming the file and its offset."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return parse_manifest(f, mode)
    except UnicodeDecodeError:
        pass
    # The text reader counts offsets from the start of its last read;
    # decoding the whole file gives the offset in the file.
    try:
        Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ManifestError(
            f"manifest {path} is not UTF-8: {exc.reason} at byte offset {exc.start}"
        ) from None
    raise ManifestError(f"manifest {path} changed while it was read")


def build_speaker_index(corpus: Corpus) -> SpeakerIndex:
    """Group a corpus's utterances by speaker code.

    A stable sort of the codes puts the groups in code order with each
    group's members in manifest order. Utterances without a speaker
    label (code -1, so sorted first) are in no group; the ingestion
    report counts them.
    """
    codes = corpus.speaker_codes
    order = np.argsort(codes, kind="stable")
    members = order[np.count_nonzero(codes < 0) :]
    sizes = np.bincount(codes[members], minlength=len(corpus.speakers))
    return SpeakerIndex(corpus, members, sizes)


def ingestion_report(result: ParseResult, index: SpeakerIndex) -> dict:
    """JSON-ready summary: {accepted, skipped, speakerless, singleton_speakers}."""
    return {
        "accepted": len(result.utterances),
        "skipped": len(result.skipped),
        "speakerless": int(np.count_nonzero(result.utterances.speaker_codes < 0)),
        "singleton_speakers": int(np.count_nonzero(index.sizes == 1)),
    }
