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
"""

from __future__ import annotations

import io
import string
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

import numpy as np

from .errors import ManifestError

CORPUS_MODES = ("tokens", "asr-normalized")

REQUIRED_COLUMNS = ("id", "audio", "n_frames", "tgt_text")
OPTIONAL_COLUMNS = ("speaker", "src_text")

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
    ASCII, words separated by one space, no space at either end."""
    return (
        text.isascii()
        and not any(space in text for space in _OTHER_ASCII_SPACE)
        and "  " not in text
        and " \n" not in text
        and "\n " not in text
        and not text.startswith(" ")
        and not text.endswith(" ")
    )


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


def _parse_targets(raw: list[str], mode: str) -> list[Target | ValueError]:
    """Each raw target parsed, or the error that makes its row a bad target."""
    if mode == "asr-normalized":
        return normalize_targets(raw)
    parsed: list[Target | ValueError] = []
    for text in raw:
        try:
            parsed.append(_token_ids(text))
        except ValueError as exc:
            parsed.append(exc)
    return parsed


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
        rows = [line.rstrip("\r\n").split("\t") for line in chunk]
        raw_targets = [fields[i_target] if len(fields) == width else "" for fields in rows]
        parsed = _parse_targets(raw_targets, mode)
        for lineno, (fields, target) in enumerate(zip(rows, parsed), start=first):
            if len(fields) != width:
                if fields != [""]:  # a blank line is no row
                    skipped.append((lineno, f"expected {width} fields, got {len(fields)}"))
                continue
            utt_id = fields[i_id]
            if utt_id in seen:
                raise ManifestError(f"duplicate utterance id {utt_id!r} at line {lineno}")
            try:
                frames = int(fields[i_frames])
            except ValueError:
                skipped.append((lineno, f"unparseable n_frames {fields[i_frames]!r}"))
                continue
            if frames <= 0:
                skipped.append((lineno, f"non-positive n_frames {frames}"))
                continue
            if frames >= 2**63:
                skipped.append((lineno, f"n_frames {frames} does not fit in 64 bits"))
                continue
            if isinstance(target, ValueError):
                skipped.append((lineno, f"bad target: {target}"))
                continue
            if len(target) == 0:
                skipped.append((lineno, "empty target"))
                continue
            seen.add(utt_id)
            ids.append(utt_id)
            audio_refs.append(fields[i_audio])
            n_frames.append(frames)
            targets.append(target)
            speaker = fields[i_speaker] if i_speaker is not None else ""
            codes.append(code_of.setdefault(speaker, len(code_of) - 1))
        first += len(chunk)

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


def serialize_manifest(utterances: Iterable[Utterance]) -> str:
    """Write utterances back to TSV. parse(serialize(x)) == x on accepted rows."""
    out = ["\t".join(REQUIRED_COLUMNS + ("speaker",))]
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
