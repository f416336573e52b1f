"""Training-manifest ingestion.

Manifests are UTF-8 TSV files with a header row. Required columns:
``id``, ``audio``, ``n_frames``, ``tgt_text``; optional: ``speaker``,
``src_text``. Column order is free; lookup is by header name. There is
no quoting or escaping, so tabs are forbidden inside fields.

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
"""

from __future__ import annotations

import io
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Union

from .errors import ManifestError

CORPUS_MODES = ("tokens", "asr-normalized")

REQUIRED_COLUMNS = ("id", "audio", "n_frames", "tgt_text")
OPTIONAL_COLUMNS = ("speaker", "src_text")

Target = Union[tuple[int, ...], str]

# ASCII punctuation plus guillemets, inverted marks, en/em dashes and
# typographic quotes. Fixed set: reproducibility beats locale fidelity.
_EXTRA_PUNCTUATION = "«»¿¡–—‘’“”"
PUNCTUATION_CHARS = string.punctuation + _EXTRA_PUNCTUATION
_PUNCT_TABLE = {ord(c): None for c in PUNCTUATION_CHARS}


@dataclass(frozen=True)
class Utterance:
    """One manifest row: an audio-text pair with optional speaker label."""

    id: str
    audio_ref: str
    n_frames: int
    target: Target
    speaker_id: str | None = None


@dataclass(frozen=True)
class SpeakerIndex:
    """Partition of speaker-labeled utterances into per-speaker groups."""

    groups: dict[str, list[str]]
    singletons: list[str]

    def __len__(self) -> int:
        return len(self.groups)


@dataclass
class ParseResult:
    """Accepted utterances plus per-row skip diagnostics."""

    utterances: list[Utterance]
    skipped: list[tuple[int, str]] = field(default_factory=list)


def normalize_target(text: str) -> str:
    """Lowercase, strip the fixed punctuation set, collapse whitespace.

    Total and idempotent: normalize(normalize(x)) == normalize(x).
    """
    cleaned = text.translate(_PUNCT_TABLE).lower()
    return " ".join(cleaned.split())


def _parse_target(raw: str, mode: str) -> Target:
    if mode == "tokens":
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
    return normalize_target(raw)


def parse_manifest(stream: IO[str] | Iterable[str] | str, mode: str = "tokens") -> ParseResult:
    """Parse a TSV manifest into utterances.

    ``stream`` is an open text file, an iterable of lines, or the TSV
    content itself. Malformed headers and duplicate ids raise
    :class:`ManifestError`; bad rows (unparseable or non-positive
    ``n_frames``, empty target, a token id outside u32, wrong field
    count) are skipped with a per-row diagnostic. Accepted rows keep
    their input order.
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
    columns = header_line.rstrip("\r\n").split("\t")
    missing = [c for c in REQUIRED_COLUMNS if c not in columns]
    if missing:
        raise ManifestError(f"manifest header is missing required columns: {missing}")
    col = {name: i for i, name in enumerate(columns)}

    utterances: list[Utterance] = []
    skipped: list[tuple[int, str]] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines, start=2):
        line = line.rstrip("\r\n")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != len(columns):
            skipped.append((lineno, f"expected {len(columns)} fields, got {len(fields)}"))
            continue

        utt_id = fields[col["id"]]
        if utt_id in seen:
            raise ManifestError(f"duplicate utterance id {utt_id!r} at line {lineno}")

        try:
            n_frames = int(fields[col["n_frames"]])
        except ValueError:
            skipped.append((lineno, f"unparseable n_frames {fields[col['n_frames']]!r}"))
            continue
        if n_frames <= 0:
            skipped.append((lineno, f"non-positive n_frames {n_frames}"))
            continue

        try:
            target = _parse_target(fields[col["tgt_text"]], mode)
        except ValueError as exc:
            skipped.append((lineno, f"bad target: {exc}"))
            continue
        if len(target) == 0:
            skipped.append((lineno, "empty target"))
            continue

        speaker = fields[col["speaker"]] if "speaker" in col else ""
        seen.add(utt_id)
        utterances.append(
            Utterance(
                id=utt_id,
                audio_ref=fields[col["audio"]],
                n_frames=n_frames,
                target=target,
                speaker_id=speaker or None,
            )
        )
    return ParseResult(utterances=utterances, skipped=skipped)


def load_manifest(path: str | Path, mode: str = "tokens") -> ParseResult:
    with open(path, "r", encoding="utf-8") as f:
        return parse_manifest(f, mode)


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


def build_speaker_index(utterances: Iterable[Utterance]) -> SpeakerIndex:
    """Group utterance ids by exact speaker_id equality.

    Utterances without a speaker label are excluded from every group;
    the ingestion report counts them.
    """
    groups: dict[str, list[str]] = {}
    for utt in utterances:
        if utt.speaker_id is None:
            continue
        groups.setdefault(utt.speaker_id, []).append(utt.id)
    singletons = [spk for spk, ids in groups.items() if len(ids) == 1]
    return SpeakerIndex(groups=groups, singletons=singletons)


def ingestion_report(result: ParseResult, index: SpeakerIndex) -> dict:
    """JSON-ready summary: {accepted, skipped, speakerless, singleton_speakers}."""
    speakerless = sum(1 for u in result.utterances if u.speaker_id is None)
    return {
        "accepted": len(result.utterances),
        "skipped": len(result.skipped),
        "speakerless": speakerless,
        "singleton_speakers": len(index.singletons),
    }
