"""Reference manifest parser: the earlier row-at-a-time loop.

The library parses a manifest into columns and normalizes every target
in a few passes over all of them. This module keeps the loop it
replaced, as it was: one row at a time, each target normalized on its
own with ``str.translate``, collected into a list of
:class:`Utterance`. For a given manifest both must accept the same
utterances, skip the same rows with the same diagnostics and raise the
same errors. Slow and simple on purpose.
"""

from __future__ import annotations

import io
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable

from concat_augment.errors import ManifestError
from concat_augment.manifest import CORPUS_MODES, REQUIRED_COLUMNS, Target, Utterance

_EXTRA_PUNCTUATION = "«»¿¡–—‘’“”"
PUNCTUATION_CHARS = string.punctuation + _EXTRA_PUNCTUATION
_PUNCT_TABLE = {ord(c): None for c in PUNCTUATION_CHARS}


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
