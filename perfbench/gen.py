"""Seeded input generator for the benchmark.

Writes the two inputs the workloads run on: a corpus of 16-bit mono WAV
utterances with a token-mode manifest (``cold`` and ``warm``), and a
large text manifest in ``asr-normalized`` mode whose audio is never
read (``audit``). The same seed always writes the same bytes.

The shape of each input is fixed and only its contents move with the
seed, so two seeds cost about the same work:

* utterance lengths are the quantiles of one skewed distribution
  (mostly under two seconds, a tail of long ones), dealt out in a
  seeded order;
* the number of speakers, missing audio files and malformed rows is
  fixed; which rows they hit is seeded.
"""

from __future__ import annotations

import wave
from pathlib import Path

import numpy as np

SAMPLE_RATE_HZ = 16000
WIN_SAMPLES = 400  # 25 ms at 16 kHz, the package's default FeatureConfig
HOP_SAMPLES = 160  # 10 ms

HEADER = "id\taudio\tn_frames\ttgt_text\tspeaker"

# One malformed row of each kind the manifest parser skips.
_MALFORMED = (
    "{id}\t{audio}\tnot-a-number\t1 2 3\t{spk}",
    "{id}\t{audio}\t0\t1 2 3\t{spk}",
    "{id}\t{audio}\t120\t\t{spk}",
    "{id}\t{audio}\t120\t1 2 3",
)

_WORDS = (
    "the of and to in is that it was for on are as with his they at be this from "
    "have or by one had not but what all were when we there can an your which their "
    "said if do will each about how up out them then she many some so these would "
    "other into has more her two like him see time could no make than first been its "
    "who now people my made over did down only way find use may water long little "
    "very after words called just where most know get through back much before go "
    "good new write our used me man too any day same right look think also around "
    "another came come work three word must because does part even place well such"
).split()
_PUNCT = (",", ".", "!", "?", ";", ":", "—", "”", "'s", "")


def frame_lengths(
    n: int, median_frames: float, sigma: float, lo: int, tail: tuple[int, int, int] = (0, 0, 0)
) -> np.ndarray:
    """The n quantiles of a log-normal length distribution, in frames.

    No length is below ``lo``. ``tail = (k, first, last)`` replaces the k
    longest with lengths spread evenly from ``first`` to ``last``.
    Deterministic: the seed only decides which utterance gets which length.
    """
    from statistics import NormalDist

    z = np.array([NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)])
    lengths = np.maximum(np.round(median_frames * np.exp(sigma * z)), lo).astype(np.int64)
    k, first, last = tail
    if k:
        lengths[-k:] = np.round(np.linspace(first, last, k))
    return lengths


def _pick(rng: np.random.Generator, n: int, k: int, exclude=()) -> list[int]:
    pool = np.setdiff1d(np.arange(n), np.asarray(list(exclude), dtype=np.int64))
    return sorted(int(i) for i in rng.choice(pool, size=k, replace=False))


def _write_wav(path: Path, pcm: np.ndarray) -> None:
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(SAMPLE_RATE_HZ)
        wav.writeframes(pcm.astype("<i2").tobytes())


def write_wav_corpus(
    root: Path,
    seed: int,
    n: int,
    n_speakers: int,
) -> Path:
    """Write ``n`` WAV utterances plus ``train.tsv`` under ``root``.

    Lengths have a median of 0.8 s and a mean near 1.4 s; the longest 1%
    run from 18 s to 29.9 s, so some of their concatenations exceed the
    default 3000-frame filter. About 1% of the rows name a WAV file that
    is never written, and one malformed row of each skipped kind is
    mixed in. Audio refs are relative to ``root``. Returns the manifest
    path.
    """
    rng = np.random.default_rng([seed, 1])
    wav_dir = root / "wav"
    wav_dir.mkdir(parents=True, exist_ok=True)
    tail = (max(1, n // 100), 1800, 2990)
    lengths = rng.permutation(frame_lengths(n, 80.0, 0.8, 20, tail))
    speakers = rng.integers(0, n_speakers, size=n)
    missing = set(_pick(rng, n, max(1, n // 100)))
    malformed_at = _pick(rng, n, len(_MALFORMED))

    rows = [HEADER]
    for i in range(n):
        utt_id = f"u{i:05d}"
        audio = f"wav/{utt_id}.wav"
        n_frames = int(lengths[i])
        if i not in missing:
            samples = WIN_SAMPLES + (n_frames - 1) * HOP_SAMPLES
            amplitude = 2000.0 + 6000.0 * rng.random()
            _write_wav(root / audio, rng.normal(0.0, amplitude, size=samples).clip(-32768, 32767))
        n_tokens = max(1, n_frames // 25)
        tokens = " ".join(str(t) for t in rng.integers(1, 1000, size=n_tokens))
        rows.append(f"{utt_id}\t{audio}\t{n_frames}\t{tokens}\tspk{int(speakers[i]):03d}")
        if i in malformed_at:
            template = _MALFORMED[malformed_at.index(i)]
            rows.append(template.format(id=f"bad{i:05d}", audio=audio, spk="spk000"))
    manifest = root / "train.tsv"
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return manifest


def write_text_manifest(
    path: Path,
    seed: int,
    n: int,
    n_speakers: int,
) -> Path:
    """Write an ``n``-row ``asr-normalized`` manifest to ``path``.

    Transcripts are mixed-case words with punctuation to strip; about 1%
    of the rows have no speaker and 0.1% are malformed. No audio exists
    behind the refs: only ``audit`` reads this manifest.
    """
    rng = np.random.default_rng([seed, 2])
    path.parent.mkdir(parents=True, exist_ok=True)
    lengths = rng.permutation(frame_lengths(n, 300.0, 0.6, 20))
    speakers = rng.integers(0, n_speakers, size=n)
    speakerless = set(_pick(rng, n, n // 100))
    malformed = set(_pick(rng, n, n // 1000, exclude=speakerless))
    words = rng.integers(0, len(_WORDS), size=(n, 24))
    marks = rng.integers(0, len(_PUNCT), size=(n, 24))
    capital = rng.random((n, 24)) < 0.15

    rows = [HEADER]
    for i in range(n):
        n_frames = int(lengths[i])
        n_words = min(24, 2 + n_frames // 40)
        text = " ".join(
            (_WORDS[w].capitalize() if c else _WORDS[w]) + _PUNCT[m]
            for w, m, c in zip(words[i, :n_words], marks[i, :n_words], capital[i, :n_words])
        )
        spk = "" if i in speakerless else f"spk{int(speakers[i]):04d}"
        row = f"t{i:06d}\taudio/t{i:06d}.wav\t{n_frames}\t{text}\t{spk}"
        if i in malformed:
            row = _MALFORMED[i % len(_MALFORMED)].format(
                id=f"t{i:06d}", audio=f"audio/t{i:06d}.wav", spk=spk
            )
        rows.append(row)
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path
