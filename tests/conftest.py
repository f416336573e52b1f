"""Shared fixtures: synthetic manifests, on-disk audio corpora and a check
that no test leaves a thread running."""

from __future__ import annotations

import threading
from pathlib import Path

import numpy as np
import pytest

from concat_augment import checksum
from concat_augment.features import FeatureConfig
from concat_augment.manifest import Corpus, Utterance


def manifest_text(rows, columns=("id", "audio", "n_frames", "tgt_text", "speaker")) -> str:
    lines = ["\t".join(columns)]
    lines += ["\t".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def synth_utterances(
    n: int,
    n_speakers: int,
    frames_lo: int,
    frames_hi: int,
    rng: np.random.Generator,
    speakerless_every: int = 0,
    tokens_per_target: int = 4,
) -> Corpus:
    """In-memory corpus with token targets; no audio behind the refs."""
    utts = []
    for i in range(n):
        speaker = None
        if speakerless_every == 0 or i % speakerless_every != 0:
            speaker = f"spk{i % n_speakers:03d}" if n_speakers > 0 else None
        target = tuple(int(t) for t in rng.integers(0, 500, size=tokens_per_target))
        utts.append(
            Utterance(
                id=f"u{i:06d}",
                audio_ref=f"u{i:06d}.npy",
                n_frames=int(rng.integers(frames_lo, frames_hi + 1)),
                target=target,
                speaker_id=speaker,
            )
        )
    return Corpus.from_utterances(utts)


def pcm_samples_for_frames(n_frames: int, cfg: FeatureConfig) -> int:
    return cfg.win_samples + (n_frames - 1) * cfg.hop_samples


def write_audio_corpus(
    root: Path,
    n: int,
    rng: np.random.Generator,
    frames_lo: int = 5,
    frames_hi: int = 50,
    n_speakers: int = 10,
    cfg: FeatureConfig | None = None,
) -> Path:
    """Write .npy PCM clips plus a matching TSV manifest; returns its path."""
    if cfg is None:
        cfg = FeatureConfig()
    root.mkdir(parents=True, exist_ok=True)
    rows = []
    for i in range(n):
        n_frames = int(rng.integers(frames_lo, frames_hi + 1))
        pcm = rng.uniform(-0.5, 0.5, size=pcm_samples_for_frames(n_frames, cfg))
        name = f"u{i:06d}.npy"
        np.save(root / name, pcm.astype(np.float64))
        target = " ".join(str(int(t)) for t in rng.integers(0, 500, size=4))
        rows.append((f"u{i:06d}", name, n_frames, target, f"spk{i % n_speakers:03d}"))
    manifest_path = root / "train.tsv"
    manifest_path.write_text(manifest_text(rows), encoding="utf-8")
    return manifest_path


@pytest.fixture
def small_audio_corpus(tmp_path):
    rng = np.random.default_rng(1234)
    manifest_path = write_audio_corpus(tmp_path / "corpus", 12, rng, n_speakers=3)
    return manifest_path


@pytest.fixture
def zlib_crc32(monkeypatch):
    """Every CRC computed by zlib, as on a platform without libdeflate."""
    monkeypatch.setattr(checksum, "_libdeflate_crc32", None)


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread it started still running."""
    before = set(threading.enumerate())
    yield
    left = [thread for thread in threading.enumerate() if thread not in before]
    assert not left, f"threads left running: {left}"
