"""Golden bytes: SHA-256 digests of what ``run``, ``audit`` and
``iter_epoch_batches`` produce for one fixed corpus and config.

Features are written straight into a ``FeatureArchive`` from a seeded
RNG, so no FFT or BLAS arithmetic decides a byte and the digests hold
on any CPU. A refactor that keeps these digests keeps the output
byte-identical; a change that means to alter the output must say why
and record new digests here.
"""

import hashlib
import json

import numpy as np
import pytest

from concat_augment.archive import FeatureArchive
from concat_augment.augment import Strategy
from concat_augment.batchio import encode_batch
from concat_augment.features import FeatureConfig
from concat_augment.pipeline import PipelineConfig, audit, iter_epoch_batches, run
from concat_augment.specaugment import MaskPolicy

from conftest import manifest_text
from test_pipeline import strip_timings

N_BINS = 16
MISSING_ID = "u0005"  # neither an archive record nor an audio file

GOLDEN = {
    "files-self": (
        "44d45f6122323976e69aa5d6df5b3b79bc6d0326b430cdce325ff4736604c390",
        "77e24f8f616c1d9c1cf6520d026f8ec55b71f22e3bb4f42a4036afc9a7b47747",
    ),
    "files-speaker": (
        "03c8ec681f3357155cac4baa29370fd031f6a9a900a28806113466e82843f3fb",
        "10fb13d218ce969bab132db764dab7ef967af578aa946fc9ccd597f64efacc23",
    ),
    "files-random": (
        "ed19acc76721adbddc63e8a9871a840ac553af924d8a3b256ddbd2289a1790d9",
        "0c87c3c7eaeef9fdbeb2c8613c38a22de1a0349059485a9a530d369770000768",
    ),
    "stream-random": (
        "9f8c8d655d932fd6d9064c1558461f582f97e94e82a5c5f07518c1b125d3351e",
        "ec0aa14eaf62b624c4604b7203590b6366b69b11b54edfb3eda704d7563cec0c",
    ),
    "audit-speaker": "af58d690748c75977cf560755c78799edd477c9bec7a425de06b9c6de2662f16",
    "iter-speaker-epoch1": "93a406f8bc59c463987107025b44177648001f390b71a1fe4e10ee054411d5ff",
}


def write_corpus(root):
    """30 rows: 4 speakers of 7, one singleton speaker, one speakerless."""
    rng = np.random.default_rng(2024)
    speakers = [f"spk{i % 4}" for i in range(28)] + ["solo", ""]
    rows = []
    archive = FeatureArchive(root / "archive", mode="a")
    for i, speaker in enumerate(speakers):
        utt_id = f"u{i:04d}"
        n_frames = int(rng.integers(20, 121))
        target = " ".join(str(int(t)) for t in rng.integers(1, 500, size=int(rng.integers(2, 7))))
        feats = rng.standard_normal((n_frames, N_BINS)).astype(np.float32)
        if utt_id != MISSING_ID:
            archive.write(utt_id, feats)
        rows.append((utt_id, f"{utt_id}.npy", n_frames, target, speaker))
    archive.close()
    (root / "corpus").mkdir()
    (root / "corpus" / "train.tsv").write_text(manifest_text(rows), encoding="utf-8")


@pytest.fixture
def corpus(tmp_path, monkeypatch):
    """Relative paths throughout, so the report holds no temp directory."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CONCAT_AUGMENT_WORKERS", raising=False)
    write_corpus(tmp_path)
    return tmp_path


def config(kind, **overrides):
    base = dict(
        manifest_path="corpus/train.tsv",
        audio_root="corpus",
        archive_dir="archive",
        strategy=Strategy(kind),
        seed=17,
        epochs=2,
        max_frames=200,
        budget_frames=600,
        specaugment=MaskPolicy(freq_param=4, time_param=12, n_freq_masks=1, n_time_masks=2),
        feature=FeatureConfig(n_mels=N_BINS),
        workers=1,
    )
    base.update(overrides)
    return PipelineConfig(**base)


def tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.name != "report.json"):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def report_digest(path):
    doc = strip_timings(json.loads(path.read_text(encoding="utf-8")))
    return hashlib.sha256(json.dumps(doc).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("kind", ["self", "speaker", "random"])
def test_run_files_bytes(corpus, kind):
    report = run(config(kind, out_dir="out"))
    report.check_consistency()
    assert report.totals["materialization_failures"] > 0  # the missing utterance
    got = (tree_digest(corpus / "out"), report_digest(corpus / "out" / "report.json"))
    assert got == GOLDEN[f"files-{kind}"]


def test_run_stream_bytes(corpus):
    run(config("random", out_dir="out", emit="stream", workers=2))
    got = (tree_digest(corpus / "out"), report_digest(corpus / "out" / "report.json"))
    assert got == GOLDEN["stream-random"]


def test_audit_report_bytes(corpus):
    audit(config("speaker", report_path="audit.json"))
    assert report_digest(corpus / "audit.json") == GOLDEN["audit-speaker"]


def test_iter_epoch_batches_bytes(corpus):
    h = hashlib.sha256()
    for batch in iter_epoch_batches(config("speaker"), epoch=1):
        h.update(encode_batch(batch))
    assert h.hexdigest() == GOLDEN["iter-speaker-epoch1"]
