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
import os
from unittest import mock

import numpy as np
import pytest

from concat_augment.archive import DATA_FILE, FeatureArchive
from concat_augment.augment import Strategy
from concat_augment.features import FeatureConfig
from concat_augment.pipeline import (
    WORKERS_ENV_VAR,
    PipelineConfig,
    audit,
    iter_epoch_batches,
    run,
)
from concat_augment.specaugment import MaskPolicy

import test_batchio
from archive_records import record_span
from conftest import manifest_text
from emit_oracle import encode_batch
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

# Plan, filter and batching branches the cases above leave out (arity 3,
# no originals, true-frame accounting without buckets, dropped
# originals): overrides, then the digests of the run's tree, the run's
# report and the audit's report.
BRANCHES = {
    "speaker-k3": (
        dict(strategy=Strategy("speaker", 3)),
        (
            "63e69511b9f22df0d19db3b679c640dd8023dbfff63533a70afbebb0e97e6165",
            "dab63a05b1cf6a45d75106424deba90073ab2cf3bbd6388f8ccc56bf44e2947d",
            "07c357e4d39016d243c26f986475d7711634d9dbd36b177cf0e412cc06039e6d",
        ),
    ),
    "random-k3": (
        dict(strategy=Strategy("random", 3)),
        (
            "46a4bb9e4099f7678d3bd2a8098a04bb2c6d3e7cbc6c82bac603063cc53f88d3",
            "d7aae96d035801d73554614009eb1088665f2587d50f6cd912ffd4401476c6e0",
            "cc1acafe2ce15334f5440055431bd7952f6cca382d3df11e33561f7025d22d5f",
        ),
    ),
    "self-no-original": (
        dict(strategy=Strategy("self"), include_original=False),
        (
            "916a08aa356b56a2f61eb3d05c6e5847747dca46820d3ea9c9de72e6e59ccc5a",
            "9cbffdc904d508f83c2f8f026fd19669f1b924240522bcb6df06b671725cd092",
            "b3dd836d965a658bfa6bb3bb1a29e8dd7d2f6ed15829f58e8c91f193a40c6325",
        ),
    ),
    "random-true-unbucketed": (
        dict(bucketing=False, accounting="true", max_frames=110),
        (
            "683037eba20a6c2500871ae8c8d12692767074ded8657061f398780eb31f9eb9",
            "ac2505b23518060abafc8edaac78a0c60ac275c72167a4a79ce349975f170ef8",
            "761401204b7b0a799e6d9d57424d60ea7c9c67394dcd637c8b449a97df570d2b",
        ),
    ),
}


# Words for the text manifest: punctuation that normalisation strips,
# upper case it folds, and code points past the BMP.
WORDS = ("Grüße,", "ñandú", "東京", "naïve!", "𝄞clef", "«quote»", "over", "A", "the", "Élan")


# Emit branches the cases above leave out: text targets written as code
# points (in a stream, from two workers) and unmasked features. Overrides,
# the pool size, then the digests of the run's tree and the run's report.
EMIT_BRANCHES = {
    "asr-normalized": (
        dict(manifest_path="corpus/text.tsv", corpus_mode="asr-normalized", emit="stream"),
        2,
        (
            "5efdad49d28797568051d970c451af553f415b772eaaed5e7b229f7299eade8d",
            "f955aeb137048c83d02651ed7d4cb1765f0a1eeb39ed1c4bc5974611a05c321e",
        ),
    ),
    "no-specaugment": (
        dict(specaugment=None),
        1,
        (
            "11e65ac2ab7968aa4e67a9c360f78e4e9604ca9193c1592295eac1cc8875116b",
            "baecca2a4d7b24402e72cb7feff7f3d0e169131d253679ec9bd8293bbc66b1af",
        ),
    ),
}

# One archive record (CORRUPT_ID's) with a payload byte flipped: every
# instance that uses it is dropped with a checksum diagnostic, also the
# one that uses the corrupt record before the missing utterance.
CORRUPT_ID = "u0000"
CORRUPT_GOLDEN = (
    "cb5e0966a10826dd5090016301a4fd0f968c7f2ed23f1455a720fd5edc8dc6f1",
    "0efff226676f454cb9bc6f2547c60ea335c4848cf9c5803f83d2bb6f48e04467",
)


def write_corpus(root):
    """30 rows: 4 speakers of 7, one singleton speaker, one speakerless.
    ``train.tsv`` has token targets; ``text.tsv`` has the same rows with
    raw text targets for ``asr-normalized`` mode."""
    rng = np.random.default_rng(2024)
    speakers = [f"spk{i % 4}" for i in range(28)] + ["solo", ""]
    rows = []
    archive = FeatureArchive(root / "archive", mode="a", feature=FeatureConfig(n_mels=N_BINS))
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
    words = np.random.default_rng(2025)
    text_rows = [
        (*row[:3], " ".join(words.choice(WORDS, size=int(words.integers(1, 5)))), row[4])
        for row in rows
    ]
    (root / "corpus" / "text.tsv").write_text(manifest_text(text_rows), encoding="utf-8")


@pytest.fixture
def corpus(tmp_path, monkeypatch):
    """Relative paths throughout, so the report holds no temp directory."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CONCAT_AUGMENT_WORKERS", raising=False)
    write_corpus(tmp_path)
    return tmp_path


def config(kind="random", **overrides):
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
    )
    base.update(overrides)
    return PipelineConfig(**base)


def pool_of(workers):
    """Set the pool size, as ``CONCAT_AUGMENT_WORKERS`` does, for a ``with`` block."""
    return mock.patch.dict(os.environ, {WORKERS_ENV_VAR: str(workers)})


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
    with pool_of(2):
        run(config("random", out_dir="out", emit="stream"))
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


@pytest.mark.parametrize("branch", sorted(BRANCHES))
def test_branch_bytes(corpus, branch):
    overrides, digests = BRANCHES[branch]
    run(config(out_dir="out", **overrides)).check_consistency()
    audit(config(report_path="audit.json", **overrides))
    got = (
        tree_digest(corpus / "out"),
        report_digest(corpus / "out" / "report.json"),
        report_digest(corpus / "audit.json"),
    )
    assert got == digests


@pytest.mark.parametrize("branch", sorted(EMIT_BRANCHES))
def test_emit_branch_bytes(corpus, branch):
    overrides, workers, digests = EMIT_BRANCHES[branch]
    with pool_of(workers):
        run(config(out_dir="out", **overrides)).check_consistency()
    got = (tree_digest(corpus / "out"), report_digest(corpus / "out" / "report.json"))
    assert got == digests


def flip_payload_byte(archive_dir, utt_id):
    at = record_span(archive_dir, utt_id)[1] + 10
    with open(archive_dir / DATA_FILE, "r+b") as f:
        f.seek(at)
        byte = f.read(1)[0]
        f.seek(at)
        f.write(bytes([byte ^ 0x40]))


@pytest.mark.parametrize("workers", [1, 2])
def test_checksum_mismatch_bytes(corpus, workers):
    flip_payload_byte(corpus / "archive", CORRUPT_ID)
    with pool_of(workers):
        report = run(config(out_dir="out"))
    report.check_consistency()
    dropped = [d for d in report.diagnostics if f"checksum mismatch for '{CORRUPT_ID}'" in d]
    assert dropped
    assert all(d.startswith("epoch ") and ": dropped (" in d for d in dropped)
    first_fails = f"dropped ('{CORRUPT_ID}', '{MISSING_ID}')"
    assert [d for d in report.diagnostics if first_fails in d] == [
        f"epoch 0: {first_fails}: failed to load features for ('{CORRUPT_ID}', '{MISSING_ID}'): "
        f"checksum mismatch for '{CORRUPT_ID}' in {DATA_FILE}"
    ]
    got = (tree_digest(corpus / "out"), report_digest(corpus / "out" / "report.json"))
    assert got == CORRUPT_GOLDEN


@pytest.mark.usefixtures("zlib_crc32")
class TestUnderZlibCrc:
    """Every digest above again, with every CRC computed by zlib as on a
    platform without libdeflate: the two give the same bytes. A record
    sealed row by row, too."""

    test_run_files_bytes = staticmethod(test_run_files_bytes)
    test_run_stream_bytes = staticmethod(test_run_stream_bytes)
    test_audit_report_bytes = staticmethod(test_audit_report_bytes)
    test_iter_epoch_batches_bytes = staticmethod(test_iter_epoch_batches_bytes)
    test_branch_bytes = staticmethod(test_branch_bytes)
    test_emit_branch_bytes = staticmethod(test_emit_branch_bytes)
    test_checksum_mismatch_bytes = staticmethod(test_checksum_mismatch_bytes)
    test_row_chained_seal = staticmethod(
        test_batchio.test_row_chained_seal_equals_a_whole_record_seal
    )
