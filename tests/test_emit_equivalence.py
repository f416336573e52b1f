"""Property test: ``run`` writes exactly the bytes of the copy-based
reference in ``emit_oracle``, over drawn manifests and configs. On the
same inputs, every filter survivor is emitted exactly once per epoch,
and ``run``'s per-epoch counts are ``audit``'s minus the failures it
reports."""

import dataclasses
import os
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from concat_augment import pipeline
from concat_augment.archive import DATA_FILE, FeatureArchive
from concat_augment.augment import Strategy, length_filter, plan_epoch
from concat_augment.errors import PipelineError
from concat_augment.features import FeatureConfig
from concat_augment.manifest import build_speaker_index, load_manifest
from concat_augment.pipeline import (
    WORKERS_ENV_VAR,
    PipelineConfig,
    audit,
    iter_epoch_batches,
    run,
)
from concat_augment.specaugment import MaskPolicy

import emit_oracle
from archive_records import record_span
from conftest import manifest_text
from test_pipeline import read_tree

N_BINS = 3
# Few labels, so manifests mix speaker groups, singleton speakers and rows
# without a speaker.
SPEAKERS = st.sampled_from(["", "", "a", "b", "c"])
# Letters, case that normalisation folds, punctuation it strips and code
# points past the BMP.
TEXT = st.text(alphabet="abcÉß東𝄞 ,.!'", min_size=1, max_size=6).filter(
    lambda t: any(ch.isalpha() for ch in t)
)
TOKENS = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4).map(
    lambda ids: " ".join(map(str, ids))
)


@st.composite
def corpora(draw):
    """Manifest rows, and which ids have no features (neither an archive
    record nor an audio file)."""
    mode = draw(st.sampled_from(["tokens", "asr-normalized"]))
    n = draw(st.integers(1, 9))
    rows = []
    missing = set()
    for i in range(n):
        utt_id = f"u{i}"
        target = draw(TOKENS if mode == "tokens" else TEXT)
        rows.append((utt_id, f"{utt_id}.npy", draw(st.integers(1, 9)), target, draw(SPEAKERS)))
        if draw(st.integers(0, 5)) == 0:
            missing.add(utt_id)
    return mode, rows, missing


@st.composite
def configs(draw):
    kind = draw(st.sampled_from(["self", "speaker", "random"]))
    max_frames = draw(st.integers(1, 30))
    specaugment = draw(
        st.one_of(
            st.none(),
            st.builds(
                MaskPolicy,
                freq_param=st.integers(0, N_BINS),
                time_param=st.integers(0, 6),
                n_freq_masks=st.integers(0, 2),
                n_time_masks=st.integers(0, 2),
                mask_value=st.sampled_from([0.0, -1.5]),
            ),
        )
    )
    return dict(
        strategy=Strategy(kind, 2 if kind == "self" else draw(st.integers(2, 3))),
        seed=draw(st.integers(0, 2**32 - 1)),
        epochs=draw(st.integers(1, 2)),
        max_frames=max_frames,
        # at max_frames or above, so no instance is over the budget
        budget_frames=draw(st.integers(max_frames, 3 * max_frames)),
        include_original=draw(st.booleans()),
        specaugment=specaugment,
        bucketing=draw(st.booleans()),
        accounting=draw(st.sampled_from(["padded", "true"])),
        emit=draw(st.sampled_from(["files", "stream"])),
        target_pad_id=draw(st.sampled_from([0, 7, 2**32 - 1])),
    )


def check_survivors_emitted_once(config, missing):
    """Per epoch, the provenance of the emitted instances is each filter
    survivor without a constituent that has no features, once."""
    corpus = load_manifest(config.manifest_path, config.corpus_mode).utterances
    index = build_speaker_index(corpus)
    for epoch in range(config.epochs):
        plan = plan_epoch(corpus, index, config.strategy, config.seed, epoch)
        survivors = length_filter(plan, corpus.n_frames, config.max_frames, config.include_original)
        expected = Counter(
            constituents
            for constituents in map(survivors.constituents, range(len(survivors)))
            if missing.isdisjoint(constituents)
        )
        emitted = Counter(
            tuple(ids)
            for batch in iter_epoch_batches(config, epoch)
            for ids in batch.instance_ids
        )
        assert emitted == expected


def check_run_agrees_with_audit(report, config):
    """Per epoch, ``run`` plans and filters what ``audit`` does, and emits
    what it planned minus the failures it reports."""
    planned = audit(dataclasses.replace(config, out_dir=None))
    assert len(report.epochs) == len(planned.epochs) == config.epochs
    for ran, dry in zip(report.epochs, planned.epochs):
        for key in ("planned", "excluded_by_strategy", "dropped_by_filter", "strategy_histogram"):
            assert ran[key] == dry[key]
        failures = ran["materialization_failures"] + ran["failed_originals"]
        assert ran["emitted_instances"] == dry["emitted_instances"] - failures


def feature_table(rows, missing, feature_seed):
    """Features for every row not in ``missing``, by id."""
    rng = np.random.default_rng(feature_seed)
    return {
        utt_id: rng.standard_normal((n_frames, N_BINS)).astype(np.float32)
        for utt_id, _, n_frames, _, _ in rows
        if utt_id not in missing
    }


def archived_config(root, mode, rows, table, overrides) -> PipelineConfig:
    """Write the manifest and an archive of ``table`` under ``root``; the
    config of a run over them."""
    (root / "train.tsv").write_text(manifest_text(rows), encoding="utf-8")
    feature = FeatureConfig(n_mels=N_BINS)
    with FeatureArchive(root / "archive", mode="a", feature=feature) as archive:
        for utt_id, feats in table.items():
            archive.write(utt_id, feats)
    return PipelineConfig(
        manifest_path=root / "train.tsv",
        out_dir=root / "out",
        corpus_mode=mode,
        audio_root=root,
        archive_dir=root / "archive",
        feature=feature,
        **overrides,
    )


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpora(), configs(), st.integers(0, 2**32 - 1), st.integers(1, 2))
def test_run_writes_the_reference_bytes(corpus, overrides, feature_seed, workers):
    mode, rows, missing = corpus
    table = feature_table(rows, missing, feature_seed)
    with (
        tempfile.TemporaryDirectory() as tmp,
        mock.patch.dict(os.environ, {WORKERS_ENV_VAR: str(workers)}),
    ):
        root = Path(tmp)
        config = archived_config(root, mode, rows, table, overrides)
        try:
            expected = emit_oracle.emit(config, table)
        except PipelineError as exc:  # e.g. the speaker strategy with no speaker groups
            try:
                run(config)
            except PipelineError as ran:
                assert type(ran) is type(exc)
                return
            raise AssertionError(f"the reference raised {exc!r}; run did not")
        report = run(config)
        report.check_consistency()
        assert read_tree(root / "out") == expected
        check_survivors_emitted_once(config, missing)
        check_run_agrees_with_audit(report, config)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    corpora(),
    configs(),
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.data(),
)
def test_reused_buffers_write_the_reference_bytes(corpus, overrides, feature_seed, workers, data):
    """Every record buffer a build lays a record out in is poisoned with
    0xFF bytes, so a byte a build leaves unwritten shows. Records of
    mixed sizes share the buffers, and archive records with a flipped
    payload byte fail their read inside a record, so its kept rows are
    laid out again."""
    mode, rows, missing = corpus
    table = feature_table(rows, missing, feature_seed)
    corrupt = data.draw(st.sets(st.sampled_from(sorted(table))) if table else st.just(set()))
    buffer = pipeline._buffer

    def poisoned(buffers, place, size):
        out = buffer(buffers, place, size)
        out.fill(0xFF)
        return out

    with (
        tempfile.TemporaryDirectory() as tmp,
        mock.patch.dict(os.environ, {WORKERS_ENV_VAR: str(workers)}),
        mock.patch.object(pipeline, "_buffer", poisoned),
    ):
        root = Path(tmp)
        config = archived_config(root, mode, rows, table, overrides)
        with open(root / "archive" / DATA_FILE, "r+b") as f:
            for utt_id in corrupt:
                f.seek(record_span(root / "archive", utt_id)[1])
                byte = f.read(1)[0]
                f.seek(-1, os.SEEK_CUR)
                f.write(bytes([byte ^ 0x10]))
        kept = {utt_id: feats for utt_id, feats in table.items() if utt_id not in corrupt}
        try:
            expected = emit_oracle.emit(config, kept)
        except PipelineError:  # covered by test_run_writes_the_reference_bytes
            return
        run(config).check_consistency()
        assert read_tree(root / "out") == expected
