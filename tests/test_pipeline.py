import errno
import gc
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import warnings
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from concat_augment import features, pipeline
from concat_augment.archive import DATA_FILE, FeatureArchive, _encode_record
from concat_augment.augment import Strategy
from concat_augment.batchio import StreamWriter, iter_stream, read_batch_file
from concat_augment.cli import main as cli_main
from concat_augment.errors import ArchiveError, BatchingError, ConfigurationError
from concat_augment.features import FeatureConfig, load_or_compute
from concat_augment.manifest import Corpus, load_manifest
from concat_augment.pipeline import (
    PipelineConfig,
    audit,
    format_summary,
    iter_epoch_batches,
    run,
)
from concat_augment.specaugment import MaskPolicy

from archive_records import record_span
from conftest import manifest_text, pcm_samples_for_frames, write_audio_corpus

SRC = Path(__file__).resolve().parents[1] / "src"


def strip_timings(doc):
    if isinstance(doc, dict):
        return {k: strip_timings(v) for k, v in doc.items() if k != "timings_s"}
    if isinstance(doc, list):
        return [strip_timings(v) for v in doc]
    return doc


def set_fields(manifest, values):
    """Overwrite fields of a written manifest: {(row, column index): value}."""
    lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
    for (row, column), value in values.items():
        fields = lines[row].split("\t")
        fields[column] = str(value)
        lines[row] = "\t".join(fields)
    manifest.write_text("".join(lines), encoding="utf-8")


def read_tree(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "report.json"
    }


class TestRun:
    def test_two_utterance_self_concat_emits_four(self, tmp_path):
        rng = np.random.default_rng(0)
        manifest = write_audio_corpus(tmp_path / "c", 2, rng, n_speakers=1)
        config = PipelineConfig(
            manifest_path=manifest,
            out_dir=tmp_path / "out",
            audio_root=manifest.parent,
            strategy=Strategy("self"),
            seed=3,
            epochs=1,
        )
        report = run(config)
        assert report.epochs[0]["emitted_instances"] == 4  # 2 originals + 2 self-concats
        report.check_consistency()

    def test_reruns_are_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        manifest = write_audio_corpus(tmp_path / "c", 20, rng, n_speakers=4)

        def one_run(out):
            config = PipelineConfig(
                manifest_path=manifest,
                out_dir=out,
                audio_root=manifest.parent,
                strategy=Strategy("random"),
                seed=11,
                epochs=2,
                budget_frames=600,
                specaugment=MaskPolicy(),
            )
            return run(config)

        r1 = one_run(tmp_path / "out1")
        r2 = one_run(tmp_path / "out2")
        assert read_tree(tmp_path / "out1") == read_tree(tmp_path / "out2")
        assert strip_timings(r1.to_dict()) == strip_timings(r2.to_dict())

    def test_report_write_that_fails_leaves_no_file(self, tmp_path, monkeypatch):
        def torn_dump(doc, f, **kwargs):
            f.write('{"config": {')
            raise OSError("disk full")

        monkeypatch.setattr(pipeline.json, "dump", torn_dump)
        with pytest.raises(OSError, match="disk full"):
            pipeline.AuditReport(config={}, ingestion={}).write(tmp_path / "report.json")
        assert list(tmp_path.iterdir()) == []

    def test_report_written_with_expected_fields(self, tmp_path):
        rng = np.random.default_rng(2)
        manifest = write_audio_corpus(tmp_path / "c", 6, rng, n_speakers=2)
        config = PipelineConfig(
            manifest_path=manifest,
            out_dir=tmp_path / "out",
            audio_root=manifest.parent,
            strategy=Strategy("speaker"),
            epochs=1,
        )
        report = run(config)
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["ingestion"]["accepted"] == 6
        epoch = doc["epochs"][0]
        for key in (
            "planned",
            "excluded_by_strategy",
            "dropped_by_filter",
            "materialized",
            "materialization_failures",
            "emitted_instances",
            "batch_count",
            "padding_waste",
            "total_frames_emitted",
            "strategy_histogram",
            "timings_s",
        ):
            assert key in epoch
        assert doc["totals"]["batches"] == report.epochs[0]["batch_count"]
        assert format_summary(report)

    def test_emitted_files_decode_and_respect_budget(self, tmp_path):
        rng = np.random.default_rng(3)
        manifest = write_audio_corpus(tmp_path / "c", 15, rng)
        budget = 500
        config = PipelineConfig(
            manifest_path=manifest,
            out_dir=tmp_path / "out",
            audio_root=manifest.parent,
            seed=5,
            epochs=1,
            budget_frames=budget,
        )
        report = run(config)
        files = sorted((tmp_path / "out" / "epoch-000").glob("batch-*.cabx"))
        assert len(files) == report.epochs[0]["batch_count"]
        total = 0
        for path in files:
            batch = read_batch_file(path)
            assert batch.padded_frames <= budget
            assert batch.features.shape[2] == 80
            total += batch.features.shape[0]
        assert total == report.epochs[0]["emitted_instances"]

    def test_stream_emit_mode(self, tmp_path):
        rng = np.random.default_rng(4)
        manifest = write_audio_corpus(tmp_path / "c", 8, rng)
        config = PipelineConfig(
            manifest_path=manifest,
            out_dir=tmp_path / "out",
            audio_root=manifest.parent,
            epochs=1,
            emit="stream",
            budget_frames=400,
        )
        report = run(config)
        batches = list(iter_stream(tmp_path / "out" / "epoch-000.cabxs"))
        assert len(batches) == report.epochs[0]["batch_count"]

    def test_missing_audio_dropped_with_diagnostic(self, tmp_path):
        rng = np.random.default_rng(5)
        manifest = write_audio_corpus(tmp_path / "c", 5, rng, n_speakers=1)
        os.remove(manifest.parent / "u000002.npy")
        config = PipelineConfig(
            manifest_path=manifest,
            out_dir=tmp_path / "out",
            audio_root=manifest.parent,
            strategy=Strategy("self"),
            epochs=1,
        )
        report = run(config)
        # the broken utterance fails as an original and inside its self-concat
        assert report.epochs[0]["failed_originals"] == 1
        assert report.epochs[0]["materialization_failures"] == 1
        assert report.epochs[0]["emitted_instances"] == 8
        assert any("u000002" in d for d in report.diagnostics)
        report.check_consistency()

    def test_token_id_over_u32_is_a_skipped_row(self, tmp_path):
        manifest = write_audio_corpus(tmp_path / "c", 6, np.random.default_rng(18))
        set_fields(manifest, {(1, 3): f"1 {2**32}", (2, 3): f"1 {2**64}"})
        config = PipelineConfig(
            manifest_path=manifest, out_dir=tmp_path / "out", audio_root=manifest.parent, epochs=1
        )
        report = run(config)
        assert report.ingestion["accepted"] == 4
        assert report.ingestion["skipped"] == 2
        assert report.epochs[0]["emitted_instances"] == 8
        assert list((tmp_path / "out" / "epoch-000").glob("*.cabx"))

    def test_rerun_into_the_same_out_dir_leaves_no_stale_batches(self, tmp_path):
        manifest = write_audio_corpus(tmp_path / "c", 12, np.random.default_rng(19))
        out = tmp_path / "out"

        def one_run(budget, epochs=2, emit="files"):
            config = PipelineConfig(
                manifest_path=manifest, out_dir=out, audio_root=manifest.parent,
                archive_dir=tmp_path / "arch", epochs=epochs, budget_frames=budget, emit=emit,
            )
            return run(config)

        one_run(100, emit="stream")
        one_run(100, epochs=3)
        (out / "notes.txt").write_text("kept")
        (out / ".report.json.99999.tmp").write_text('{"config": {')  # a killed report write
        report = one_run(4000)
        for epoch in report.epochs:
            files = list((out / f"epoch-{epoch['epoch']:03d}").iterdir())
            assert len(files) == epoch["batch_count"]
        assert sorted(p.name for p in out.iterdir()) == [
            "epoch-000", "epoch-001", "notes.txt", "report.json"
        ]
        with pytest.raises(BatchingError, match="over the budget"):  # fatal before any batch
            one_run(20)
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "report.json"]
        assert "over the budget" in json.loads((out / "report.json").read_text())["error"]

    def test_worker_pool_does_not_change_bytes(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(6)
        manifest = write_audio_corpus(tmp_path / "c", 16, rng)

        def one_run(out, workers):
            monkeypatch.setenv(pipeline.WORKERS_ENV_VAR, str(workers))
            config = PipelineConfig(
                manifest_path=manifest,
                out_dir=out,
                audio_root=manifest.parent,
                seed=9,
                epochs=1,
                budget_frames=600,
                specaugment=MaskPolicy(),
            )
            run(config)

        one_run(tmp_path / "o1", workers=1)
        one_run(tmp_path / "o2", workers=4)
        assert read_tree(tmp_path / "o1") == read_tree(tmp_path / "o2")

    def test_workers_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONCAT_AUGMENT_WORKERS", "3")
        assert pipeline._pool_size() == 3
        monkeypatch.setenv("CONCAT_AUGMENT_WORKERS", str(pipeline.MAX_WORKERS))
        assert pipeline._pool_size() == pipeline.MAX_WORKERS
        too_many = str(pipeline.MAX_WORKERS + 1)
        for bad in ("abc", "0", "-2", too_many, "10" * 20):
            monkeypatch.setenv("CONCAT_AUGMENT_WORKERS", bad)
            with pytest.raises(ConfigurationError, match=f"CONCAT_AUGMENT_WORKERS.*{bad}"):
                pipeline._pool_size()
        with pytest.raises(ConfigurationError, match="CONCAT_AUGMENT_WORKERS"):
            run(PipelineConfig(manifest_path="x", out_dir=tmp_path / "out"))
        assert not (tmp_path / "out").exists()
        monkeypatch.delenv("CONCAT_AUGMENT_WORKERS")
        assert pipeline._pool_size() == 1

    def test_archive_cache_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        manifest = write_audio_corpus(tmp_path / "c", 6, rng)
        config = PipelineConfig(
            manifest_path=manifest,
            out_dir=tmp_path / "out1",
            audio_root=manifest.parent,
            archive_dir=tmp_path / "arch",
            seed=2,
            epochs=1,
            budget_frames=600,
        )
        run(config)
        # second run served from the archive produces identical artifacts
        config2 = PipelineConfig(
            manifest_path=manifest,
            out_dir=tmp_path / "out2",
            audio_root=manifest.parent,
            archive_dir=tmp_path / "arch",
            seed=2,
            epochs=1,
            budget_frames=600,
        )
        run(config2)
        assert read_tree(tmp_path / "out1") == read_tree(tmp_path / "out2")

    def test_iter_epoch_batches_batches_outlive_the_next_builds(
        self, small_audio_corpus, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(pipeline.WORKERS_ENV_VAR, "2")
        config = PipelineConfig(
            manifest_path=small_audio_corpus,
            audio_root=small_audio_corpus.parent,
            seed=2,
            budget_frames=120,
            specaugment=MaskPolicy(),
        )
        batches, copies = [], []
        for batch in iter_epoch_batches(config, epoch=0):
            batches.append(batch)
            copies.append((batch.features.copy(), batch.targets.copy(), batch.instance_ids[:]))
        assert len(batches) > 2 * (3 * 2 - 1)  # each buffer is reused
        for batch, (features, targets, ids) in zip(batches, copies):
            assert batch.features.tobytes() == features.tobytes()
            np.testing.assert_array_equal(batch.targets, targets)
            assert batch.instance_ids == ids

    def test_iter_epoch_batches_closes_archive(self, small_audio_corpus, tmp_path):
        manifest = small_audio_corpus
        config = PipelineConfig(
            manifest_path=manifest,
            audio_root=manifest.parent,
            archive_dir=tmp_path / "arch",
            seed=2,
            budget_frames=600,
        )
        assert list(iter_epoch_batches(config, epoch=0))
        written = read_tree(tmp_path / "arch")
        assert list(written) == [DATA_FILE]
        assert list(iter_epoch_batches(config, epoch=0))
        # the second call is served from the file the first one wrote
        assert read_tree(tmp_path / "arch") == written
        with FeatureArchive(tmp_path / "arch", "r") as archive:
            assert all(f"u{i:06d}" in archive for i in range(12))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_iter_epoch_batches_closed_early_stops_builds_first(
        self, small_audio_corpus, tmp_path, monkeypatch, workers
    ):
        lock = threading.Lock()
        running = []  # one entry per build in progress
        at_close = []  # builds in progress at each archive close
        build, read, close = pipeline._build_group, FeatureArchive.read, FeatureArchive.close

        def counted_build(*args):
            with lock:
                running.append(1)
            try:
                return build(*args)
            finally:
                with lock:
                    running.pop()

        def slow_read(self, *args, **kwargs):
            time.sleep(0.02)
            return read(self, *args, **kwargs)

        def spied_close(self):
            with lock:
                at_close.append(len(running))
            close(self)

        monkeypatch.setattr(pipeline, "_build_group", counted_build)
        monkeypatch.setattr(FeatureArchive, "read", slow_read)
        monkeypatch.setattr(FeatureArchive, "close", spied_close)
        monkeypatch.setenv(pipeline.WORKERS_ENV_VAR, str(workers))
        config = PipelineConfig(
            manifest_path=small_audio_corpus,
            audio_root=small_audio_corpus.parent,
            seed=2,
            budget_frames=120,
        )
        batches = iter_epoch_batches(config, epoch=0)
        next(batches)
        batches.close()
        assert at_close == [0]

    def test_iter_epoch_batches_closed_early_starts_no_build(self, small_audio_corpus, monkeypatch):
        stop, started, late = builds_started_after(monkeypatch)
        monkeypatch.setenv(pipeline.WORKERS_ENV_VAR, "4")
        config = PipelineConfig(
            manifest_path=small_audio_corpus,
            audio_root=small_audio_corpus.parent,
            seed=2,
            budget_frames=120,
        )
        batches = iter_epoch_batches(config, epoch=0)
        next(batches)
        stop.set()
        batches.close()
        assert late == []
        assert len(started) < audit(config).epochs[0]["batch_count"]  # some were cancelled


def builds_started_after(monkeypatch):
    """Slow every archive read by 20 ms and log each ``_build_group`` call
    as it starts, and again in ``late`` once ``stop`` is set. Returns
    ``(stop, started, late)``."""
    stop = threading.Event()
    started, late = [], []
    build, read = pipeline._build_group, FeatureArchive.read

    def logged_build(*args):
        started.append(1)
        if stop.is_set():
            late.append(1)
        return build(*args)

    def slow_read(self, *args, **kwargs):
        time.sleep(0.02)
        return read(self, *args, **kwargs)

    monkeypatch.setattr(pipeline, "_build_group", logged_build)
    monkeypatch.setattr(FeatureArchive, "read", slow_read)
    return stop, started, late


MISSING = "u000004"


@pytest.fixture
def store_corpus(tmp_path):
    """16 utterances, one of whose audio file is missing."""
    manifest = write_audio_corpus(tmp_path / "c", 16, np.random.default_rng(15), n_speakers=4)
    os.remove(manifest.parent / f"{MISSING}.npy")
    return manifest


def store_config(manifest, **overrides):
    """A 2-epoch random run; every utterance is referenced as an original."""
    base = dict(
        manifest_path=manifest,
        audio_root=manifest.parent,
        strategy=Strategy("random"),
        seed=21,
        epochs=2,
        budget_frames=600,
        specaugment=MaskPolicy(),
    )
    base.update(overrides)
    return PipelineConfig(**base)


class TestFeatureStore:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_each_id_extracted_once_per_run(self, store_corpus, tmp_path, monkeypatch, workers):
        calls = Counter()
        lock = threading.Lock()

        def counting(utt, *args, **kwargs):
            with lock:
                calls[utt.id] += 1
            return load_or_compute(utt, *args, **kwargs)

        monkeypatch.setattr(pipeline, "load_or_compute", counting)
        monkeypatch.setenv(pipeline.WORKERS_ENV_VAR, str(workers))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread switches inside the pool
        try:
            report = run(store_config(store_corpus, out_dir=tmp_path / "out"))
        finally:
            sys.setswitchinterval(interval)
        ids = {u.id for u in load_manifest(store_corpus).utterances}
        assert set(calls) == ids
        assert set(calls.values()) == {1}
        assert report.totals["materialization_failures"] > 0
        report.check_consistency()

    @pytest.mark.skipif(features._openblas is None, reason="numpy's bundled OpenBLAS not found")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_extracts_with_one_blas_thread(self, store_corpus, tmp_path, monkeypatch, workers):
        get, set_ = features._openblas
        seen = []  # BLAS threads at each extraction

        def spied(*args, **kwargs):
            seen.append(get())
            return load_or_compute(*args, **kwargs)

        monkeypatch.setattr(pipeline, "load_or_compute", spied)
        monkeypatch.setenv(pipeline.WORKERS_ENV_VAR, str(workers))
        before = get()
        set_(2)
        try:
            run(store_config(store_corpus, out_dir=tmp_path / "out"))
            assert get() == 2  # restored
        finally:
            set_(before)
        assert set(seen) == {1 if workers > 1 else 2}

    def test_prefilled_archive_gives_same_bytes_and_report(self, store_corpus, tmp_path):
        cfg = FeatureConfig()
        with FeatureArchive(tmp_path / "arch", mode="a", feature=cfg) as archive:
            for utt in load_manifest(store_corpus).utterances:
                if utt.id != MISSING:
                    archive.write(utt.id, load_or_compute(utt, cfg, audio_root=store_corpus.parent))
        scratch = run(store_config(store_corpus, out_dir=tmp_path / "o1"))
        fed = run(store_config(store_corpus, out_dir=tmp_path / "o2", archive_dir=tmp_path / "arch"))
        assert read_tree(tmp_path / "o1") == read_tree(tmp_path / "o2")
        assert strip_timings(scratch.to_dict()) == strip_timings(fed.to_dict())
        assert any(MISSING in d for d in fed.diagnostics)

    def test_archive_bytes_do_not_depend_on_workers(self, store_corpus, tmp_path, monkeypatch):
        for workers in (1, 2):
            monkeypatch.setenv(pipeline.WORKERS_ENV_VAR, str(workers))
            run(store_config(
                store_corpus, out_dir=tmp_path / f"o{workers}",
                archive_dir=tmp_path / f"arch{workers}",
            ))
        one = read_tree(tmp_path / "arch1")
        assert list(one) == [DATA_FILE]
        assert one == read_tree(tmp_path / "arch2")

    def test_only_batches_and_report_in_out_dir(self, store_corpus, tmp_path):
        run(store_config(store_corpus, out_dir=tmp_path / "out"))
        names = [p.relative_to(tmp_path / "out").as_posix()
                 for p in (tmp_path / "out").rglob("*") if p.is_file()]
        assert "report.json" in names
        pattern = re.compile(r"epoch-\d{3}/batch-\d{5}\.cabx|report\.json")
        assert all(pattern.fullmatch(name) for name in names), names

    @pytest.fixture
    def scratch_root(self, tmp_path, monkeypatch):
        """Where the scratch archive goes; warnings are recorded, since an
        implicit clean-up of a TemporaryDirectory warns instead of failing."""
        root = tmp_path / "tmp"
        root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(root))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield root
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert list(root.iterdir()) == []

    def test_scratch_archive_removed_after_success(self, store_corpus, tmp_path, scratch_root):
        run(store_config(store_corpus, out_dir=tmp_path / "out"))
        assert list(scratch_root.iterdir()) == []

    def test_scratch_archive_removed_after_failure(
        self, store_corpus, tmp_path, monkeypatch, scratch_root
    ):
        """The scratch archive leaves the file system once it is open, so
        nothing of it is there mid-epoch, and a kill would leave nothing."""
        held = []

        def fail_second(record, path):
            if held:
                raise RuntimeError("disk full")
            held.append(list(scratch_root.iterdir()))

        monkeypatch.setattr(pipeline, "write_batch_file", fail_second)
        with pytest.raises(RuntimeError, match="disk full"):
            run(store_config(store_corpus, out_dir=tmp_path / "out"))
        assert held == [[]]  # gone mid-epoch, while the run read from it
        assert list(scratch_root.iterdir()) == []

    def test_archive_of_other_width_is_fatal_before_batches(self, store_corpus, tmp_path):
        run(store_config(store_corpus, out_dir=tmp_path / "o80", archive_dir=tmp_path / "arch"))
        config = store_config(
            store_corpus, out_dir=tmp_path / "o40", archive_dir=tmp_path / "arch",
            feature=FeatureConfig(n_mels=40),
        )
        with pytest.raises(ConfigurationError, match="80-bin.*40 mels"):
            run(config)
        assert not list((tmp_path / "o40").rglob("*.cabx"))
        assert "80-bin" in json.loads((tmp_path / "o40" / "report.json").read_text())["error"]

    def test_record_of_other_width_is_fatal_before_batches(self, store_corpus, tmp_path):
        # write refuses such a record, so its bytes are appended by hand
        utterances = [u for u in load_manifest(store_corpus).utterances if u.id != MISSING]
        *head, last = [
            (utt.id, load_or_compute(utt, FeatureConfig(), audio_root=store_corpus.parent))
            for utt in utterances
        ]
        with FeatureArchive(tmp_path / "arch", mode="a", feature=FeatureConfig()) as archive:
            for utt_id, feats in head:
                archive.write(utt_id, feats)
            with pytest.raises(ArchiveError, match=f"40-bin features for '{last[0]}'"):
                archive.write(last[0], last[1][:, :40])
        with open(tmp_path / "arch" / DATA_FILE, "ab") as f:
            f.write(_encode_record(last[0], last[1][:, :40]))
        config = store_config(store_corpus, out_dir=tmp_path / "out", archive_dir=tmp_path / "arch")
        with pytest.raises(ArchiveError, match=f"40-bin features for '{last[0]}'"):
            run(config)
        assert not list((tmp_path / "out").rglob("*.cabx"))

    def test_frame_count_mismatch_drops_the_utterance(self, tmp_path):
        manifest = write_audio_corpus(
            tmp_path / "c", 8, np.random.default_rng(16), frames_lo=20, frames_hi=40
        )
        # u000000's audio gives 300 frames; the manifest says 30
        cfg = FeatureConfig()
        pcm = np.random.default_rng(17).uniform(-0.5, 0.5, pcm_samples_for_frames(300, cfg))
        np.save(manifest.parent / "u000000.npy", pcm)
        set_fields(manifest, {(1, 2): 30})
        said = "u000000: manifest says 30 frames, features have 300"
        trees = []
        for out in ("o1", "o2"):  # computed, then served from the archive
            config = store_config(
                manifest, out_dir=tmp_path / out, archive_dir=tmp_path / "arch",
                budget_frames=200, max_frames=100,
            )
            report = run(config)
            report.check_consistency()
            assert any(said in d for d in report.diagnostics)
            files = sorted((tmp_path / out).rglob("*.cabx"))
            assert files
            emitted = 0
            for path in files:
                batch = read_batch_file(path)
                assert batch.padded_frames <= 200
                assert max(batch.feature_lengths) <= 100
                emitted += sum(batch.feature_lengths)
            assert emitted == report.totals["total_frames_emitted"]
            trees.append(read_tree(tmp_path / out))
        assert trees[0] == trees[1]

    def test_superset_archive_checks_only_referenced_frame_counts(self, tmp_path, monkeypatch):
        manifest = write_audio_corpus(
            tmp_path / "c", 12, np.random.default_rng(20), frames_lo=20, frames_hi=40
        )
        # u000000's audio gives 300 frames; the manifests say 30
        cfg = FeatureConfig()
        pcm = np.random.default_rng(21).uniform(-0.5, 0.5, pcm_samples_for_frames(300, cfg))
        np.save(manifest.parent / "u000000.npy", pcm)
        set_fields(manifest, {(1, 2): 30})
        # the superset manifest fills the archive, u000000 with T = 300
        fill = store_config(manifest, out_dir=tmp_path / "fill", archive_dir=tmp_path / "arch")
        run(fill)
        lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
        subset = manifest.with_name("subset.tsv")
        subset.write_text("".join(lines[:9]), encoding="utf-8")  # header and u000000-u000007
        # over max_frames, so no instance references u000007 and its T is never checked
        set_fields(subset, {(8, 2): 150})
        with FeatureArchive(tmp_path / "arch", "r") as archive:
            assert len(archive) == 12
            assert archive.shape("u000000")[0] == 300
        looked_up = []  # the store checks an id's frame count from the index's shape
        shape = FeatureArchive.shape

        def spied_shape(self, utt_id):
            looked_up.append(utt_id)
            return shape(self, utt_id)

        monkeypatch.setattr(FeatureArchive, "shape", spied_shape)

        def one_run(out, archive_dir):
            return run(store_config(
                subset, out_dir=tmp_path / out, archive_dir=archive_dir,
                budget_frames=200, max_frames=100,
            ))

        scratch = one_run("o1", None)
        fed = one_run("o2", tmp_path / "arch")
        assert read_tree(tmp_path / "o1") == read_tree(tmp_path / "o2")
        assert strip_timings(scratch.to_dict()) == strip_timings(fed.to_dict())
        said = "u000000: manifest says 30 frames, features have 300"
        assert any(said in d for d in fed.diagnostics)
        assert not any("u000007" in d for d in fed.diagnostics)
        assert "u000000" in looked_up
        assert "u000007" not in looked_up

    def test_utterances_are_built_only_to_compute_features(self, tmp_path, monkeypatch):
        manifest = write_audio_corpus(tmp_path / "c", 12, np.random.default_rng(22))
        built, computed = [], []
        getitem, iterate = Corpus.__getitem__, Corpus.__iter__

        def counted_getitem(self, i):
            built.append(i)
            return getitem(self, i)

        def counted_iter(self):
            for utt in iterate(self):
                built.append(utt.id)
                yield utt

        def counted_compute(utt, *args, **kwargs):
            computed.append(utt.id)
            return load_or_compute(utt, *args, **kwargs)

        monkeypatch.setattr(Corpus, "__getitem__", counted_getitem)
        monkeypatch.setattr(Corpus, "__iter__", counted_iter)
        monkeypatch.setattr(pipeline, "load_or_compute", counted_compute)
        config = store_config(manifest, out_dir=tmp_path / "out", archive_dir=tmp_path / "arch")
        run(config)  # cold: every utterance is computed, once
        assert len(computed) == 12
        assert len(built) == len(computed)
        built.clear()
        computed.clear()
        run(config)  # warm: the archive holds every utterance
        assert computed == []
        assert built == []


class TestWriter:
    """The calling thread writes each record in plan order while the
    worker pool builds the next ones."""

    @staticmethod
    def spy_stream(monkeypatch, fail_at=None, on_write=None):
        """Log each stream write and close; the ``fail_at``-th write (from
        1) fails with ENOSPC, and ``on_write(n)`` runs before the n-th."""
        events = []
        write, close = StreamWriter.write, StreamWriter.close

        def spied_write(self, record):
            n = sum(1 for e in events if e == "write") + 1
            if on_write is not None:
                on_write(n)
            events.append("write")
            if n == fail_at:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            write(self, record)

        def spied_close(self):
            events.append("close")
            close(self)

        monkeypatch.setattr(StreamWriter, "write", spied_write)
        monkeypatch.setattr(StreamWriter, "close", spied_close)
        return events

    def test_timings_split_write_and_writer_wait(self, store_corpus, tmp_path):
        docs = []
        for out in ("a", "b"):
            report = run(store_config(store_corpus, out_dir=tmp_path / out, emit="stream"))
            for ep in report.epochs:
                assert ep["timings_s"]["write"] >= 0
                assert ep["timings_s"]["writer_wait"] >= 0
                for stage in pipeline.BUILD_STAGES:  # build_read, build_mask, build_pad
                    assert ep["timings_s"][stage] > 0
            docs.append(json.loads((tmp_path / out / "report.json").read_text()))
        assert strip_timings(docs[0]) == strip_timings(docs[1])

    def test_every_epoch_timing_is_named_in_the_readme(self, store_corpus, tmp_path):
        """A stage renamed in the code fails here, not in a stale README."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        report = run(store_config(store_corpus, out_dir=tmp_path / "out", emit="stream"))
        keys = {key for ep in report.epochs for key in ep["timings_s"]}
        assert keys >= {"seal", "write", "writer_wait", *pipeline.BUILD_STAGES}
        assert sorted(key for key in keys if f"`{key}`" not in readme) == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_timings_split_extraction(self, store_corpus, tmp_path, monkeypatch, workers):
        """Audio load and log-Mel are summed over the pool threads, so each
        is at most ``workers`` times the extraction's wall time; the
        calling thread's appends and frame checks are within it."""
        monkeypatch.setenv(pipeline.WORKERS_ENV_VAR, str(workers))
        archive = tmp_path / "arch"
        docs = []
        for out in ("fill", "filled"):  # computed from audio, then read from the archive
            report = run(store_config(store_corpus, out_dir=tmp_path / out, archive_dir=archive))
            for ep in report.epochs:
                seconds = ep["timings_s"]
                load, logmel, append = (seconds[stage] for stage in pipeline.EXTRACT_STAGES)
                assert load + logmel <= workers * seconds["extract_features"]
                assert 0 <= append <= seconds["extract_features"]
                if out == "fill" and ep["epoch"] == 0:
                    assert load > 0 and logmel > 0 and append > 0
                else:  # epoch 0 extracted every utterance
                    assert load == logmel == 0
            docs.append(json.loads((tmp_path / out / "report.json").read_text()))
        assert docs[1]["epochs"][0]["timings_s"]["extract_append"] > 0  # its frame checks
        assert strip_timings(docs[0]) == strip_timings(docs[1])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_records_are_built_on_one_thread_and_extracted_on_the_pool(
        self, store_corpus, tmp_path, monkeypatch, workers
    ):
        """Builds are Python under the GIL, so one pool thread runs every
        build of an epoch, whatever the pool size; extraction gets a pool
        of ``workers``."""
        builders = {}  # epoch -> the thread of each of its builds
        pools = []
        build, pool = pipeline._build_group, pipeline.ThreadPoolExecutor

        def logged_build(*args):
            builders.setdefault(args[4], []).append(threading.get_ident())
            return build(*args)

        class LoggedPool(pool):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(pipeline, "_build_group", logged_build)
        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", LoggedPool)
        monkeypatch.setenv(pipeline.WORKERS_ENV_VAR, str(workers))
        report = run(store_config(store_corpus, out_dir=tmp_path / "out", budget_frames=200))
        assert pools == [workers, 1] * 2  # each epoch extracts, then builds
        assert sorted(builders) == [0, 1]
        for epoch, threads in builders.items():
            assert len(threads) >= report.epochs[epoch]["batch_count"] > 2
            assert len(set(threads)) == 1
            assert threading.get_ident() not in threads

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_write_is_fatal_and_leaves_nothing_running(
        self, store_corpus, tmp_path, monkeypatch, capsys, workers
    ):
        baseline = threading.active_count()
        events = self.spy_stream(monkeypatch, fail_at=3)
        monkeypatch.setenv(pipeline.WORKERS_ENV_VAR, str(workers))
        out = tmp_path / "out"
        code = cli_main(
            ["run", "--manifest", str(store_corpus), "--audio-root", str(store_corpus.parent),
             "--out", str(out), "--budget", "200", "--emit", "stream"]
        )
        path = out / "epoch-000.cabxs"
        message = f"cannot write {path}: No space left on device"
        assert code == 1
        assert capsys.readouterr().err == f"fatal: {message}\n"
        assert json.loads((out / "report.json").read_text())["error"] == message
        assert events == ["write"] * 3 + ["close"]
        assert threading.active_count() == baseline

    def test_failed_write_starts_no_build(self, store_corpus, tmp_path, monkeypatch):
        stop, started, late = builds_started_after(monkeypatch)

        def on_write(n):
            if n == 3:  # the write that fails
                stop.set()

        self.spy_stream(monkeypatch, fail_at=3, on_write=on_write)
        monkeypatch.setenv(pipeline.WORKERS_ENV_VAR, "4")
        config = store_config(
            store_corpus, out_dir=tmp_path / "out", emit="stream", budget_frames=200
        )
        with pytest.raises(ConfigurationError, match="No space left on device"):
            run(config)
        assert late == []
        # the run fails in epoch 0, and some of its builds were cancelled
        assert len(started) < audit(config).epochs[0]["batch_count"]

    def test_failed_batch_file_write_names_the_file(self, store_corpus, tmp_path, monkeypatch):
        written = []

        def write_batch_file(record, path):
            if len(written) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            written.append(path)

        monkeypatch.setattr(pipeline, "write_batch_file", write_batch_file)
        out = tmp_path / "out"
        path = out / "epoch-000" / "batch-00002.cabx"
        with pytest.raises(ConfigurationError, match=rf"^cannot write {re.escape(str(path))}: "):
            run(store_config(store_corpus, out_dir=out, budget_frames=200))

    def test_unopenable_stream_is_fatal(self, store_corpus, tmp_path, monkeypatch):
        clear = pipeline._clear_outputs

        def clear_then_block(out_dir):
            clear(out_dir)
            (out_dir / "epoch-000.cabxs").mkdir()

        monkeypatch.setattr(pipeline, "_clear_outputs", clear_then_block)
        path = tmp_path / "out" / "epoch-000.cabxs"
        message = rf"^cannot write {re.escape(str(path))}: Is a directory$"
        with pytest.raises(ConfigurationError, match=message):
            run(store_config(store_corpus, out_dir=tmp_path / "out", emit="stream"))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_build_error_while_a_write_is_in_flight(
        self, store_corpus, tmp_path, monkeypatch, workers
    ):
        baseline = threading.active_count()
        writing = threading.Event()
        build_failed = threading.Event()

        def on_write(n):
            if n == 2:  # hold the second write until the third build has failed
                writing.set()
                assert build_failed.wait(10)

        events = self.spy_stream(monkeypatch, on_write=on_write)
        lay_out = pipeline._lay_out
        calls = []

        def failing_lay_out(*args):
            calls.append(1)
            if len(calls) == 3:
                assert writing.wait(10)
                build_failed.set()
                raise BatchingError("corrupt record")
            return lay_out(*args)

        monkeypatch.setattr(pipeline, "_lay_out", failing_lay_out)
        monkeypatch.setenv(pipeline.WORKERS_ENV_VAR, str(workers))
        config = store_config(
            store_corpus, out_dir=tmp_path / "out", emit="stream", budget_frames=200
        )
        with pytest.raises(BatchingError, match="^corrupt record$"):
            run(config)
        assert events == ["write", "write", "close"]
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("emit", pipeline.EMIT_MODES)
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_records_alive_are_bounded(self, store_corpus, tmp_path, monkeypatch, workers, emit):
        lock = threading.Lock()
        alive = peak = 0
        buffers = {}  # id -> every distinct buffer a record was laid out in
        lay_out = pipeline._lay_out

        def released():
            nonlocal alive
            with lock:
                alive -= 1

        def counted_lay_out(*args):
            nonlocal alive, peak
            record = lay_out(*args)
            with lock:
                alive += 1
                peak = max(peak, alive)
                buffers.setdefault(id(record.buffer.base), record.buffer.base)
            weakref.finalize(record, released)
            return record

        # slow writes let the pool fill every slot it is allowed
        write_batch_file, stream_write = pipeline.write_batch_file, StreamWriter.write

        def slow(write):
            def slowed(*args):
                time.sleep(0.005)
                return write(*args)

            return slowed

        monkeypatch.setattr(pipeline, "_lay_out", counted_lay_out)
        monkeypatch.setattr(pipeline, "write_batch_file", slow(write_batch_file))
        monkeypatch.setattr(StreamWriter, "write", slow(stream_write))
        monkeypatch.setenv(pipeline.WORKERS_ENV_VAR, str(workers))
        report = run(store_config(
            store_corpus, out_dir=tmp_path / "out", emit=emit, budget_frames=200,
        ))
        assert report.totals["batches"] > 2 * (3 * workers - 1)
        assert peak <= 2  # one being written, one building
        assert alive == 0
        assert 0 < len(buffers) <= 2

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_two_record_buffers_when_records_are_laid_out_again(
        self, store_corpus, tmp_path, monkeypatch, workers
    ):
        """A record laid out again after a failed read is laid out in its
        own buffer, so the run hands out at most 2, whatever the pool
        size."""
        archive = tmp_path / "arch"
        run(store_config(store_corpus, out_dir=tmp_path / "fill", archive_dir=archive))
        at = record_span(archive, "u000001")[1] + 8  # a payload byte: its reads fail
        with open(archive / DATA_FILE, "r+b") as f:
            f.seek(at)
            byte = f.read(1)[0]
            f.seek(at)
            f.write(bytes([byte ^ 0x20]))
        laid_out = {}  # thread -> the buffer of each record it laid out
        write_batch_file, lay_out = pipeline.write_batch_file, pipeline._lay_out

        def counted_lay_out(*args):
            record = lay_out(*args)
            laid_out.setdefault(threading.get_ident(), []).append(record.buffer.base)
            return record

        def slow_write(*args):  # lets the pool fill every slot it is allowed
            time.sleep(0.005)
            write_batch_file(*args)

        monkeypatch.setattr(pipeline, "_lay_out", counted_lay_out)
        monkeypatch.setattr(pipeline, "write_batch_file", slow_write)
        monkeypatch.setenv(pipeline.WORKERS_ENV_VAR, str(workers))
        report = run(store_config(
            store_corpus, out_dir=tmp_path / "out", archive_dir=archive, budget_frames=200,
        ))
        assert any("checksum mismatch for 'u000001'" in d for d in report.diagnostics)
        again = sum(map(len, laid_out.values())) - report.totals["batches"]
        assert again > 0  # some records were laid out again, each in its first buffer
        assert sum(a is b for bs in laid_out.values() for a, b in zip(bs, bs[1:])) >= again
        buffers = {id(b) for bs in laid_out.values() for b in bs}
        assert len(buffers) <= 2

    def test_a_buffer_too_small_is_freed_before_its_replacement(self, monkeypatch):
        buffers = [None, None]
        record = pipeline.Record(1, 1, [1], [[7]], 0, lambda n: pipeline._buffer(buffers, 1, n))
        buffer = weakref.ref(record.buffer.base)
        assert pipeline._buffer(buffers, 1, 16) is buffer()  # a record that fits reuses it
        del record
        empty, alive = np.empty, []

        def recorded_empty(*args, **kwargs):
            alive.append(buffer() is not None)
            return empty(*args, **kwargs)

        monkeypatch.setattr(pipeline.np, "empty", recorded_empty)
        assert len(pipeline._buffer(buffers, 1, 1 << 20)) >= 1 << 20
        assert alive == [False]
        assert buffers[0] is None  # another place's buffer is not touched

    def test_two_record_buffers_under_many_workers_and_thread_switches(
        self, store_corpus, tmp_path, monkeypatch
    ):
        """Eight workers on fewer cores extract, and the build thread lays
        records out in the run's two buffers, while threads switch every
        10 us: the bytes are the one-worker bytes, so no buffer held two
        records at once."""
        def config(out):
            return store_config(store_corpus, out_dir=tmp_path / out, budget_frames=200)

        run(config("one"))
        monkeypatch.setenv(pipeline.WORKERS_ENV_VAR, "8")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run(config("many"))
        finally:
            sys.setswitchinterval(interval)
        assert read_tree(tmp_path / "many") == read_tree(tmp_path / "one")

    def test_no_build_reuses_a_buffer_while_its_record_is_written(
        self, store_corpus, tmp_path, monkeypatch
    ):
        changed = []
        write = StreamWriter.write

        def slow_write(self, record):
            before = bytes(record.buffer)
            time.sleep(0.005)  # the pool builds meanwhile
            write(self, record)
            changed.append(bytes(record.buffer) != before)

        monkeypatch.setattr(StreamWriter, "write", slow_write)
        monkeypatch.setenv(pipeline.WORKERS_ENV_VAR, "2")
        report = run(store_config(
            store_corpus, out_dir=tmp_path / "out", emit="stream", budget_frames=200
        ))
        assert len(changed) == report.totals["batches"] > 2 * (3 * 2 - 1)
        assert not any(changed)

    @pytest.mark.parametrize("emit", pipeline.EMIT_MODES)
    def test_a_run_killed_mid_epoch_leaves_no_partial_epoch(
        self, store_corpus, tmp_path, monkeypatch, emit
    ):
        class Killed(BaseException):
            pass

        writes = []
        at_kill = []  # out_dir as a kill at that moment would leave it
        write_batch_file, stream_write = pipeline.write_batch_file, StreamWriter.write

        def killed_at_the_write(write):
            def killing(*args):
                writes.append(1)
                if len(writes) == done + 2:  # the third write of epoch 1
                    at_kill.extend(sorted(p.name for p in out.iterdir()))
                    raise Killed
                return write(*args)

            return killing

        out = tmp_path / "out"
        config = store_config(store_corpus, out_dir=out, emit=emit, budget_frames=200)
        done = run(config).epochs[0]["batch_count"]
        expected = read_tree(out)
        monkeypatch.setattr(pipeline, "write_batch_file", killed_at_the_write(write_batch_file))
        monkeypatch.setattr(StreamWriter, "write", killed_at_the_write(stream_write))
        with pytest.raises(Killed):
            run(config)
        final = "epoch-000.cabxs" if emit == "stream" else "epoch-000"
        assert at_kill == [f".{final.replace('000', '001')}.tmp", final]
        assert sorted(p.name for p in out.iterdir()) == [final]  # the failed run cleaned up
        assert read_tree(out) == {
            name: data for name, data in expected.items() if name.startswith(final)
        }

    def test_rerun_removes_the_temporary_siblings_of_a_killed_run(self, store_corpus, tmp_path):
        out = tmp_path / "out"
        (out / ".epoch-001.tmp").mkdir(parents=True)
        (out / ".epoch-001.tmp" / "batch-00000.cabx").write_bytes(b"CABX")
        (out / ".epoch-002.cabxs.tmp").write_bytes(b"partial")
        (out / ".epoch-1.tmp").write_bytes(b"not ours")
        run(store_config(store_corpus, out_dir=out, emit="stream"))
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [".epoch-1.tmp", "report.json"] + [f"epoch-{e:03d}.cabxs" for e in range(2)]
        )


# A `run` that a SIGKILL stops at the k-th call, counted from 0, of a
# function (argv: the function as "module:attribute.path", k, then the
# CLI arguments). No `finally` runs, no buffer is flushed and the kernel
# drops the archive's lock. A kill in `os.pwrite`, which only the archive
# calls (call 0 writes its header), first writes half of that call's
# bytes, as a writer killed halfway through a record would.
KILLED_AT_A_CALL = """
import importlib, itertools, os, signal, sys
from concat_augment import cli

target, k, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
module, _, path = target.partition(":")
*outer, name = path.split(".")
owner = importlib.import_module(module)
for attribute in outer:
    owner = getattr(owner, attribute)
function, calls = getattr(owner, name), itertools.count()
torn = function is os.pwrite

def killing(*args, **kwargs):
    if next(calls) == k:
        if torn:
            fd, data, at = args
            function(fd, memoryview(data)[: len(data) // 2], at)
        os.kill(os.getpid(), signal.SIGKILL)
    return function(*args, **kwargs)

setattr(owner, name, killing)
sys.exit(cli.main(argv))
"""


def killed_run(target, k, args, env=None):
    """Run the CLI with ``args`` in a child that a SIGKILL stops at the
    k-th call of ``target`` (see ``KILLED_AT_A_CALL``)."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    child = subprocess.run(
        [sys.executable, "-c", KILLED_AT_A_CALL, target, str(k), *map(str, args)],
        env=env, capture_output=True, timeout=60,
    )
    assert child.returncode == -signal.SIGKILL, child.stderr.decode(errors="replace")


@pytest.fixture(scope="class")
def kill_corpus(tmp_path_factory):
    """8 utterances, and the out_dir of a finished 2-epoch run over them
    in each emit mode."""
    root = tmp_path_factory.mktemp("kills")
    manifest = write_audio_corpus(root / "c", 8, np.random.default_rng(51), n_speakers=2)
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(pipeline.WORKERS_ENV_VAR, raising=False)
        for emit in pipeline.EMIT_MODES:
            assert cli_main(kill_args(manifest, root / emit, "--emit", emit)) == 0
    return manifest, root


def kill_args(manifest, out, *more):
    return [
        "run", "--manifest", str(manifest), "--audio-root", str(manifest.parent),
        "--out", str(out), "--seed", "5", "--epochs", "2", "--budget", "300",
        "--specaugment", "on", *more,
    ]


class TestKills:
    # Each case kills a 2-worker run without --archive, whose scratch
    # archive goes to TMPDIR, and names the epochs it has finished.
    @pytest.mark.parametrize(
        "emit, target, k, done",
        [
            ("files", "concat_augment.pipeline:write_batch_file", "epoch 1", ["epoch-000"]),
            ("stream", "concat_augment.batchio:StreamWriter.write", "epoch 1", ["epoch-000.cabxs"]),
            ("files", "os:replace", 1, ["epoch-000"]),  # the rename of epoch 1
            # in AuditReport.write, before its rename
            ("stream", "os:replace", 2, ["epoch-000.cabxs", "epoch-001.cabxs"]),
            ("files", "os:pwrite", 3, []),  # in the scratch archive's third record
        ],
    )
    def test_a_killed_run_leaves_no_partial_output(
        self, kill_corpus, tmp_path, monkeypatch, emit, target, k, done
    ):
        """No final name holds a partial epoch, no report.json exists,
        nothing of the scratch archive is left in TMPDIR, and a rerun into
        the out_dir the kill left, at 1 or 2 workers, gives the finished
        run's bytes and report."""
        manifest, root = kill_corpus
        reference = root / emit
        expected = read_tree(reference)
        expected_report = strip_timings(json.loads((reference / "report.json").read_text()))
        if k == "epoch 1":  # the second batch of epoch 1
            k = expected_report["epochs"][0]["batch_count"] + 1
        out, tmp = tmp_path / "out", tmp_path / "tmp"
        tmp.mkdir()
        env = dict(os.environ, TMPDIR=str(tmp))
        env[pipeline.WORKERS_ENV_VAR] = "2"
        killed_run(target, k, kill_args(manifest, out, "--emit", emit), env)

        assert list(tmp.iterdir()) == []
        assert sorted(p.name for p in out.iterdir() if not p.name.startswith(".")) == done
        held = {name: data for name, data in read_tree(out).items() if not name.startswith(".")}
        assert held == {  # each epoch under its final name is whole
            name: data for name, data in expected.items() if name.split("/")[0] in done
        }
        for workers in (1, 2):
            rerun = tmp_path / f"rerun{workers}"
            shutil.copytree(out, rerun)
            monkeypatch.setenv(pipeline.WORKERS_ENV_VAR, str(workers))
            assert cli_main(kill_args(manifest, rerun, "--emit", emit)) == 0
            assert read_tree(rerun) == expected
            report = json.loads((rerun / "report.json").read_text())
            assert strip_timings(report) == expected_report

    def test_a_run_killed_inside_an_archive_append(self, tmp_path, monkeypatch):
        manifest = write_audio_corpus(tmp_path / "c", 8, np.random.default_rng(51), n_speakers=2)

        def run_args(out, archive):
            return kill_args(manifest, out, "--archive", str(archive))

        monkeypatch.delenv(pipeline.WORKERS_ENV_VAR, raising=False)
        assert cli_main(run_args(tmp_path / "ref", tmp_path / "ref-arch")) == 0
        expected = read_tree(tmp_path / "ref")
        expected_report = strip_timings(json.loads((tmp_path / "ref" / "report.json").read_text()))
        expected_archive = (tmp_path / "ref-arch" / DATA_FILE).read_bytes()
        with FeatureArchive(tmp_path / "ref-arch", mode="r") as reference:
            appended = reference.ids()

        k = 3
        out, archive = tmp_path / "out", tmp_path / "arch"
        killed_run("os:pwrite", k, run_args(out, archive))
        assert [p.name for p in out.iterdir() if not p.name.startswith(".")] == []
        torn = (archive / DATA_FILE).read_bytes()
        assert expected_archive.startswith(torn)  # k - 1 records and half of the k-th
        with FeatureArchive(archive, mode="r") as reader:
            assert reader.ids() == appended[: k - 1]

        for workers in (1, 2):
            rerun = tmp_path / f"rerun{workers}"
            shutil.copytree(archive, rerun / "arch")
            monkeypatch.setenv(pipeline.WORKERS_ENV_VAR, str(workers))
            assert cli_main(run_args(rerun / "out", rerun / "arch")) == 0
            assert read_tree(rerun / "out") == expected
            report = json.loads((rerun / "out" / "report.json").read_text())
            assert strip_timings(report) == expected_report
            assert (rerun / "arch" / DATA_FILE).read_bytes() == expected_archive


class TestAudit:
    def test_audit_matches_run_counts(self, tmp_path):
        rng = np.random.default_rng(8)
        manifest = write_audio_corpus(tmp_path / "c", 10, rng, n_speakers=3)
        common = dict(
            manifest_path=manifest,
            audio_root=manifest.parent,
            strategy=Strategy("speaker"),
            seed=4,
            epochs=2,
            budget_frames=600,
        )
        audited = audit(PipelineConfig(**common))
        ran = run(PipelineConfig(out_dir=tmp_path / "out", **common))
        for ea, er in zip(audited.epochs, ran.epochs):
            assert ea["planned"] == er["planned"]
            assert ea["dropped_by_filter"] == er["dropped_by_filter"]
            assert ea["excluded_by_strategy"] == er["excluded_by_strategy"]
            assert ea["batch_count"] == er["batch_count"]

    def test_speaker_strategy_without_speakers_is_fatal(self, tmp_path):
        rows = [(f"u{i}", f"u{i}.npy", 10, "1 2", "") for i in range(4)]
        manifest = tmp_path / "m.tsv"
        manifest.write_text(manifest_text(rows), encoding="utf-8")
        config = PipelineConfig(manifest_path=manifest, strategy=Strategy("speaker"))
        with pytest.raises(ConfigurationError):
            audit(config)

    @pytest.mark.parametrize(
        "include_original, named",
        [(True, r"\('u2',\) has 500 frames"), (False, r"\('u1', 'u1'\) has 600 frames")],
    )
    def test_over_budget_instance_is_named_by_its_ids(self, tmp_path, include_original, named):
        rows = [("u1", "a.npy", 300, "1", "s"), ("u2", "b.npy", 500, "2", "s")]
        manifest = tmp_path / "m.tsv"
        manifest.write_text(manifest_text(rows), encoding="utf-8")
        config = PipelineConfig(
            manifest_path=manifest,
            strategy=Strategy("self"),
            include_original=include_original,
            budget_frames=400,
            report_path=tmp_path / "r.json",
        )
        with pytest.raises(BatchingError, match=named + ", over the budget of 400"):
            audit(config)
        assert "over the budget" in json.loads((tmp_path / "r.json").read_text())["error"]

    def test_audit_starts_no_thread(self, tmp_path, monkeypatch):
        rows = [(f"u{i}", f"missing{i}.wav", 100 + i, "1 2 3", f"s{i % 4}") for i in range(60)]
        manifest = tmp_path / "m.tsv"
        manifest.write_text(manifest_text(rows), encoding="utf-8")
        config = PipelineConfig(manifest_path=manifest, seed=3, epochs=2, budget_frames=700)
        expected = audit(config)

        def no_pool(*args, **kwargs):
            raise AssertionError("audit started a thread pool")

        monkeypatch.setenv(pipeline.WORKERS_ENV_VAR, "4")
        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", no_pool)
        report = audit(config)
        assert report.totals["batches"] > 4
        assert strip_timings(report.to_dict()) == strip_timings(expected.to_dict())

    def test_audit_needs_no_audio(self, tmp_path):
        rows = [(f"u{i}", f"missing{i}.wav", 100 + i, "1 2 3", "s") for i in range(50)]
        manifest = tmp_path / "m.tsv"
        manifest.write_text(manifest_text(rows), encoding="utf-8")
        report = audit(PipelineConfig(manifest_path=manifest, seed=1, epochs=3))
        assert report.totals["epochs"] == 3
        report.check_consistency()


class TestAblation:
    def test_no_original_leaves_no_single_utterance_instances(self, tmp_path):
        rng = np.random.default_rng(9)
        manifest = write_audio_corpus(tmp_path / "c", 10, rng)
        config = PipelineConfig(
            manifest_path=manifest,
            audio_root=manifest.parent,
            include_original=False,
            seed=6,
            epochs=1,
            budget_frames=600,
        )
        for batch in iter_epoch_batches(config, epoch=0):
            for provenance in batch.instance_ids:
                assert len(provenance) == 2

    def test_default_ratio_one_to_one(self, tmp_path):
        rng = np.random.default_rng(10)
        manifest = write_audio_corpus(tmp_path / "c", 12, rng)
        report = audit(
            PipelineConfig(manifest_path=manifest, audio_root=manifest.parent, epochs=1)
        )
        epoch = report.epochs[0]
        assert epoch["planned"] == epoch["originals_in"] - epoch["excluded_by_strategy"]

    def test_self_only_histogram(self, tmp_path):
        rng = np.random.default_rng(11)
        manifest = write_audio_corpus(tmp_path / "c", 5, rng)
        report = audit(
            PipelineConfig(
                manifest_path=manifest,
                strategy=Strategy("self"),
                include_original=False,
                epochs=1,
            )
        )
        assert set(report.epochs[0]["strategy_histogram"]) == {"self"}


class TestCli:
    def test_run_and_audit_commands(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        manifest = write_audio_corpus(tmp_path / "c", 6, rng, n_speakers=2)
        code = cli_main(
            [
                "run",
                "--manifest", str(manifest),
                "--strategy", "random",
                "--seed", "7",
                "--epochs", "2",
                "--budget", "600",
                "--max-frames", "3000",
                "--audio-root", str(manifest.parent),
                "--out", str(tmp_path / "out"),
                "--specaugment", "on",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "epoch 0:" in out and "epoch 1:" in out
        assert (tmp_path / "out" / "report.json").exists()
        assert any((tmp_path / "out" / "epoch-000").glob("*.cabx"))

        code = cli_main(
            ["audit", "--manifest", str(manifest), "--report", str(tmp_path / "a.json")]
        )
        assert code == 0
        assert json.loads((tmp_path / "a.json").read_text())["epochs"]

    def test_no_original_flag(self, tmp_path, capsys):
        rng = np.random.default_rng(13)
        manifest = write_audio_corpus(tmp_path / "c", 4, rng)
        code = cli_main(
            ["audit", "--manifest", str(manifest), "--no-original",
             "--report", str(tmp_path / "r.json")]
        )
        assert code == 0
        doc = json.loads((tmp_path / "r.json").read_text())
        assert "original" not in doc["epochs"][0]["strategy_histogram"]

    def test_fatal_error_exit_code(self, tmp_path, capsys):
        rows = [("u1", "a.npy", 10, "1", "")]
        manifest = tmp_path / "m.tsv"
        manifest.write_text(manifest_text(rows), encoding="utf-8")
        code = cli_main(["audit", "--manifest", str(manifest), "--strategy", "speaker"])
        assert code == 1
        assert "fatal" in capsys.readouterr().err

    def test_audit_drops_concatenations_whose_frame_count_overflows(self, tmp_path, capsys):
        rows = [("u1", "a.npy", 2**62, "1", ""), ("u2", "b.npy", 2**62, "2", "")]
        manifest = tmp_path / "m.tsv"
        manifest.write_text(manifest_text(rows), encoding="utf-8")
        code = cli_main(["audit", "--manifest", str(manifest), "--strategy", "random"])
        assert code == 0
        epoch = capsys.readouterr().out.splitlines()[2]
        assert "filtered orig/aug=2/2 emitted=0 batches=0" in epoch

    def test_bad_workers_env_var_is_fatal_before_output(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(14)
        manifest = write_audio_corpus(tmp_path / "c", 3, rng)
        monkeypatch.setenv("CONCAT_AUGMENT_WORKERS", "abc")
        code = cli_main(
            ["run", "--manifest", str(manifest), "--audio-root", str(manifest.parent),
             "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert "fatal" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, flags, named",
        [
            ("run", ["--arity", "1"], "arity"),
            ("run", ["--sa-freq", "-1", "--specaugment", "on"], "mask width"),
            ("run", ["--pad-id", "-1"], "target_pad_id"),
            ("run", ["--pad-id", str(2**32)], "target_pad_id"),
            ("run", ["--epochs", "-1"], "epochs"),
            ("run", ["--epochs", "0"], "epochs"),
            ("run", ["--budget", "0"], "budget_frames"),
            ("audit", ["--max-frames", "0"], "max_frames"),
        ],
    )
    def test_bad_config_is_fatal_before_output(self, tmp_path, capsys, command, flags, named):
        rng = np.random.default_rng(15)
        manifest = write_audio_corpus(tmp_path / "c", 3, rng)
        out = tmp_path / "out"
        code = cli_main(
            [command, "--manifest", str(manifest), "--audio-root", str(manifest.parent),
             "--out", str(out), *flags]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("fatal:")
        assert named in err
        assert not out.exists()

    def test_run_out_that_is_a_file_is_fatal_before_epoch_0(self, tmp_path, capsys, monkeypatch):
        manifest = write_audio_corpus(tmp_path / "c", 3, np.random.default_rng(16))
        out = tmp_path / "out"
        out.write_text("not a directory", encoding="utf-8")

        def no_epoch(*args, **kwargs):
            raise AssertionError("an epoch was planned")

        monkeypatch.setattr(pipeline, "plan_epoch", no_epoch)
        code = cli_main(
            ["run", "--manifest", str(manifest), "--audio-root", str(manifest.parent),
             "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("fatal:") and str(out) in err
        assert out.read_text(encoding="utf-8") == "not a directory"

    def test_run_archive_under_a_file_is_fatal(self, tmp_path, capsys):
        manifest = write_audio_corpus(tmp_path / "c", 3, np.random.default_rng(18))
        blocker = tmp_path / "file"
        blocker.write_text("not a directory", encoding="utf-8")
        archive = blocker / "arch"
        code = cli_main(
            ["run", "--manifest", str(manifest), "--audio-root", str(manifest.parent),
             "--out", str(tmp_path / "out"), "--archive", str(archive)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("fatal: cannot open archive") and str(archive) in err
        assert str(archive) in json.loads((tmp_path / "out" / "report.json").read_text())["error"]
        assert blocker.read_text(encoding="utf-8") == "not a directory"

    def test_audit_out_that_is_a_file_is_fatal(self, tmp_path, capsys):
        manifest = write_audio_corpus(tmp_path / "c", 3, np.random.default_rng(17))
        out = tmp_path / "out"
        out.write_text("not a directory", encoding="utf-8")
        code = cli_main(["audit", "--manifest", str(manifest), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("fatal:") and str(out) in err
        assert out.read_text(encoding="utf-8") == "not a directory"

    def test_report_in_a_missing_directory_is_fatal(self, tmp_path, capsys):
        manifest = write_audio_corpus(tmp_path / "c", 3, np.random.default_rng(18))
        report_path = tmp_path / "missing" / "r.json"
        code = cli_main(["audit", "--manifest", str(manifest), "--report", str(report_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("fatal:") and str(report_path) in err
        assert not (tmp_path / "missing").exists()

    def test_missing_manifest_exit_code(self, tmp_path, capsys):
        code = cli_main(["audit", "--manifest", str(tmp_path / "nope.tsv")])
        assert code == 1
        assert "manifest" in capsys.readouterr().err

    def test_partial_report_on_fatal(self, tmp_path):
        rows = [("u1", "a.npy", 10, "1", "")]
        manifest = tmp_path / "m.tsv"
        manifest.write_text(manifest_text(rows), encoding="utf-8")
        report_path = tmp_path / "partial.json"
        code = cli_main(
            ["audit", "--manifest", str(manifest), "--strategy", "speaker",
             "--report", str(report_path)]
        )
        assert code == 1
        assert "error" in json.loads(report_path.read_text())
