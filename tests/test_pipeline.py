import gc
import json
import os
import re
import sys
import tempfile
import threading
import warnings
from collections import Counter

import numpy as np
import pytest

from concat_augment import pipeline
from concat_augment.archive import FeatureArchive
from concat_augment.augment import Strategy
from concat_augment.batchio import iter_stream, read_batch_file
from concat_augment.cli import main as cli_main
from concat_augment.errors import BatchingError, ConfigurationError
from concat_augment.features import FeatureConfig, load_or_compute
from concat_augment.manifest import load_manifest
from concat_augment.pipeline import (
    PipelineConfig,
    audit,
    format_summary,
    iter_epoch_batches,
    run,
)
from concat_augment.specaugment import MaskPolicy

from conftest import manifest_text, pcm_samples_for_frames, write_audio_corpus


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

    def test_worker_pool_does_not_change_bytes(self, tmp_path):
        rng = np.random.default_rng(6)
        manifest = write_audio_corpus(tmp_path / "c", 16, rng)

        def one_run(out, workers):
            config = PipelineConfig(
                manifest_path=manifest,
                out_dir=out,
                audio_root=manifest.parent,
                seed=9,
                epochs=1,
                budget_frames=600,
                specaugment=MaskPolicy(),
                workers=workers,
            )
            run(config)

        one_run(tmp_path / "o1", workers=1)
        one_run(tmp_path / "o2", workers=4)
        assert read_tree(tmp_path / "o1") == read_tree(tmp_path / "o2")

    def test_workers_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONCAT_AUGMENT_WORKERS", "3")
        assert PipelineConfig(manifest_path="x").resolved_workers() == 3
        for bad in ("abc", "0"):
            monkeypatch.setenv("CONCAT_AUGMENT_WORKERS", bad)
            with pytest.raises(ConfigurationError, match=f"CONCAT_AUGMENT_WORKERS.*{bad}"):
                PipelineConfig(manifest_path="x").resolved_workers()
        monkeypatch.delenv("CONCAT_AUGMENT_WORKERS")
        assert PipelineConfig(manifest_path="x").resolved_workers() == 1
        for bad in (0, -2):
            with pytest.raises(ConfigurationError, match=f"workers must be >= 1, got {bad}"):
                PipelineConfig(manifest_path="x", workers=bad).resolved_workers()
        with pytest.raises(ConfigurationError, match="workers"):
            run(PipelineConfig(manifest_path="x", out_dir=tmp_path / "out", workers=0))
        assert not (tmp_path / "out").exists()

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
        shards = sorted((tmp_path / "arch").glob("shard-*.bin"))
        sizes = [p.stat().st_size for p in shards]
        assert list(iter_epoch_batches(config, epoch=0))
        # the second call is served from the shards the first one wrote
        assert [p.stat().st_size for p in shards] == sizes
        assert sorted((tmp_path / "arch").glob("shard-*.bin")) == shards
        archive = FeatureArchive(tmp_path / "arch", "r")
        assert all(f"u{i:06d}" in archive for i in range(12))


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
        workers=1,
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
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread switches inside the pool
        try:
            report = run(store_config(store_corpus, out_dir=tmp_path / "out", workers=workers))
        finally:
            sys.setswitchinterval(interval)
        ids = {u.id for u in load_manifest(store_corpus).utterances}
        assert set(calls) == ids
        assert set(calls.values()) == {1}
        assert report.totals["materialization_failures"] > 0
        report.check_consistency()

    def test_prefilled_archive_gives_same_bytes_and_report(self, store_corpus, tmp_path):
        cfg = FeatureConfig()
        with FeatureArchive(tmp_path / "arch", mode="a") as archive:
            for utt in load_manifest(store_corpus).utterances:
                if utt.id != MISSING:
                    archive.write(utt.id, load_or_compute(utt, cfg, audio_root=store_corpus.parent))
        scratch = run(store_config(store_corpus, out_dir=tmp_path / "o1"))
        fed = run(store_config(store_corpus, out_dir=tmp_path / "o2", archive_dir=tmp_path / "arch"))
        assert read_tree(tmp_path / "o1") == read_tree(tmp_path / "o2")
        assert strip_timings(scratch.to_dict()) == strip_timings(fed.to_dict())
        assert any(MISSING in d for d in fed.diagnostics)

    def test_archive_bytes_do_not_depend_on_workers(self, store_corpus, tmp_path):
        for workers in (1, 2):
            run(store_config(
                store_corpus, out_dir=tmp_path / f"o{workers}",
                archive_dir=tmp_path / f"arch{workers}", workers=workers,
            ))
        one = read_tree(tmp_path / "arch1")
        assert any(name.startswith("shard-") for name in one)
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
        held = []

        def fail_second(batch, path):
            if held:
                raise RuntimeError("disk full")
            held.extend(scratch_root.iterdir())

        monkeypatch.setattr(pipeline, "write_batch_file", fail_second)
        with pytest.raises(RuntimeError, match="disk full"):
            run(store_config(store_corpus, out_dir=tmp_path / "out"))
        assert held  # the scratch archive existed mid-epoch
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
        utterances = [u for u in load_manifest(store_corpus).utterances if u.id != MISSING]
        with FeatureArchive(tmp_path / "arch", mode="a") as archive:
            for utt in utterances:
                feats = load_or_compute(utt, FeatureConfig(), audio_root=store_corpus.parent)
                archive.write(utt.id, feats[:, :40] if utt is utterances[-1] else feats)
        config = store_config(store_corpus, out_dir=tmp_path / "out", archive_dir=tmp_path / "arch")
        with pytest.raises(ConfigurationError, match=f"40-bin features for '{utterances[-1].id}'"):
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
