"""Per-epoch orchestration: plan, filter, batch, mask, emit, report.

One epoch engine runs plan -> filter -> compose for every epoch and
yields each batch group's result in plan order; ``run``, ``audit`` and
``iter_epoch_batches`` are sinks over it, so ``audit`` reports exactly
the plan and counts ``run`` emits. Planning, filtering and batch
composition run on manifest metadata only (frame counts are exactly
additive under concatenation), so the full augmented corpus is never
resident in memory. When features are loaded, each utterance's log-Mel
matrix is extracted once per run into a feature store (the run's
archive) before the first epoch that references it; batches are then
materialized lazily from the store, masked, collated, and written by a
single writer in plan order. A configurable worker pool runs the
extraction and overlaps materialization with writing without ever
reordering batches or archive records.

Reports are JSON; all wall-clock measurements live under ``timings_s``
keys so reproducibility checks can strip them.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .archive import FeatureArchive
from .augment import Strategy, TrainingInstance, length_filter, plan_epoch, with_features
from .batching import ACCOUNTING_MODES, Batch, compose_batches, pad_and_collate
from .batchio import StreamWriter, write_batch_file
from .errors import (
    BatchingError,
    ConfigurationError,
    FeatureError,
    MaterializationError,
    PipelineError,
)
from .features import FeatureConfig, load_or_compute
from .manifest import (
    ParseResult,
    SpeakerIndex,
    Utterance,
    build_speaker_index,
    ingestion_report,
    load_manifest,
)
from .rng import MASK_STREAM, keyed_rng
from .specaugment import MaskPolicy, apply_masks

WORKERS_ENV_VAR = "CONCAT_AUGMENT_WORKERS"

EMIT_MODES = ("files", "stream")


@dataclass
class PipelineConfig:
    manifest_path: str | Path
    out_dir: str | Path | None = None
    report_path: str | Path | None = None
    corpus_mode: str = "tokens"
    strategy: Strategy = field(default_factory=lambda: Strategy("random"))
    seed: int = 0
    epochs: int = 1
    max_frames: int = 3000
    budget_frames: int = 40000
    include_original: bool = True
    specaugment: MaskPolicy | None = None
    feature: FeatureConfig = field(default_factory=FeatureConfig)
    bucketing: bool = True
    accounting: str = "padded"
    emit: str = "files"
    target_pad_id: int = 0
    audio_root: str | Path | None = None
    archive_dir: str | Path | None = None
    workers: int | None = None  # None -> CONCAT_AUGMENT_WORKERS or 1

    def resolved_workers(self) -> int:
        if self.workers is not None:
            if self.workers < 1:
                raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
            return self.workers
        env = os.environ.get(WORKERS_ENV_VAR)
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ConfigurationError(f"{WORKERS_ENV_VAR} must be an integer >= 1, got {env!r}")
        return workers

    def summary(self) -> dict:
        return {
            "manifest": str(self.manifest_path),
            "corpus_mode": self.corpus_mode,
            "strategy": self.strategy.kind,
            "arity": self.strategy.k,
            "seed": self.seed,
            "epochs": self.epochs,
            "max_frames": self.max_frames,
            "budget_frames": self.budget_frames,
            "include_original": self.include_original,
            "specaugment": None
            if self.specaugment is None
            else {
                "freq_param": self.specaugment.freq_param,
                "time_param": self.specaugment.time_param,
                "n_freq_masks": self.specaugment.n_freq_masks,
                "n_time_masks": self.specaugment.n_time_masks,
                "mask_value": self.specaugment.mask_value,
            },
            "feature": {
                "sample_rate_hz": self.feature.sample_rate_hz,
                "n_mels": self.feature.n_mels,
                "win_ms": self.feature.win_ms,
                "hop_ms": self.feature.hop_ms,
                "fft_size": self.feature.n_fft,
                "log_floor": self.feature.log_floor,
                "mean_var_norm": self.feature.mean_var_norm,
            },
            "bucketing": self.bucketing,
            "accounting": self.accounting,
            "emit": self.emit,
            "target_pad_id": self.target_pad_id,
        }


@dataclass
class AuditReport:
    """Machine-readable run summary; one entry per epoch."""

    config: dict
    ingestion: dict
    epochs: list[dict] = field(default_factory=list)
    totals: dict = field(default_factory=dict)
    timings_s: dict = field(default_factory=dict)
    diagnostics: list[str] = field(default_factory=list)
    error: str | None = None

    def to_dict(self) -> dict:
        doc = {
            "config": self.config,
            "ingestion": self.ingestion,
            "epochs": self.epochs,
            "totals": self.totals,
            "diagnostics": self.diagnostics,
            "timings_s": self.timings_s,
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc

    def write(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2)
            f.write("\n")

    def check_consistency(self) -> None:
        """Assert the count identities every epoch entry must satisfy."""
        for ep in self.epochs:
            planned = ep["planned"]
            if planned != ep["materialized"] + ep["materialization_failures"]:
                raise AssertionError(f"epoch {ep['epoch']}: planned != materialized + failures")
            survivors = sum(ep["strategy_histogram"].values())
            failed = ep["materialization_failures"] + ep["failed_originals"]
            if ep["emitted_instances"] != survivors - failed:
                raise AssertionError(f"epoch {ep['epoch']}: emitted != survivors - failures")


class _FeatureStore:
    """Every utterance's features for one run, extracted at most once.

    :meth:`extract` computes, on the worker pool, the ids a batch plan
    references that the store does not hold yet; the calling thread, the
    one writer, appends them to a :class:`FeatureArchive` in first-use
    order, so the archive's bytes do not depend on the pool size. The
    archive is the user's ``archive_dir``, or a scratch one in a
    temporary directory; it is opened at the first extraction and
    :meth:`close` removes the scratch directory. After an extraction
    :meth:`load` reads without a lock. An id fails when its audio does
    not load or its features' frame count (the archive index's ``T``) is
    not its manifest ``n_frames``; it keeps its message, and every load
    of it raises ``FeatureError(message)``.
    """

    def __init__(self, config: PipelineConfig, by_id: dict[str, Utterance]):
        self._config = config
        self._by_id = by_id
        self._archive: FeatureArchive | None = None
        self._scratch: tempfile.TemporaryDirectory | None = None
        self._failed: dict[str, str] = {}

    def _open(self) -> FeatureArchive:
        if self._config.archive_dir is None:
            self._scratch = tempfile.TemporaryDirectory(prefix="concat-augment-")
            return FeatureArchive(self._scratch.name, mode="a")
        archive = FeatureArchive(self._config.archive_dir, mode="a")
        n_mels = self._config.feature.n_mels
        for utt_id in archive.ids():
            width = archive.shape(utt_id)[1]
            if width != n_mels:
                archive.close()
                raise ConfigurationError(
                    f"archive {self._config.archive_dir} holds {width}-bin features "
                    f"for {utt_id!r}; the feature config asks for {n_mels} mels"
                )
            if utt_id in self._by_id:
                self._check_frames(archive, utt_id)
        return archive

    def _check_frames(self, archive: FeatureArchive, utt_id: str) -> None:
        frames = archive.shape(utt_id)[0]
        expected = self._by_id[utt_id].n_frames
        if frames != expected:
            self._failed[utt_id] = (
                f"utterance {utt_id}: manifest says {expected} frames, features have {frames}"
            )

    def extract(self, groups: list[list[TrainingInstance]], workers: int) -> None:
        if self._archive is None:
            self._archive = self._open()
        archive = self._archive
        missing = dict.fromkeys(
            utt_id
            for group in groups
            for inst in group
            for utt_id in inst.constituents
            if utt_id not in archive and utt_id not in self._failed
        )
        for utt_id, feats, error in _ordered_pool_map(self._compute, missing, workers):
            if error is None:
                archive.write(utt_id, feats)
                self._check_frames(archive, utt_id)
            else:
                self._failed[utt_id] = error

    def _compute(self, utt_id: str) -> tuple[str, np.ndarray | None, str | None]:
        try:
            feats = load_or_compute(
                self._by_id[utt_id], self._config.feature, audio_root=self._config.audio_root
            )
        except Exception as exc:  # with_features drops an instance on any failed load
            return utt_id, None, str(exc)
        return utt_id, feats, None

    def load(self, utt_id: str) -> np.ndarray:
        error = self._failed.get(utt_id)
        if error is not None:
            raise FeatureError(error)
        return self._archive.read(utt_id)

    def close(self) -> None:
        try:
            if self._archive is not None:
                self._archive.close()
        finally:
            if self._scratch is not None:
                self._scratch.cleanup()


@dataclass
class _Prepared:
    parse: ParseResult
    utterances: list[Utterance]
    by_id: dict[str, Utterance]
    index: SpeakerIndex
    frames: np.ndarray  # every utterance's manifest frame count, in list order
    store: _FeatureStore | None


def _prepare(config: PipelineConfig, with_loader: bool) -> _Prepared:
    try:
        parse = load_manifest(config.manifest_path, config.corpus_mode)
    except OSError as exc:
        raise ConfigurationError(f"cannot read manifest: {exc}") from exc
    utterances = parse.utterances
    if not utterances:
        raise ConfigurationError(f"manifest {config.manifest_path} has no accepted utterances")
    by_id = {u.id: u for u in utterances}
    index = build_speaker_index(utterances)
    frames = np.array([u.n_frames for u in utterances], dtype=np.int64)
    store = _FeatureStore(config, by_id) if with_loader else None
    return _Prepared(parse, utterances, by_id, index, frames, store)


@dataclass
class _Group:
    """One composed group's result: its batch (None in an audit, or when
    every instance failed to load), its size and its frame mass."""

    batch: Batch | None
    size: int
    padded_frames: int
    true_frames: int
    failed_original: int = 0
    failed_augmented: int = 0
    diagnostics: list[str] = field(default_factory=list)


def _build_group(
    ordinals: list[int],
    instances: list[TrainingInstance],
    config: PipelineConfig,
    epoch: int,
    load: Callable,
) -> _Group:
    kept = []
    failed_original = 0
    failed_augmented = 0
    diagnostics = []
    for ordinal, inst in zip(ordinals, instances):
        try:
            materialized = with_features(inst, load)
        except MaterializationError as exc:
            if inst.is_original:
                failed_original += 1
            else:
                failed_augmented += 1
            diagnostics.append(f"epoch {epoch}: dropped {inst.constituents}: {exc}")
            continue
        if config.specaugment is not None:
            rng = keyed_rng(config.seed, MASK_STREAM, epoch, ordinal)
            materialized = replace(
                materialized, features=apply_masks(materialized.features, config.specaugment, rng)
            )
        kept.append(materialized)
    if not kept:
        return _Group(None, 0, 0, 0, failed_original, failed_augmented, diagnostics)
    batch = pad_and_collate(kept, config.target_pad_id)
    return _Group(
        batch,
        batch.size,
        batch.padded_frames,
        sum(batch.feature_lengths),
        failed_original,
        failed_augmented,
        diagnostics,
    )


def _sized_group(frames: np.ndarray) -> _Group:
    """A metadata-only group: sizes from the manifest's frame counts."""
    return _Group(None, len(frames), len(frames) * int(frames.max()), int(frames.sum()))


_EXHAUSTED = object()


def _ordered_pool_map(fn, items, workers: int):
    """Map with a worker pool, yielding results strictly in input order.

    The in-flight window is bounded (2x workers) so producers stall
    instead of racing ahead of the writer.
    """
    if workers <= 1:
        for item in items:
            yield fn(item)
        return
    items = iter(items)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        while len(pending) < 2 * workers:
            item = next(items, _EXHAUSTED)
            if item is _EXHAUSTED:
                break
            pending.append(pool.submit(fn, item))
        while pending:
            done = pending.popleft()
            item = next(items, _EXHAUSTED)
            if item is not _EXHAUSTED:
                pending.append(pool.submit(fn, item))
            yield done.result()


def _check_config(config: PipelineConfig) -> None:
    """Reject a setting no epoch can run with, naming it and its value."""
    for name in ("epochs", "budget_frames", "max_frames"):
        value = getattr(config, name)
        if value < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {value}")
    if config.accounting not in ACCOUNTING_MODES:
        raise ConfigurationError(
            f"unknown accounting mode {config.accounting!r}; expected one of {ACCOUNTING_MODES}"
        )
    if not 0 <= config.target_pad_id < 2**32:
        raise ConfigurationError(
            f"target_pad_id must fit in an unsigned 32-bit field, got {config.target_pad_id}"
        )


def _epochs(
    config: PipelineConfig, epochs: Iterable[int], report: AuditReport, load_features: bool
) -> Iterator[tuple[int, Iterator[_Group]]]:
    """The epoch engine behind ``run``, ``audit`` and ``iter_epoch_batches``.

    Yields ``(epoch, groups)`` per epoch, where ``groups`` yields every
    non-empty group in plan order and, once exhausted, appends the
    epoch's entry to ``report``. The feature store is closed when the
    engine ends, however it ends. A bad setting is fatal before the
    manifest is read or any output exists.
    """
    workers = config.resolved_workers()
    _check_config(config)
    prepared = _prepare(config, with_loader=load_features)
    report.ingestion = ingestion_report(prepared.parse, prepared.index)
    if not load_features:
        workers = 1  # metadata-only groups gain nothing from threads
    try:
        for epoch in epochs:
            yield epoch, _epoch(prepared, config, epoch, workers, report)
    finally:
        if prepared.store is not None:
            prepared.store.close()


def _epoch(
    prepared: _Prepared, config: PipelineConfig, epoch: int, workers: int, report: AuditReport
) -> Iterator[_Group]:
    """Plan, filter and compose one epoch on position arrays, build the
    instances of its batches and extract the features they reference
    now; return the generator that builds its groups. Only the groups
    outlive this call, so the engine holds one epoch's lists at a time.
    An audit builds no instance: it sizes each group from frame counts."""
    t0 = time.perf_counter()
    plan = plan_epoch(prepared.utterances, prepared.index, config.strategy, config.seed, epoch)
    survivors = length_filter(plan, prepared.frames, config.max_frames, config.include_original)
    t_plan = time.perf_counter()
    over = np.flatnonzero(survivors.frames > config.budget_frames)
    if over.size:
        inst = survivors.instance(int(over[0]), prepared.by_id)
        raise BatchingError(
            f"instance {inst.constituents} has {inst.n_frames} frames, "
            f"over the budget of {config.budget_frames}"
        )
    groups = compose_batches(
        survivors.frames,
        config.budget_frames,
        config.seed,
        epoch,
        config.bucketing,
        config.accounting,
    )
    t_compose = time.perf_counter()
    if prepared.store is None:
        jobs = [survivors.frames[group] for group in groups]
        build = _sized_group
    else:
        # Built in the main thread, groups then members then constituents,
        # so the store extracts (and archives) ids in first-use order.
        jobs = []
        for group in groups:
            ordinals = group.tolist()
            jobs.append((ordinals, [survivors.instance(r, prepared.by_id) for r in ordinals]))
        prepared.store.extract([instances for _, instances in jobs], workers)
        load = prepared.store.load

        def build(job):
            return _build_group(*job, config, epoch, load)

    t_extract = time.perf_counter()

    histogram: dict[str, int] = {}
    if len(survivors.originals):
        histogram["original"] = len(survivors.originals)
    if len(survivors.augmented):
        histogram[config.strategy.kind] = len(survivors.augmented)
    planned = len(plan)
    excluded = len(plan.excluded)
    originals_in = len(prepared.utterances) if config.include_original else 0
    dropped = {"original": survivors.dropped_original, "augmented": survivors.dropped_augmented}

    def results():
        failed_original = failed_augmented = batches = emitted = padded = true = 0
        for built in _ordered_pool_map(build, jobs, workers):
            failed_original += built.failed_original
            failed_augmented += built.failed_augmented
            report.diagnostics.extend(built.diagnostics)
            if built.size:
                batches += 1
                emitted += built.size
                padded += built.padded_frames
                true += built.true_frames
                yield built
        report.epochs.append(
            {
                "epoch": epoch,
                "planned": planned,
                "excluded_by_strategy": excluded,
                "originals_in": originals_in,
                "dropped_by_filter": dropped,
                "materialized": planned - failed_augmented,
                "materialization_failures": failed_augmented,
                "failed_originals": failed_original,
                "emitted_instances": emitted,
                "total_frames_emitted": true,
                "strategy_histogram": histogram,
                "batch_count": batches,
                "padding_waste": (padded - true) / padded if padded else 0.0,
                "timings_s": {
                    "plan_and_filter": t_plan - t0,
                    "compose": t_compose - t_plan,
                    "extract_features": t_extract - t_compose,
                    "materialize_and_emit": time.perf_counter() - t_extract,
                },
            }
        )

    return results()


def _drive(
    config: PipelineConfig, sink: Callable[[int, Iterator[_Group]], object], load_features: bool
) -> AuditReport:
    """Feed every epoch of the engine to ``sink``, then total and write the report."""
    if config.emit not in EMIT_MODES:
        raise ConfigurationError(f"unknown emit mode {config.emit!r}")
    started = time.perf_counter()
    report = AuditReport(config=config.summary(), ingestion={})
    engine = _epochs(config, range(config.epochs), report, load_features)
    try:
        for epoch, groups in engine:
            sink(epoch, groups)
    except PipelineError as exc:
        if report.ingestion:  # the manifest was read: record how far the epochs got
            report.error = str(exc)
            _write_report(report, config)
        raise
    finally:
        engine.close()

    report.totals = {
        "epochs": len(report.epochs),
        "batches": sum(e["batch_count"] for e in report.epochs),
        "emitted_instances": sum(e["emitted_instances"] for e in report.epochs),
        "total_frames_emitted": sum(e["total_frames_emitted"] for e in report.epochs),
        "materialization_failures": sum(e["materialization_failures"] for e in report.epochs),
    }
    report.timings_s["total"] = time.perf_counter() - started
    _write_report(report, config)
    return report


def _write_report(report: AuditReport, config: PipelineConfig) -> None:
    path = config.report_path
    if path is None and config.out_dir is not None:
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
        path = Path(config.out_dir) / "report.json"
    if path is not None:
        report.write(path)


def run(config: PipelineConfig) -> AuditReport:
    """Plan, materialize, mask, batch and write every epoch; report.

    Emits batch artifacts in the configured binary format plus a JSON
    report. All emitted bytes are a pure function of (manifest, config,
    seed); only the report's ``timings_s`` fields vary between reruns.
    """
    if config.out_dir is None:
        raise ConfigurationError("run requires an output directory")
    out_dir = Path(config.out_dir)

    def write(epoch: int, groups: Iterator[_Group]) -> None:
        if config.emit == "stream":
            out_dir.mkdir(parents=True, exist_ok=True)
            with StreamWriter(out_dir / f"epoch-{epoch:03d}.cabxs") as writer:
                for built in groups:
                    writer.write(built.batch)
        else:
            epoch_dir = out_dir / f"epoch-{epoch:03d}"
            epoch_dir.mkdir(parents=True, exist_ok=True)
            for index, built in enumerate(groups):
                write_batch_file(built.batch, epoch_dir / f"batch-{index:05d}.cabx")

    return _drive(config, write, load_features=True)


def audit(config: PipelineConfig) -> AuditReport:
    """Dry run through the same engine as :func:`run`: identical planning,
    filtering and batch composition, with frame counts taken from the
    manifest and no feature I/O."""
    return _drive(config, lambda epoch, groups: deque(groups, maxlen=0), load_features=False)


def iter_epoch_batches(config: PipelineConfig, epoch: int) -> Iterator[Batch]:
    """Yield one epoch's collated (and masked) batches in plan order.

    Library-level access to the exact batches ``run`` would emit,
    including provenance ids, without writing anything but the feature
    archive (a scratch one when ``archive_dir`` is unset), which is
    closed when the iteration ends.
    """
    report = AuditReport(config={}, ingestion={})
    for _, groups in _epochs(config, [epoch], report, load_features=True):
        for built in groups:
            yield built.batch


def format_summary(report: AuditReport) -> str:
    """Human-readable digest of a report, one line per epoch."""
    lines = [
        "{strategy} x{arity} seed={seed} mode={corpus_mode} "
        "budget={budget_frames} max_frames={max_frames}".format(**report.config),
        "ingestion: accepted={accepted} skipped={skipped} speakerless={speakerless} "
        "singleton_speakers={singleton_speakers}".format(**report.ingestion),
    ]
    for ep in report.epochs:
        dropped = ep["dropped_by_filter"]
        lines.append(
            f"epoch {ep['epoch']}: planned={ep['planned']} "
            f"excluded={ep['excluded_by_strategy']} "
            f"filtered orig/aug={dropped['original']}/{dropped['augmented']} "
            f"emitted={ep['emitted_instances']} batches={ep['batch_count']} "
            f"waste={ep['padding_waste']:.3f} frames={ep['total_frames_emitted']}"
        )
    if report.error:
        lines.append(f"FATAL: {report.error}")
    return "\n".join(lines)
