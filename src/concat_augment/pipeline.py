"""Per-epoch orchestration: plan, filter, batch, mask, emit, report.

One epoch engine runs plan -> filter -> compose for every epoch and
yields each batch group's result in plan order; ``run``, ``audit`` and
``iter_epoch_batches`` are sinks over it, so ``audit`` reports exactly
the plan and counts ``run`` emits. Planning, filtering and batch
composition run on manifest metadata only (frame counts are exactly
additive under concatenation), so the full augmented corpus is never
resident in memory. When features are loaded, each utterance's log-Mel
matrix is extracted once per run into a feature store (the run's
archive) before the first epoch that references it, in the order the
epoch's batches first use it (:meth:`augment.Survivors.first_use`).
The extraction keeps, for each archived position, the archive index's
own :class:`archive.Slot` of its record (offset, expected head and its
CRC, payload size), so a read is one ``preadv`` and the record's
checks. Without an ``archive_dir`` the archive is a scratch one that
leaves the file system as soon as it is open, so a run that is killed
leaves nothing of it behind. Every survivor's mask spans are drawn for
the whole epoch at once, keyed by ordinal
(:func:`specaugment.keyed_spans`). Each batch is then built as one CABX
record in a single buffer (:class:`batchio.Record`), laid out from its
survivors' frame counts and targets, read by corpus position
(:class:`augment.Survivors`) once per row, a stage at a time over the
record's rows: every constituent's features are read from the archive
straight into its row, then each row's masks are applied in place,
then each row's padding is zeroed. A configurable pool of worker
threads computes the features, and the calling thread appends them to
the archive. One pool thread builds the records, whatever the pool
size: a build is Python under the GIL, so a second build thread would
only contend with the first. The calling thread seals each record (one
CRC pass, which runs without the GIL) and writes it, one write each, in
plan order, while that thread builds the next one. The run keeps two record buffers, one
for the record being written and one for the record building, and
build ``i`` lays its record out in buffer ``i % 2``; the window submits
it only once the sink has written (or decoded) and dropped the record
that last used that buffer. Batches and archive records are never
reordered, and their bytes do not depend on the pool size. An audit
sizes its groups on the calling thread, with no pool. ``run`` writes
each epoch into a temporary sibling and renames it into place when the
epoch ends.

A run is one context manager (``_Run``) that reads the manifest once and
owns the feature store and the record buffers; each epoch's groups are
closed inside it, so an early close (a failed write, a failed build, a
caller that stops iterating) cancels the queued builds and waits for the
running ones before the store closes.

Reports are JSON; all wall-clock measurements live under ``timings_s``
keys so reproducibility checks can strip them.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import shutil
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .archive import FeatureArchive, Slot
from .augment import Strategy, Survivors, _join_targets, length_filter, plan_epoch
from .batching import ACCOUNTING_MODES, Batch, compose_batches, target_codes
from .batchio import Record, StreamWriter, decode_batch, write_batch_file
from .errors import BatchingError, ConfigurationError, FeatureError, PipelineError
from .features import FeatureConfig, load_or_compute, one_blas_thread
from .manifest import Corpus, Target, build_speaker_index, ingestion_report, load_manifest
from .specaugment import MaskPolicy, apply_spans, keyed_spans

WORKERS_ENV_VAR = "CONCAT_AUGMENT_WORKERS"
# The largest pool: it bounds the threads that extract features and the
# 3 * workers - 1 extracted feature matrices a run holds at once. Records
# are built on one thread in two buffers, whatever the pool size.
MAX_WORKERS = 256

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
            "specaugment": None if self.specaugment is None else asdict(self.specaugment),
            "feature": self.feature.summary(),
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
        """Write the report to a temporary file beside ``path``, then
        rename it into place, so ``path`` never holds a partial report."""
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as f:
                json.dump(self.to_dict(), f, indent=2)
                f.write("\n")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

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


# An extraction's stages, as each epoch's timings_s names their seconds:
# loading the audio and computing its log-Mel, summed over the pool
# threads, and the calling thread's archive appends and frame checks.
EXTRACT_STAGES = ("extract_load", "extract_logmel", "extract_append")


class _FeatureStore:
    """Every utterance's features for one run, extracted at most once,
    by corpus position.

    :meth:`extract` takes the distinct positions an epoch's batches
    reference, as an array in first-use order. It checks the frame count
    of each archived one the first time it is referenced, and computes
    the others on the worker pool; the calling thread, the one writer,
    appends them to a :class:`FeatureArchive` in that order, so the
    archive's bytes do not depend on the pool size. Only a position
    computed from audio is read as an :class:`Utterance`. The archive is
    the user's ``archive_dir``, or a scratch one; it is opened at the
    first extraction. A scratch archive's temporary directory is removed
    as soon as the archive is open: its file lives on the archive's
    descriptor until :meth:`close`, or until the process ends however it
    ends, and then nothing of it is left on disk. After an extraction
    :meth:`read` reads a survivor's constituents without a lock. A
    position fails when its audio does not load or its features' frame
    count (the archive index's ``T``) is not its manifest ``n_frames``;
    it keeps its message, and every read of it raises
    ``FeatureError(message)``. Every other position an extraction saw
    keeps the archive index's own :class:`archive.Slot` of its record,
    which :meth:`read` reads.
    """

    def __init__(self, config: PipelineConfig, corpus: Corpus):
        self._config = config
        self._corpus = corpus
        self._archive: FeatureArchive | None = None
        self._checked = np.zeros(len(corpus), dtype=bool)
        self._failed: dict[int, str] = {}
        self._slots: list[Slot | None] = [None] * len(corpus)

    def _open(self) -> FeatureArchive:
        # The open checks that the archive was extracted with this feature config.
        root, feature = self._config.archive_dir, self._config.feature
        if root is not None:
            return FeatureArchive(root, mode="a", feature=feature)
        # The archive does all its I/O through the descriptor it opened, so
        # its file outlives the directory until close() or the process ends.
        with tempfile.TemporaryDirectory(prefix="concat-augment-") as root:
            return FeatureArchive(root, mode="a", feature=feature)

    def _check_frames(self, pos: int) -> None:
        """Fail an archived position whose frame count is not its
        manifest ``n_frames``; else keep the index's slot for :meth:`read`."""
        utt_id = self._corpus.ids[pos]
        slot = self._archive.slot(utt_id)
        # float32 rows of n_mels bins: the archive holds no other width
        frames = slot.nbytes // (4 * self._config.feature.n_mels)
        expected = int(self._corpus.n_frames[pos])
        if frames != expected:
            self._failed[pos] = (
                f"utterance {utt_id}: manifest says {expected} frames, features have {frames}"
            )
        else:
            self._slots[pos] = slot

    def extract(self, positions: np.ndarray, workers: int) -> dict[str, float]:
        """Extract ``positions`` (see the class); return the seconds by
        stage (:data:`EXTRACT_STAGES`)."""
        if self._archive is None:
            self._archive = self._open()
        archive, ids = self._archive, self._corpus.ids
        start = time.perf_counter()
        new = positions[~self._checked[positions]]
        self._checked[new] = True
        missing = []
        for pos in new.tolist():
            if ids[pos] in archive:
                self._check_frames(pos)
            else:
                missing.append(pos)
        load_s = logmel_s = 0.0
        append_s = time.perf_counter() - start
        with (
            one_blas_thread() if workers > 1 else contextlib.nullcontext(),
            contextlib.closing(
                _ordered_pool_map(self._compute, missing, workers, 3 * workers - 1)
            ) as computed,
        ):
            for pos, feats, error, seconds in computed:
                start = time.perf_counter()
                if error is None:
                    archive.write(ids[pos], feats)
                    self._check_frames(pos)
                else:
                    self._failed[pos] = error
                load_s += seconds[0]
                logmel_s += seconds[1]
                append_s += time.perf_counter() - start
        return dict(zip(EXTRACT_STAGES, (load_s, logmel_s, append_s)))

    def _compute(self, pos: int) -> tuple[int, np.ndarray | None, str | None, list[float]]:
        seconds = [0.0, 0.0]  # loading the audio, computing its log-Mel
        try:
            feats = load_or_compute(
                self._corpus[pos],
                self._config.feature,
                audio_root=self._config.audio_root,
                seconds=seconds,
            )
        except Exception as exc:  # a failed utterance is dropped from every instance using it
            return pos, None, str(exc), seconds
        return pos, feats, None, seconds

    def failed(self, pos: int) -> bool:
        return pos in self._failed

    def read(self, positions: list[int], out: memoryview | None) -> None:
        """Read a survivor's constituents, in order, into ``out``, the
        bytes of its row of a record, one after another; with ``out``
        None, read each into a new buffer only to check it. Each read
        goes to the slot the extraction kept."""
        read, slots = self._archive.read, self._slots
        start = 0
        for pos in positions:
            slot = slots[pos]
            if slot is None:  # an extracted position without a slot has failed
                raise FeatureError(self._failed[pos])
            end = start + slot.nbytes
            read(slot, None if out is None else out[start:end])
            start = end

    def close(self) -> None:
        if self._archive is not None:
            self._archive.close()


@dataclass
class _Group:
    """One composed group's result: its record, which the sink seals
    (None in an audit, or when every instance failed to load), its size,
    its frame mass, the epoch's survivors and the ordinals of those it
    kept, and its build's seconds by stage (:data:`BUILD_STAGES`)."""

    record: Record | None
    size: int
    padded_frames: int
    true_frames: int
    failed_original: int = 0
    failed_augmented: int = 0
    diagnostics: list[str] = field(default_factory=list)
    survivors: Survivors | None = None
    ordinals: list[int] = field(default_factory=list)
    timings: list[float] = field(default_factory=list)


# A build's stages, as each epoch's timings_s names their seconds on the
# one build thread, each timed once per record: reading the rows'
# constituents (with the archive's CRC and head checks), applying the
# rows' masks, and zeroing the rows' padding.
BUILD_STAGES = ("build_read", "build_mask", "build_pad")
_READ, _MASK, _PAD = range(len(BUILD_STAGES))


def _lap(seconds: list[float], stage: int, since: float) -> float:
    """Add the time since ``since`` to ``seconds[stage]``; return now."""
    now = time.perf_counter()
    seconds[stage] += now - since
    return now


def _lay_out(
    lengths: list[int],
    positions: list[list[int]],
    targets: list[Target],
    config: PipelineConfig,
    alloc: Callable[[int], np.ndarray],
) -> Record:
    codes = [target_codes(_join_targets([targets[p] for p in row])) for row in positions]
    return Record(
        max(lengths), config.feature.n_mels, lengths, codes, config.target_pad_id, alloc
    )


def _buffer(buffers: list[np.ndarray | None], place: int, size: int) -> np.ndarray:
    """``buffers[place]``, replaced first if it is missing or holds fewer
    than ``size`` bytes; a buffer it replaces is freed before the new one
    is allocated. Its bytes are stale: :class:`Record` zeroes each row's
    padding. A new buffer's size is rounded up to a power of two, so
    records of close sizes share a buffer instead of replacing it as
    sizes grow. Pages that no record touches take no memory."""
    if buffers[place] is None or len(buffers[place]) < size:
        buffers[place] = None  # freed before its replacement is allocated
        buffers[place] = np.empty(1 << (size - 1).bit_length(), dtype=np.uint8)
    return buffers[place]


def _build_group(
    ordinals: list[int],
    survivors: Survivors,
    targets: list[Target],
    config: PipelineConfig,
    epoch: int,
    store: _FeatureStore,
    spans: np.ndarray | None,
    buffers: list[np.ndarray | None],
    place: int,
) -> _Group:
    """Build one batch's record in place, in ``buffers[place]``
    (:func:`_buffer`), a stage at a time over its rows: read each
    survivor's constituents, in order, into its row at their frame
    offsets, then apply each row's masks (``spans``, the epoch's
    :func:`specaugment.keyed_spans` by ordinal, None without
    SpecAugment), then zero each row's padding. ``targets`` is the
    corpus's, by position. The sink seals the record.

    A survivor is dropped at its first constituent that fails in the
    store or on the archive read. One with a constituent the store has
    failed is left out of the layout; only the constituents before that
    one are read, to find which fails first. If a read into the record
    fails, the kept rows are laid out again over the same buffer (a
    smaller record always fits) and read again.
    """
    positions = [survivors.positions(r) for r in ordinals]
    frames = survivors.frames[ordinals].tolist()
    # row -> message; a kept exception's traceback would hold this frame, and its record
    failures = {}
    rows = []
    for row, constituents in enumerate(positions):
        if not any(store.failed(pos) for pos in constituents):
            rows.append(row)
            continue
        try:
            store.read(constituents, None)
        except (PipelineError, OSError) as exc:
            failures[row] = str(exc)

    def alloc(size: int) -> np.ndarray:
        return _buffer(buffers, place, size)

    seconds = [0.0] * len(BUILD_STAGES)
    record = None
    while rows and record is None:
        record = _lay_out(
            [frames[row] for row in rows], [positions[row] for row in rows], targets, config, alloc
        )
        now = time.perf_counter()
        cells = memoryview(record.features.reshape(-1).view(np.uint8))
        row_bytes = record.features[0].nbytes
        kept = []
        for at, row in enumerate(rows):
            try:
                store.read(positions[row], cells[at * row_bytes : (at + 1) * row_bytes])
            except (PipelineError, OSError) as exc:
                failures[row] = str(exc)
                continue
            kept.append(row)
        now = _lap(seconds, _READ, now)
        if len(kept) < len(rows):
            rows, record = kept, None

    ids = survivors.plan.ids
    n_original = len(survivors.originals)
    failed_original = failed_augmented = 0
    diagnostics = []
    for row in sorted(failures):
        if ordinals[row] < n_original:
            failed_original += 1
        else:
            failed_augmented += 1
        constituents = tuple(ids[p] for p in positions[row])
        diagnostics.append(
            f"epoch {epoch}: dropped {constituents}: "
            f"failed to load features for {constituents}: {failures[row]}"
        )
    if record is None:
        return _Group(
            None, 0, 0, 0, failed_original, failed_augmented, diagnostics, timings=seconds
        )
    kept = [ordinals[row] for row in rows]
    features, lengths = record.features, record.feature_lengths
    if spans is not None:
        policy = config.specaugment
        for at, row_spans in enumerate(spans[kept].tolist()):
            apply_spans(features[at, : lengths[at]], policy, row_spans)
        now = _lap(seconds, _MASK, now)
    for at in range(len(rows)):
        record.finish_row(at)
    _lap(seconds, _PAD, now)
    b, t_max, _ = features.shape
    return _Group(
        record,
        b,
        b * t_max,
        sum(lengths),
        failed_original,
        failed_augmented,
        diagnostics,
        survivors,
        kept,
        seconds,
    )


def _sized_group(frames: np.ndarray) -> _Group:
    """A metadata-only group: sizes from the manifest's frame counts."""
    return _Group(None, len(frames), len(frames) * int(frames.max()), int(frames.sum()))


def _ordered_pool_map(fn, items, workers: int, alive: int):
    """Map ``fn`` over ``items`` on a pool of ``workers`` threads,
    yielding results strictly in input order.

    At most ``alive`` results are alive at once, the one the caller
    holds among them: ``alive`` items are submitted at the start, and
    one more each time the caller comes back for the next result, before
    waiting for it. So item ``i`` is submitted only after the caller has
    come back from result ``i - alive``, and a call may reuse what that
    result held: record builds run on one thread with ``alive`` 2, and
    build ``i`` lays out in buffer ``i % 2`` of its run's two, one
    being written and one building. Feature extraction runs on the
    whole pool and keeps ``3 * workers - 1`` alive, since its results
    are small. A call submitted while a worker is free has started
    before this goes on, so every call that has not started when the
    generator is closed (a failed write, a caller that stops iterating)
    is cancelled, not started late; closing then waits for the running
    ones to end.
    """
    items = iter(items)
    pool = ThreadPoolExecutor(max_workers=workers)
    pending = deque()

    def submit(item):
        started = threading.Event()

        def call():
            started.set()
            return fn(item)

        pending.append(pool.submit(call))
        if sum(not future.done() for future in pending) <= workers:
            started.wait()  # a free worker takes it: hand it over now

    try:
        for item in islice(items, alive):
            submit(item)
        while pending:
            yield pending.popleft().result()
            for item in islice(items, 1):
                submit(item)
    finally:
        pool.shutdown(cancel_futures=True)


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


def _pool_size() -> int:
    """The worker pool's size: ``CONCAT_AUGMENT_WORKERS``, or 1 when unset."""
    env = os.environ.get(WORKERS_ENV_VAR)
    if not env:
        return 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if not 1 <= workers <= MAX_WORKERS:
        raise ConfigurationError(
            f"{WORKERS_ENV_VAR} must be an integer from 1 to {MAX_WORKERS}, got {env!r}"
        )
    return workers


class _Run:
    """The epoch engine behind ``run``, ``audit`` and ``iter_epoch_batches``.

    Opening a run resolves the pool size, which sizes feature extraction
    only, checks the config, reads the manifest and its speaker index
    once and records the ingestion in ``report``; a bad setting is fatal
    before the manifest is read or any output exists. When features are
    loaded, the run owns the feature store, which it closes on exit, and
    ``buffers``: one record buffer for each place in the build window
    (2, the records alive at once: one being written and one building on
    the one build thread), allocated by the first build that needs it and
    kept for the run.
    A sink drops each record it is done with (``record = None``) before
    it asks for the next, so the build that reuses its buffer starts
    after it. Callers close each epoch's groups (:func:`_epoch`) inside
    the run's ``with`` block, so the builds reading the store have ended
    before it closes.
    """

    def __init__(self, config: PipelineConfig, report: AuditReport, load_features: bool):
        self.config = config
        self.report = report
        self.workers = _pool_size()
        _check_config(config)
        try:
            parse = load_manifest(config.manifest_path, config.corpus_mode)
        except OSError as exc:
            raise ConfigurationError(f"cannot read manifest: {exc}") from exc
        self.corpus = parse.utterances
        if not len(self.corpus):
            raise ConfigurationError(f"manifest {config.manifest_path} has no accepted utterances")
        self.index = build_speaker_index(self.corpus)
        report.ingestion = ingestion_report(parse, self.index)
        self.store = _FeatureStore(config, self.corpus) if load_features else None
        self.buffers: list[np.ndarray | None] = [None, None]

    def __enter__(self) -> _Run:
        return self

    def __exit__(self, *exc_info) -> None:
        if self.store is not None:
            self.store.close()


def _epoch(engine: _Run, epoch: int) -> Iterator[_Group]:
    """Plan, filter and compose one epoch on position arrays, draw every
    survivor's masks and extract the features its batches reference now;
    return the generator that builds its groups, each from its
    survivors' ordinals on one pool thread, and yields every non-empty
    one in plan order. Once exhausted, it appends the epoch's entry to
    the report. Only the groups outlive this call, so the engine holds
    one epoch's arrays at a time. An audit sizes each group from frame
    counts, on the calling thread."""
    config, corpus, report, store = engine.config, engine.corpus, engine.report, engine.store
    t0 = time.perf_counter()
    plan = plan_epoch(corpus, engine.index, config.strategy, config.seed, epoch)
    survivors = length_filter(plan, corpus.n_frames, config.max_frames, config.include_original)
    t_plan = time.perf_counter()
    over = np.flatnonzero(survivors.frames > config.budget_frames)
    if over.size:
        r = int(over[0])
        raise BatchingError(
            f"instance {survivors.constituents(r)} has {survivors.frames[r]} frames, "
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
    extract_s, draw_s = {}, {}
    t_draw = t_compose
    if store is None:
        sizes = [survivors.frames[group] for group in groups]
        builds = (_sized_group(frames) for frames in sizes)
    else:
        # Every survivor's masks, keyed by its ordinal, drawn at once.
        spans = None
        if config.specaugment is not None:
            spans = keyed_spans(
                config.specaugment,
                survivors.frames,
                config.feature.n_mels,
                config.seed,
                epoch,
                np.arange(len(survivors)),
            )
        t_draw = time.perf_counter()
        draw_s = {"draw_masks": t_draw - t_compose}
        # Groups then members then constituents: the store extracts (and
        # archives) the utterances in first-use order.
        jobs = [group.tolist() for group in groups]
        ordinals = np.concatenate([np.zeros(0, np.int64), *groups])  # empty with no groups
        extract_s = store.extract(survivors.first_use(ordinals), engine.workers)

        buffers = engine.buffers

        def build(job):
            index, ordinals = job
            place = index % len(buffers)
            return _build_group(
                ordinals, survivors, corpus.targets, config, epoch, store, spans, buffers, place
            )

        # One thread builds, whatever the pool size: builds are Python under
        # the GIL, so a second one only contends with it. One result alive
        # per buffer: build i is submitted once the sink is done with
        # result i - len(buffers), the last record in its buffer.
        builds = _ordered_pool_map(build, enumerate(jobs), 1, len(buffers))
    t_extract = time.perf_counter()

    histogram: dict[str, int] = {}
    if len(survivors.originals):
        histogram["original"] = len(survivors.originals)
    if len(survivors.augmented):
        histogram[config.strategy.kind] = len(survivors.augmented)
    planned = len(plan)
    excluded = len(plan.excluded)
    originals_in = len(corpus) if config.include_original else 0
    dropped = {"original": survivors.dropped_original, "augmented": survivors.dropped_augmented}

    def results():
        failed_original = failed_augmented = batches = emitted = padded = true = 0
        build_s = dict.fromkeys(BUILD_STAGES, 0.0) if store is not None else {}
        with contextlib.closing(builds):  # an early close cancels the queued builds
            for built in builds:
                failed_original += built.failed_original
                failed_augmented += built.failed_augmented
                for stage, seconds in zip(BUILD_STAGES, built.timings):
                    build_s[stage] += seconds
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
                    **draw_s,
                    "extract_features": t_extract - t_draw,
                    **extract_s,
                    "materialize_and_emit": time.perf_counter() - t_extract,
                    **build_s,
                },
            }
        )

    return results()


def _drive(
    config: PipelineConfig,
    sink: Callable[[int, Iterator[_Group]], object],
    load_features: bool,
) -> AuditReport:
    """Feed every epoch of a run to ``sink``, then total and write the
    report. A dict of timings the sink returns joins the epoch's
    ``timings_s``. A run that loads features writes batches: once its
    manifest is read, it clears what an earlier run wrote to
    ``out_dir``."""
    if config.emit not in EMIT_MODES:
        raise ConfigurationError(f"unknown emit mode {config.emit!r}")
    started = time.perf_counter()
    report = AuditReport(config=config.summary(), ingestion={})
    try:
        with _Run(config, report, load_features) as engine:
            if load_features:
                _clear_outputs(Path(config.out_dir))
            for epoch in range(config.epochs):
                with contextlib.closing(_epoch(engine, epoch)) as groups:
                    timings = sink(epoch, groups)
                if isinstance(timings, dict):
                    report.epochs[-1]["timings_s"].update(timings)
    except PipelineError as exc:
        if report.ingestion:  # the manifest was read: record how far the epochs got
            report.error = str(exc)
            with contextlib.suppress(PipelineError):  # the run's own error is the one raised
                _write_report(report, config)
        raise

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
        _make_dir(Path(config.out_dir))
        path = Path(config.out_dir) / "report.json"
    if path is not None:
        try:
            report.write(path)
        except OSError as exc:
            raise ConfigurationError(f"cannot write report {path}: {exc}") from None


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {path}: {exc}") from None


def _writing(path: Path, write: Callable, *args):
    """``write(*args)``, with an OSError raised as a ConfigurationError naming ``path``."""
    try:
        return write(*args)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_all(groups: Iterator[_Group], write: Callable[[int, Record], object]) -> dict:
    """Seal and write each group's record, in order, on the calling
    thread, with ``write(index, record)``, then drop it, so a build may
    reuse its buffer. The seal's CRC runs without the GIL, beside the
    next build. Return the seconds spent sealing, the seconds spent
    writing and the seconds spent waiting for ``groups`` to yield the
    next one."""
    seal_s = write_s = wait_s = 0.0
    start = time.perf_counter()
    for index, built in enumerate(groups):
        ready = time.perf_counter()
        wait_s += ready - start
        built.record.seal()
        sealed = time.perf_counter()
        seal_s += sealed - ready
        write(index, built.record)
        built.record = None  # not alive while the next ones are built
        start = time.perf_counter()
        write_s += start - sealed
    return {"seal": seal_s, "write": write_s, "writer_wait": wait_s}


def run(config: PipelineConfig) -> AuditReport:
    """Plan, filter, batch, mask and write every epoch; report.

    Emits batch artifacts in the configured binary format plus a JSON
    report. All emitted bytes are a pure function of (manifest, config,
    seed); only the report's ``timings_s`` fields vary between reruns.
    One pool thread builds the records while the calling thread writes
    them. An output file that cannot be written is fatal: a
    :class:`ConfigurationError` naming it.

    Each epoch is written to a temporary sibling of its output
    (``.epoch-NNN.tmp`` or ``.epoch-NNN.cabxs.tmp``) and renamed into
    place once complete, and ``report.json`` is written last, so a run
    that is killed leaves no partial epoch under its final name and no
    report; a run that fails removes its temporary sibling.
    """
    if config.out_dir is None:
        raise ConfigurationError("run requires an output directory")
    out_dir = Path(config.out_dir)

    def emit(epoch: int, groups: Iterator[_Group]) -> dict:
        name = f"epoch-{epoch:03d}{'.cabxs' if config.emit == 'stream' else ''}"
        final, partial = out_dir / name, out_dir / f".{name}.tmp"
        try:
            if config.emit == "stream":
                stream = _writing(final, StreamWriter, partial)

                def write(index: int, record: Record) -> None:
                    _writing(final, stream.write, record)

                try:
                    timings = _write_all(groups, write)
                except BaseException:
                    with contextlib.suppress(OSError):  # the error raised first is the run's
                        stream.close()
                    raise
                _writing(final, stream.close)
            else:
                _make_dir(partial)

                def write(index: int, record: Record) -> None:
                    file = f"batch-{index:05d}.cabx"
                    _writing(final / file, write_batch_file, record, partial / file)

                timings = _write_all(groups, write)
            _writing(final, os.replace, partial, final)
        except BaseException:
            with contextlib.suppress(OSError):
                _remove(partial)
            raise
        return timings

    return _drive(config, emit, load_features=True)


# What a run writes to out_dir: epochs, the report, and the temporary
# siblings they are written to before they are renamed into place.
_OUTPUT_NAME = re.compile(
    r"epoch-\d{3,}(\.cabxs)?|\.epoch-\d{3,}(\.cabxs)?\.tmp"
    r"|report\.json|\.report\.json\.\d+\.tmp"
)


def _remove(path: Path) -> None:
    if path.is_dir() and not path.is_symlink():
        shutil.rmtree(path)
    else:
        path.unlink()


def _clear_outputs(out_dir: Path) -> None:
    """Create ``out_dir`` and remove what an earlier run wrote to it: its
    epoch directories and streams, its report, and the temporary files
    of an epoch or a report it did not finish. Nothing else is touched.
    A run calls this once its config is checked and its manifest read,
    so a later fatal error leaves no earlier run's batches behind, and
    an ``out_dir`` that cannot be created fails before the first epoch."""
    _make_dir(out_dir)
    for path in out_dir.iterdir():
        if _OUTPUT_NAME.fullmatch(path.name):
            _remove(path)


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
    with (
        _Run(config, report, load_features=True) as engine,
        contextlib.closing(_epoch(engine, epoch)) as groups,
    ):
        for built in groups:
            # a copy: a later build reuses the buffer
            batch = decode_batch(built.record.seal().body)
            batch.instance_ids = [built.survivors.constituents(r) for r in built.ordinals]
            built.record = None
            yield batch


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
