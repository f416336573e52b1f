"""In-memory span tracer for one traced workload call, and the per-layer
metrics derived from its spans.

The tracer wraps the public functions of every layer module in each
namespace that holds them, so a call is traced where its caller looks
it up (``pipeline.load_or_compute`` as well as
``features.load_or_compute``), plus the methods of the two classes
that own file I/O. Spans stay in memory and are written once, after the
call returns. A span is named after the layer that defines the
function, whichever namespace it was reached through.

A function that returns a generator is traced only until it returns
the generator; none of the functions on the ``run``/``audit`` path
does.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

LAYERS = (
    "manifest",
    "features",
    "archive",
    "augment",
    "specaugment",
    "rng",
    "batching",
    "batchio",
    "pipeline",
    "cli",
)

# Classes whose methods do the file I/O of their layer.
TRACED_METHODS = {
    ("archive", "FeatureArchive"): ("__init__", "read", "write", "flush", "close"),
    ("batchio", "StreamWriter"): ("__init__", "write", "close"),
}

ENTRY_SPANS = ("pipeline.run", "pipeline.audit")
WRITE_SPANS = ("batchio.write_batch_file", "batchio.StreamWriter.write")


def _requests(args, kwargs, result):
    return {"requests": len(args[0].constituents)}


def _parsed(args, kwargs, result):
    return {"rows": len(result.utterances) + len(result.skipped), "skipped": len(result.skipped)}


def _filtered(args, kwargs, result):
    dropped = result.dropped_original + result.dropped_augmented
    return {"dropped": dropped, "inputs": dropped + len(result.instances)}


def _composed(args, kwargs, result):
    return {"groups": len(result), "instances": sum(len(g) for g in result)}


def _read_bytes(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


# Counts recorded at the boundary where the work happens.
OBSERVERS = {
    "augment.with_features": _requests,
    "manifest.load_manifest": _parsed,
    "augment.combine_and_filter": _filtered,
    "batching.compose_batches": _composed,
    "archive.FeatureArchive.read": _read_bytes,
}


class Tracer:
    """Records (id, parent, run id, name, start, end, thread, error, counts)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._entry: list[int] = []  # open run/audit spans, outermost first

    def wrap(self, fn, name: str):
        observe = OBSERVERS.get(name)
        is_entry = name in ENTRY_SPANS
        spans, local, ids, entry = self.spans, self._local, self._ids, self._entry
        run_id = self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            # A span opened on a pool thread is caused by the open run/audit call.
            parent = stack[-1] if stack else (entry[-1] if entry else None)
            span_id = next(ids)
            stack.append(span_id)
            if is_entry:
                entry.append(span_id)
            error = True
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_entry:
                    entry.pop()
                counts = observe(args, kwargs, result) if observe and not error else None
                spans.append(
                    (span_id, parent, run_id, name, start, end, threading.get_ident(), error, counts)
                )

        return traced

    def install(self, package: str = "concat_augment") -> None:
        """Wrap every layer's public functions in every layer namespace."""
        modules = {name: importlib.import_module(f"{package}.{name}") for name in LAYERS}
        names = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    names[obj] = f"{layer}.{attr}"
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in names:
                    setattr(module, attr, self.wrap(obj, names[obj]))
        for (layer, cls_name), methods in TRACED_METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for method in methods:
                original = cls.__dict__[method]
                setattr(cls, method, self.wrap(original, f"{layer}.{cls_name}.{method}"))

    def write(self, path) -> None:
        fields = ["id", "parent", "run_id", "name", "start", "end", "thread", "error", "counts"]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"run_id": self.run_id, "fields": fields, "spans": self.spans}, f)


def _union(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _self_seconds(spans, name: str, children: dict) -> float:
    """Summed self time of spans called ``name``: duration minus the
    part of it that their child spans cover."""
    total = 0.0
    for span in spans:
        if span[3] != name:
            continue
        start, end = span[4], span[5]
        kids = [(max(c[4], start), min(c[5], end)) for c in children.get(span[0], ())]
        total += (end - start) - _union(k for k in kids if k[1] > k[0])
    return total


def layer_metrics(spans, report: dict, out_bytes: int) -> dict:
    """Per-layer metrics of one traced ``run``/``audit`` call.

    ``report`` is the call's report document; it gives the accepted
    utterance and epoch counts the per-utterance ratios divide by.
    ``out_bytes`` is the size of the batch output the call wrote.
    """
    calls: dict[str, int] = defaultdict(int)
    seconds: dict[str, float] = defaultdict(float)
    failed: dict[str, int] = defaultdict(int)
    counts: dict[str, dict] = defaultdict(lambda: defaultdict(int))
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        span_id, parent, _, name, start, end, _, error, extra = span
        calls[name] += 1
        seconds[name] += end - start
        failed[name] += int(error)
        if extra:
            for key, value in extra.items():
                counts[name][key] += value
        if parent is not None:
            children[parent].append(span)

    def ratio(num, den):
        return num / den if den else 0.0

    accepted = report["ingestion"]["accepted"]
    epochs = max(1, report["config"]["epochs"])
    lookups = calls["features.load_or_compute"]
    requests = counts["augment.with_features"]["requests"]
    parsed = counts["manifest.load_manifest"]
    filtered = counts["augment.combine_and_filter"]
    composed = counts["batching.compose_batches"]

    writes = sorted((s for s in spans if s[3] in WRITE_SPANS), key=lambda s: s[4])
    plan_starts = [s[4] for s in spans if s[3] == "augment.plan_epoch"]
    writer_wait = 0.0
    for prev, nxt in zip(writes, writes[1:]):
        # A gap that holds the next epoch's planning is not a writer stall.
        if not any(prev[5] <= t <= nxt[4] for t in plan_starts):
            writer_wait += nxt[4] - prev[5]
    write_s = sum(s[5] - s[4] for s in writes)

    uncovered = 0.0
    for entry in (s for s in spans if s[3] in ENTRY_SPANS):
        start, end = entry[4], entry[5]
        inner = [
            (max(s[4], start), min(s[5], end))
            for s in spans
            if s[0] != entry[0] and s[3] not in ENTRY_SPANS and s[3] != "cli.main"
        ]
        uncovered += (end - start) - _union(k for k in inner if k[1] > k[0])

    entry_s = sum(seconds[n] for n in ENTRY_SPANS)
    totals = report["totals"]
    failures = sum(e["materialization_failures"] + e["failed_originals"] for e in report["epochs"])
    attempted = sum(sum(e["strategy_histogram"].values()) for e in report["epochs"])

    return {
        "features.compute_logmel.calls": calls["features.compute_logmel"],
        "features.compute_logmel.s": seconds["features.compute_logmel"],
        "features.computes_per_utt": ratio(calls["features.compute_logmel"], accepted * epochs),
        "features.mel_filterbank.calls": calls["features.mel_filterbank"],
        "features.mel_filterbank.s": seconds["features.mel_filterbank"],
        "features.load_pcm.calls": calls["features.load_pcm"],
        "features.load_pcm.s": seconds["features.load_pcm"],
        "features.load_or_compute.failed": failed["features.load_or_compute"],
        "pipeline.feature_requests": requests,
        "pipeline.lru_hit_ratio": 1.0 - ratio(lookups, requests) if requests else 0.0,
        "pipeline.writer_wait_s": writer_wait,
        "pipeline.batches": totals["batches"],
        "pipeline.uncovered_s": uncovered,
        "pipeline.failed_share": ratio(failures, attempted),
        "archive.open_s": seconds["archive.FeatureArchive.__init__"],
        "archive.read.calls": calls["archive.FeatureArchive.read"],
        "archive.read.s": seconds["archive.FeatureArchive.read"],
        "archive.read_mb": counts["archive.FeatureArchive.read"]["bytes"] / 1e6,
        "archive.hit_ratio": ratio(calls["archive.FeatureArchive.read"], lookups),
        "archive.write.calls": calls["archive.FeatureArchive.write"],
        "archive.write.s": seconds["archive.FeatureArchive.write"],
        "manifest.load_manifest.s": seconds["manifest.load_manifest"],
        "manifest.rows_per_s": ratio(parsed["rows"], seconds["manifest.load_manifest"]),
        "manifest.skipped": parsed["skipped"],
        "manifest.build_speaker_index.s": seconds["manifest.build_speaker_index"],
        "augment.plan_epoch.s": seconds["augment.plan_epoch"],
        "augment.instance_from_plan.s": seconds["augment.instance_from_plan"],
        "augment.combine_and_filter.s": seconds["augment.combine_and_filter"],
        "augment.with_features.self_s": _self_seconds(spans, "augment.with_features", children),
        "augment.filter_drop_ratio": ratio(filtered["dropped"], filtered["inputs"]),
        "specaugment.apply_masks.calls": calls["specaugment.apply_masks"],
        "specaugment.apply_masks.s": seconds["specaugment.apply_masks"],
        "rng.keyed_rng.s": seconds["rng.keyed_rng"],
        "batching.compose_batches.s": seconds["batching.compose_batches"],
        "batching.pad_and_collate.s": seconds["batching.pad_and_collate"],
        "batching.instances_per_batch": ratio(composed["instances"], composed["groups"]),
        "batchio.encode_batch.s": seconds["batchio.encode_batch"],
        "batchio.write.self_s": sum(
            _self_seconds(spans, name, children) for name in WRITE_SPANS
        ),
        "batchio.write_mbps": ratio(out_bytes / 1e6, write_s),
        "cli.self_s": seconds["cli.main"] - entry_s,
        "trace.spans": len(spans),
    }
