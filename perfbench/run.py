"""Benchmark of the concat_augment pipeline: ``cold``, ``warm`` and ``audit``.

    python3 perfbench/run.py --workload cold --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout: it imports the package from
``src/`` and works under ``.perfbench/``, which it empties when it
ends. It writes the workload's inputs from ``--seed``, checks the
package against the recorded golden digests, then makes one workload
call after another, each in a fresh process, for ``--seconds``. Every
call's output is checked. The last line of standard output is the
result: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer metrics of one traced call. The line before it holds the
environment stamp and every sample. A failed check prints
``"correct": false`` and exits with code 1. See ``perfbench/README.md``.

``--write-golden`` records the golden digests of this platform into
``perfbench/golden.json`` instead of checking them; use it only in a
change that means to alter the emitted bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDEN_PATH = HERE / "golden.json"

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# A run must end within 180 s, so no call may run past this many seconds.
DEADLINE_S = 170.0
MIN_REPS = 2
# Set-up samples: calls that stop at the start of epoch 0 take this share
# of a run's time, and there are at least MIN_SETUP_SAMPLES of them.
SETUP_SHARE = 0.1
MIN_SETUP_SAMPLES = 5

# The pool supplies the parallelism; BLAS threads on top of it only
# oversubscribe the cores and make every timing noisy.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Corpus shapes. The WAV corpus is over 3x the pipeline's 256-entry
# feature LRU; the text manifest is the 100k-row audit of acceptance
# criterion 9.
WAV_CORPUS = {"n": 800, "n_speakers": 40}
TEXT_CORPUS = {"n": 100_000, "n_speakers": 2000}
GOLDEN_SEED = 0
GOLDEN_WAV_CORPUS = {"n": 160, "n_speakers": 8}
GOLDEN_TEXT_CORPUS = {"n": 4000, "n_speakers": 80}
# The golden runs use a small budget so that an epoch has more batches
# than the worker pool keeps in flight.
GOLDEN_ARGS = ["--budget", "8000"]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    corpus: str  # "wav" or "text"
    args: tuple[str, ...]  # options shared by the call and its reference audit
    run_args: tuple[str, ...] | None  # None: the call is an audit
    workers: int | None  # CONCAT_AUGMENT_WORKERS, None leaves it unset
    fill_archive: bool = False

    def argv(self, seed: int, out: str, extra=()) -> list[str]:
        command = ["audit"] if self.run_args is None else ["run"]
        return command + list(self.args) + ["--seed", str(seed), "--out", out, *extra] + list(
            self.run_args or ()
        )

    def audit_argv(self, seed: int, out: str, extra=()) -> list[str]:
        return ["audit"] + list(self.args) + ["--seed", str(seed), "--out", out, *extra]


# Why each workload exists is in BENCHMARK.json and README.md.
WAV_ARGS = ("--manifest", "corpus/train.tsv", "--audio-root", "corpus", "--specaugment", "on")
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cold",
            "wav",
            WAV_ARGS + ("--strategy", "random", "--arity", "2", "--epochs", "2"),
            ("--emit", "files"),
            workers=NPROC,
        ),
        Workload(
            "warm",
            "wav",
            WAV_ARGS + ("--strategy", "speaker", "--arity", "2", "--epochs", "2"),
            ("--emit", "stream", "--archive", "archive"),
            workers=None,
            fill_archive=True,
        ),
        Workload(
            "audit",
            "text",
            ("--manifest", "text/train.tsv", "--mode", "asr-normalized")
            + ("--strategy", "speaker", "--arity", "2", "--epochs", "2"),
            None,
            workers=None,
        ),
    )
}


class CheckFailed(Exception):
    """An output check failed or a workload call did not complete."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------- inputs


def write_inputs(workload: Workload, root: Path, seed: int, golden: bool) -> None:
    if workload.corpus == "wav":
        gen.write_wav_corpus(root / "corpus", seed, **(GOLDEN_WAV_CORPUS if golden else WAV_CORPUS))
    else:
        gen.write_text_manifest(
            root / "text" / "train.tsv", seed, **(GOLDEN_TEXT_CORPUS if golden else TEXT_CORPUS)
        )


# ----------------------------------------------------------- child calls


class Caller:
    """Starts child processes one at a time and never leaves one running."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.count = 0

    def env(self, workers: int | None) -> dict:
        env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
        env.pop("CONCAT_AUGMENT_WORKERS", None)
        if workers is not None:
            env["CONCAT_AUGMENT_WORKERS"] = str(workers)
        return env

    def __call__(self, cwd: Path, argv, workers, mode="full", trace=None) -> dict:
        self.count += 1
        spec_path = cwd / f"call-{self.count}.json"
        result_path = cwd / f"call-{self.count}.result.json"
        spec = {"argv": argv, "mode": mode, "result": str(result_path), "trace": trace}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = self.deadline - time.monotonic()
        check(timeout > 0, "out of time before a workload call")
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            cwd=cwd,
            env=self.env(workers),
            stdout=subprocess.DEVNULL,
        )
        try:
            proc.wait(timeout=timeout)
        except BaseException as exc:
            proc.kill()
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise CheckFailed(f"workload call {argv[0]} ran out of time") from None
            raise
        check(proc.returncode == 0, f"workload call {argv[0]} exited with {proc.returncode}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        spec_path.unlink()
        result_path.unlink()
        return result


# ----------------------------------------------------------------- checks


def _hash_file(h, path: Path) -> int:
    size = 0
    with open(path, "rb") as f:
        while chunk := f.read(1 << 22):
            h.update(chunk)
            size += len(chunk)
    return size


def output_digest(out_dir: Path) -> tuple[str, int]:
    """SHA-256 over the batch output (paths and bytes), and its size."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file() and p.name != "report.json"):
        h.update(path.relative_to(out_dir).as_posix().encode("utf-8") + b"\0")
        total += _hash_file(h, path)
    return h.hexdigest(), total


def strip_timings(doc):
    if isinstance(doc, dict):
        return {k: strip_timings(v) for k, v in doc.items() if k != "timings_s"}
    if isinstance(doc, list):
        return [strip_timings(v) for v in doc]
    return doc


def report_digest(report: dict) -> str:
    canonical = json.dumps(strip_timings(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_report(out_dir: Path) -> dict:
    from concat_augment.pipeline import AuditReport

    path = out_dir / "report.json"
    check(path.is_file(), f"no report at {path.name}")
    report = json.loads(path.read_text(encoding="utf-8"))
    check("error" not in report, f"report carries an error: {report.get('error')}")
    names = {f.name for f in dataclasses.fields(AuditReport)}
    try:
        AuditReport(**{k: v for k, v in report.items() if k in names}).check_consistency()
    except AssertionError as exc:
        raise CheckFailed(f"report inconsistent: {exc}") from None
    return report


def validate_batches(out_dir: Path, report: dict) -> None:
    """Decode every CABX record (magic, version and CRC are checked by the
    decoder) and hold each batch and epoch against the report."""
    from concat_augment.batchio import iter_stream, read_batch_file
    from concat_augment.errors import BatchingError

    budget = report["config"]["budget_frames"]
    for ep in report["epochs"]:
        stream = out_dir / f"epoch-{ep['epoch']:03d}.cabxs"
        files = sorted((out_dir / f"epoch-{ep['epoch']:03d}").glob("*.cabx"))
        check(stream.is_file() or files, f"epoch {ep['epoch']}: no batch output")
        batches = iter_stream(stream) if stream.is_file() else map(read_batch_file, files)
        instances = frames = count = 0
        try:
            for batch in batches:
                check(
                    batch.size * batch.t_max <= budget,
                    f"epoch {ep['epoch']}: batch of {batch.size} x {batch.t_max} over budget",
                )
                instances += batch.size
                frames += sum(batch.feature_lengths)
                count += 1
        except BatchingError as exc:
            raise CheckFailed(f"epoch {ep['epoch']}: bad CABX record: {exc}") from None
        check(instances == ep["emitted_instances"], f"epoch {ep['epoch']}: instance count")
        check(frames == ep["total_frames_emitted"], f"epoch {ep['epoch']}: frame count")
        check(count == ep["batch_count"], f"epoch {ep['epoch']}: batch count")


def check_agreement(report: dict, audit_report: dict) -> None:
    """Per epoch, run emits what the audit planned minus its reported failures."""
    check(len(report["epochs"]) == len(audit_report["epochs"]), "run and audit epoch counts")
    for ep, planned in zip(report["epochs"], audit_report["epochs"]):
        failures = ep["materialization_failures"] + ep["failed_originals"]
        check(
            ep["emitted_instances"] == planned["emitted_instances"] - failures,
            f"epoch {ep['epoch']}: run emitted {ep['emitted_instances']}, audit planned "
            f"{planned['emitted_instances']} with {failures} failures",
        )


class OutputChecker:
    """Checks each call's output; every call of a workload must emit the
    same bytes and the same report, so records are decoded once."""

    def __init__(self, audit_report: dict | None):
        self.audit_report = audit_report
        self.digests: tuple[str, str] | None = None
        self.out_bytes = 0

    def __call__(self, out_dir: Path) -> dict:
        report = load_report(out_dir)
        output, size = output_digest(out_dir)
        digests = (output, report_digest(report))
        if self.digests is None:
            if self.audit_report is not None:
                validate_batches(out_dir, report)
                check_agreement(report, self.audit_report)
            self.digests = digests
            self.out_bytes = size
        check(digests == self.digests, "output differs between calls of one workload and input")
        return report


# ----------------------------------------------------------------- set-up


def prepare(workload: Workload, work: Path, seed: int, call: Caller, golden=False) -> OutputChecker:
    """Untimed set-up: inputs, the warm archive and the reference audit."""
    write_inputs(workload, work, seed, golden)
    extra = GOLDEN_ARGS if golden else []
    if workload.fill_archive:
        call(work, workload.argv(seed, "fill", extra + ["--epochs", "1"]), None)
        shutil.rmtree(work / "fill")
    audit_report = None
    if workload.run_args is not None:
        call(work, workload.audit_argv(seed, "audit", extra), None)
        audit_report = load_report(work / "audit")
    return OutputChecker(audit_report)


# ----------------------------------------------------------- golden runs


def platform_key() -> str:
    """What the log-Mel bytes may depend on beyond the package itself."""
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = config["SIMD Extensions"]
    return (
        f"{platform.machine()} numpy-{np.__version__} {blas.get('name')}-{blas.get('version')} "
        f"simd={'+'.join(simd.get('found', []))}"
    )


def golden_digests(workload: Workload, work: Path, call: Caller) -> dict:
    """Digests of the workload's call on the fixed golden corpus; on a
    pool workload, once with one worker and once with the pool."""
    root = work / "golden"
    root.mkdir()
    checker = prepare(workload, root, GOLDEN_SEED, call, golden=True)
    for workers in sorted({1, workload.workers} if workload.workers else {None}, key=str):
        call(root, workload.argv(GOLDEN_SEED, "out", GOLDEN_ARGS), workers)
        checker(root / "out")
        shutil.rmtree(root / "out")
    shutil.rmtree(root)
    return {"output_sha256": checker.digests[0], "report_sha256": checker.digests[1]}


def check_golden(workload: Workload, digests: dict, notes: list) -> None:
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["workloads"][workload.name]
    check(
        digests["report_sha256"] == golden["report_sha256"],
        "golden report digest changed: the counts, plan or diagnostics moved",
    )
    key = platform_key()
    recorded = golden["output_sha256"].get(key)
    if recorded is None:
        notes.append(f"golden output digest not recorded for platform {key!r}")
    else:
        check(digests["output_sha256"] == recorded, "golden output digest changed: emitted bytes moved")


def write_golden(work: Path, call: Caller) -> None:
    doc = {"seed": GOLDEN_SEED, "workloads": {}}
    if GOLDEN_PATH.exists():
        doc = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    for workload in WORKLOADS.values():
        digests = golden_digests(workload, work, call)
        entry = doc["workloads"].setdefault(workload.name, {"output_sha256": {}})
        entry["report_sha256"] = digests["report_sha256"]
        entry["output_sha256"][platform_key()] = digests["output_sha256"]
    GOLDEN_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ------------------------------------------------------------- measuring


def environment(workload: Workload) -> dict:
    import numpy as np

    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            sha = out.stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]),
        "concat_augment_workers": workload.workers,
        "platform": platform_key(),
    }


class Runs:
    """The timed calls of one benchmark run, each checked, then deleted."""

    def __init__(self, workload: Workload, work: Path, argv, call: Caller, checker):
        self.workload = workload
        self.work = work
        self.argv = argv
        self.call = call
        self.checker = checker
        self.attempted = 0
        self.report: dict | None = None

    def __call__(self, mode: str = "full", trace=None) -> dict:
        self.attempted += 1
        result = self.call(self.work, self.argv, self.workload.workers, mode=mode, trace=trace)
        out = self.work / "out"
        if mode == "full":
            self.report = self.checker(out)
        # Delete before the next call, so its writeback never lands there.
        shutil.rmtree(out, ignore_errors=True)
        return result


def measure(workload: Workload, seed: int, seconds: float, trace: bool, runs: Runs) -> dict:
    """Make full calls for ``seconds`` (at least MIN_REPS; a traced run
    spends half of it, then makes one traced call) and return the
    metrics, name -> value, with the samples they came from.

    Between full calls, calls that stop at the start of epoch 0 take
    SETUP_SHARE of the time, so the set-up samples span the run as the
    full calls do. The last call starts while less than half a call's
    time is left, so the run ends close to ``seconds`` on average.
    """
    samples = {"wall_s": [], "setup_s": [], "peak_rss_mb": []}
    durations = []
    setup_spent = 0.0
    started = time.monotonic()
    budget = seconds / 2 if trace else seconds
    while True:
        t0 = time.monotonic()
        result = runs()
        durations.append(time.monotonic() - t0)
        for key in samples:
            samples[key].append(result[key])
        while not trace and setup_spent < SETUP_SHARE * (time.monotonic() - started):
            t0 = time.monotonic()
            samples["setup_s"].append(runs(mode="setup")["setup_s"])
            setup_spent += time.monotonic() - t0
        enough = len(durations) >= (1 if trace else MIN_REPS)
        if enough and time.monotonic() - started + statistics.median(durations) / 2 > budget:
            break

    if trace:
        spans = WORK / "traces" / f"{workload.name}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        run_id = f"{workload.name}-seed{seed}"
        result = runs(trace={"run_id": run_id, "spans": str(spans), "out_dir": "out"})
        metrics = dict(result["layers"])
        metrics["batchio.out_bytes"] = runs.checker.out_bytes
        metrics["trace.overhead_s"] = result["wall_s"] - statistics.median(samples["wall_s"])
        samples["traced_wall_s"] = [result["wall_s"]]
        return {"metrics": metrics, "samples": samples, "spans": str(spans.relative_to(ROOT))}

    while len(samples["setup_s"]) < MIN_SETUP_SAMPLES:
        samples["setup_s"].append(runs(mode="setup")["setup_s"])
    walls = samples["wall_s"]
    frames = runs.report["totals"]["total_frames_emitted"]
    metrics = {
        "wall_s": statistics.median(walls),
        "frames_per_s": statistics.median(frames / w for w in walls),
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        "padding_waste": statistics.fmean(e["padding_waste"] for e in runs.report["epochs"]),
    }
    return {"metrics": metrics, "samples": samples}


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_golden:
        parser.error("--workload is required")

    if not (SRC / "concat_augment" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'concat_augment'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    call = Caller(time.monotonic() + DEADLINE_S)
    work = WORK / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runs = None
    try:
        if args.write_golden:
            write_golden(work, call)
            return 0
        workload = WORKLOADS[args.workload]
        units = declared_units(bool(args.trace))
        notes: list[str] = []
        t0 = time.monotonic()
        check_golden(workload, golden_digests(workload, work, call), notes)
        t1 = time.monotonic()
        checker = prepare(workload, work, args.seed, call)
        t2 = time.monotonic()
        runs = Runs(workload, work, workload.argv(args.seed, "out"), call, checker)
        outcome = measure(workload, args.seed, args.seconds, bool(args.trace), runs)
        phases = {"golden_s": t1 - t0, "prepare_s": t2 - t1, "measure_s": time.monotonic() - t2}
        check(set(outcome["metrics"]) == set(units), "measured metrics differ from BENCHMARK.json")
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        attempted = runs.attempted if runs is not None else 0
        print(json.dumps({"correct": False, "attempted": max(1, attempted), "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stamp = {
        "workload": workload.name,
        "seed": args.seed,
        "env": environment(workload),
        "output_sha256": checker.digests[0],
        "report_sha256": checker.digests[1],
        "out_bytes": checker.out_bytes,
        "samples": outcome["samples"],
        "phases": phases,
        "notes": notes,
    }
    if "spans" in outcome:
        stamp["spans_file"] = outcome["spans"]
    print(json.dumps(stamp))
    metrics = {k: {"value": v, "unit": units[k]} for k, v in sorted(outcome["metrics"].items())}
    print(json.dumps({"correct": True, "attempted": runs.attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
