"""The benchmark's tracer finds the run path under the names it wraps.

``perfbench/tracer.py`` wraps functions and methods by name, so a run
path that moves off those names zeroes its per-layer metrics without an
error. A traced run in a subprocess (the wrapping stays there), in each
emit mode, checks that archive reads and batch writes are still seen:
``write_batch_file`` carries ``cold``'s writes and ``StreamWriter.write``
``warm``'s. A traced audit checks the manifest metrics and the epoch
boundary the benchmark's ``child.py`` finds by patching
``pipeline.plan_epoch``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json
from pathlib import Path

import numpy as np
from tracer import WRITE_SPANS, Tracer, layer_metrics

tracer = Tracer("hooks")
tracer.install()
from concat_augment import pipeline
from concat_augment.archive import FeatureArchive
from concat_augment.augment import Strategy
from concat_augment.features import FeatureConfig
from concat_augment.specaugment import MaskPolicy

rng = np.random.default_rng(3)
rows = ["id\\taudio\\tn_frames\\ttgt_text\\tspeaker"]
with FeatureArchive("archive", mode="a", feature=FeatureConfig(n_mels=8)) as archive:
    for i in range(24):
        n_frames = int(rng.integers(5, 40))
        archive.write(f"u{i}", rng.standard_normal((n_frames, 8)).astype(np.float32))
        rows.append(f"u{i}\\tu{i}.npy\\t{n_frames}\\t{i} 7\\ts{i % 4}")
with open("train.tsv", "w", encoding="utf-8") as f:
    f.write("\\n".join(rows) + "\\n")
config = pipeline.PipelineConfig(
    manifest_path="train.tsv", out_dir="out", archive_dir="archive", emit=EMIT,
    strategy=Strategy("speaker"), epochs=2, budget_frames=200,
    feature=FeatureConfig(n_mels=8), specaugment=MaskPolicy(freq_param=2, time_param=5),
)
report = pipeline.run(config)
out_bytes = sum(p.stat().st_size for p in Path("out").glob("epoch-*/*.cabx"))
out_bytes += sum(p.stat().st_size for p in Path("out").glob("epoch-*.cabxs"))
metrics = layer_metrics(tracer.spans, report.to_dict(), out_bytes)
metrics["write_spans"] = sum(1 for span in tracer.spans if span[3] in WRITE_SPANS)
print(json.dumps(metrics))
"""


AUDIT_SCRIPT = """
import json

from tracer import Tracer, layer_metrics

tracer = Tracer("hooks")
tracer.install()
from concat_augment import cli, pipeline

# as perfbench/child.py finds the start of each epoch
epochs = []
plan_epoch = pipeline.plan_epoch


def counted(*args, **kwargs):
    epochs.append(args[4])
    return plan_epoch(*args, **kwargs)


pipeline.plan_epoch = counted

rows = ["id\\taudio\\tn_frames\\ttgt_text\\tspeaker"]
for i in range(40):
    rows.append(f"t{i}\\tt{i}.wav\\t{20 + i}\\tWord{i}, Word{i % 3}!\\ts{i % 5}")
rows += [
    "b1\\tb1.wav\\t20\\tfour fields",
    "b2\\tb2.wav\\tmany\\tbad frames\\ts0",
    "b3\\tb3.wav\\t20\\t?! \\u2014\\ts0",
]
with open("train.tsv", "w", encoding="utf-8") as f:
    f.write("\\n".join(rows) + "\\n")
rc = cli.main([
    "audit", "--manifest", "train.tsv", "--mode", "asr-normalized", "--strategy", "speaker",
    "--epochs", "3", "--budget", "400", "--out", "out",
])
with open("out/report.json", encoding="utf-8") as f:
    report = json.load(f)
metrics = layer_metrics(tracer.spans, report, 0)
metrics["rc"] = rc
metrics["epochs"] = epochs
print(json.dumps(metrics))
"""


def traced(script, cwd):
    """The last line a script prints, as JSON, run with the tracer importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env.pop("CONCAT_AUGMENT_WORKERS", None)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("emit", ["files", "stream"])
def test_traced_run_sees_archive_reads_and_batch_writes(tmp_path, emit):
    metrics = traced(f"EMIT = {emit!r}\n" + SCRIPT, tmp_path)
    assert metrics["archive.read.calls"] > 0
    assert metrics["archive.read_mb"] > 0
    assert metrics["write_spans"] > 2
    assert metrics["batchio.write_mbps"] > 0
    assert metrics["pipeline.writer_wait_s"] > 0


def test_traced_audit_sees_the_manifest_and_each_epoch(tmp_path):
    metrics = traced(AUDIT_SCRIPT, tmp_path)
    assert metrics["rc"] == 0
    assert metrics["epochs"] == [0, 1, 2]
    assert metrics["manifest.rows_per_s"] > 0
    assert metrics["manifest.skipped"] == 3
    assert metrics["manifest.load_manifest.s"] > 0
    assert metrics["augment.plan_epoch.s"] > 0
