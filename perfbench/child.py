"""Make one workload call in a fresh process and write what it measured.

    python3 perfbench/child.py SPEC.json

``run.py`` starts one of these per call, so every call gets its own
peak RSS and an empty feature cache. SPEC is a JSON object:

* ``argv``: the arguments for ``concat_augment.cli.main``;
* ``mode``: ``"full"`` makes the whole call, ``"setup"`` stops it at
  the start of epoch 0;
* ``result``: where to write the measurements (JSON);
* ``trace``: ``null``, or ``{"run_id", "spans", "out_dir"}`` to trace
  the call, write its spans to ``spans`` and add per-layer metrics.

The start of epoch 0 is the first call into ``pipeline.plan_epoch``.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path


class SetupDone(BaseException):
    """Ends a set-up-only call at the start of epoch 0.

    A BaseException, so no handler in the package catches it, while the
    package's ``finally`` blocks still close what they opened.
    """


def out_bytes(out_dir: Path) -> int:
    return sum(
        p.stat().st_size for p in out_dir.rglob("*") if p.is_file() and p.name != "report.json"
    )


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    from concat_augment import cli, pipeline

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(spec["trace"]["run_id"])
        tracer.install()

    epoch0 = []
    plan_epoch = pipeline.plan_epoch

    def first_plan(*args, **kwargs):
        if not epoch0:
            epoch0.append(time.perf_counter())
            if spec["mode"] == "setup":
                raise SetupDone
        return plan_epoch(*args, **kwargs)

    pipeline.plan_epoch = first_plan

    rc = None
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        try:
            rc = cli.main(spec["argv"])
        except SetupDone:
            rc = 0
        end = time.perf_counter()

    result = {
        "rc": rc,
        "wall_s": end - start,
        "setup_s": epoch0[0] - start if epoch0 else None,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None and rc == 0:
        from tracer import layer_metrics

        out_dir = Path(spec["trace"]["out_dir"])
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        result["layers"] = layer_metrics(tracer.spans, report, out_bytes(out_dir))
        tracer.write(spec["trace"]["spans"])
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
