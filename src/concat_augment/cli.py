"""Command-line entry point.

    concat-augment run   --manifest M --strategy random --seed 7 \
        --epochs 3 --budget 40000 --max-frames 3000 --out DIR \
        [--no-original] [--specaugment on]
    concat-augment audit --manifest M --strategy speaker ...

``audit`` runs the same epoch engine as ``run`` but touches no audio
and writes no batches. The size of the worker pool that extracts
features is taken from the CONCAT_AUGMENT_WORKERS environment variable.
"""

from __future__ import annotations

import argparse
import json
import sys

from .augment import Strategy
from .errors import PipelineError
from .pipeline import PipelineConfig, audit, format_summary, run
from .specaugment import MaskPolicy


def _add_common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--manifest", required=True, help="TSV manifest path")
    parser.add_argument("--strategy", choices=("self", "speaker", "random"), default="random")
    parser.add_argument("--arity", type=int, default=2, help="instances per concatenation")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=1)
    parser.add_argument("--max-frames", type=int, default=3000, help="length filter threshold")
    parser.add_argument("--budget", type=int, default=40000, help="padded frames per batch")
    parser.add_argument(
        "--mode", choices=("tokens", "asr-normalized"), default="tokens", help="corpus mode"
    )
    parser.add_argument(
        "--no-original", action="store_true", help="emit augmented data only (ablation)"
    )
    parser.add_argument("--specaugment", choices=("on", "off"), default="off")
    parser.add_argument("--sa-freq", type=int, default=27)
    parser.add_argument("--sa-time", type=int, default=100)
    parser.add_argument("--sa-nfreq", type=int, default=2)
    parser.add_argument("--sa-ntime", type=int, default=2)
    parser.add_argument("--bucketing", choices=("on", "off"), default="on")
    parser.add_argument("--accounting", choices=("padded", "true"), default="padded")
    parser.add_argument("--report", default=None, help="report JSON path")
    parser.add_argument("--audio-root", default=None, help="base dir for relative audio refs")
    parser.add_argument(
        "--archive", default=None, help="feature archive the run extracts into and reads from"
    )
    parser.add_argument("--pad-id", type=int, default=0, help="target pad symbol")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concat-augment",
        description="Concatenation-based data augmentation for speech-to-text corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="emit augmented batches and a report")
    _add_common_args(run_p)
    run_p.add_argument("--out", required=True, help="output directory for batch artifacts")
    run_p.add_argument("--emit", choices=("files", "stream"), default="files")

    audit_p = sub.add_parser("audit", help="dry run: plan and report, no batch emission")
    _add_common_args(audit_p)
    audit_p.add_argument("--out", default=None, help="optional directory for the report")
    return parser


def config_from_args(args: argparse.Namespace) -> PipelineConfig:
    policy = None
    if args.specaugment == "on":
        policy = MaskPolicy(
            freq_param=args.sa_freq,
            time_param=args.sa_time,
            n_freq_masks=args.sa_nfreq,
            n_time_masks=args.sa_ntime,
        )
    return PipelineConfig(
        manifest_path=args.manifest,
        out_dir=args.out,
        report_path=args.report,
        corpus_mode=args.mode,
        strategy=Strategy(args.strategy, args.arity),
        seed=args.seed,
        epochs=args.epochs,
        max_frames=args.max_frames,
        budget_frames=args.budget,
        include_original=not args.no_original,
        specaugment=policy,
        bucketing=args.bucketing == "on",
        accounting=args.accounting,
        emit=getattr(args, "emit", "files"),
        target_pad_id=args.pad_id,
        audio_root=args.audio_root,
        archive_dir=args.archive,
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        if args.command == "run":
            report = run(config)
        else:
            report = audit(config)
    except PipelineError as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return 1
    print(format_summary(report))
    if args.command == "audit" and args.out is None and args.report is None:
        print(json.dumps(report.to_dict(), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
