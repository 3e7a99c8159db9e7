"""Command-line experiment runner.

Subcommands: simulate | train-exposure | train | evaluate | report.
Every command takes --config and optional --seed/--out overrides and is
deterministic given those inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import pipeline
from .config import ConfigError, ExperimentConfig, load_config, save_config
from .nn import keep_freed_memory


def _load(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = str(args.out)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def cmd_simulate(args) -> int:
    config = _load(args)
    out = Path(config.out_dir)
    pipeline.simulate(config, out)
    save_config(config, out / "config.txt")
    print(f"wrote {out / pipeline.EVENTS_FILE} and {out / pipeline.WORLD_FILE}")
    return 0


def cmd_train_exposure(args) -> int:
    config = _load(args)
    out = Path(config.out_dir)
    pipeline.train_exposure(config, out)
    print(f"wrote {out / pipeline.EXPO_SIM_FILE} and {out / pipeline.EVAL_SIM_FILE}")
    return 0


def cmd_train(args) -> int:
    config = _load(args)
    out = Path(config.out_dir)
    pipeline.train_backbone(config, out)
    print(f"wrote {out / pipeline.MODEL_FILE} ({config.backbone}, method={config.method})")
    return 0


def cmd_evaluate(args) -> int:
    config = _load(args)
    out = Path(config.out_dir)
    report = pipeline.evaluate(config, out)
    print(report.to_json())
    return 0


def cmd_report(args) -> int:
    runs = [Path(r) for r in args.runs]
    for run in runs:
        if not run.is_dir():
            raise FileNotFoundError(f"run directory {run} does not exist")
    rows = pipeline.report_runs(runs, args.table)
    print(f"wrote {args.table} ({len(rows)} metrics over {len(runs)} runs)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drorec",
        description="Exposure-debiased sequential recommendation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None, help="config file path")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", type=Path, default=None, help="override output dir")

    p = sub.add_parser("simulate", help="generate a synthetic world + event log")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train-exposure", help="fit the exposure/evaluation simulators")
    common(p)
    p.set_defaults(func=cmd_train_exposure)

    p = sub.add_parser("train", help="train the backbone with the configured method")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="compute naive + SNIPS metrics")
    common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="aggregate metrics across run dirs")
    p.add_argument("runs", nargs="+", help="run directories with metrics.json")
    p.add_argument("--table", type=Path, default=Path("report.csv"))
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    keep_freed_memory()
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
