"""Check the outputs of one pass in its own process and print the verdicts.

    python3 bench/check_outputs.py --config C --run-dir D [--events]
        [--outputs] [--setup-copies D1 D2 ...] [--same-scores-as FILE]
        [--same-outputs-as DIR]

Prints one JSON line: {"ops": [{"op", "ok", "error"?}], "oracle": {...} or
null, "env": {...}}.  The checks run here rather than in the benchmark's
own process so that process stays small: a child's peak RSS as `wait4`
reports it is never below its parent's peak at the time of the fork.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import checks


class Verdicts:
    def __init__(self):
        self.ops: list[dict] = []

    def run(self, name: str, fn, *args):
        """One output check; a wrong or unreadable output fails it."""
        try:
            result = fn(*args)
        except (checks.CheckFailed, OSError, KeyError, ValueError) as exc:
            self.ops.append({"op": f"check:{name}", "ok": False,
                             "error": f"{type(exc).__name__}: {exc}"})
            return None
        self.ops.append({"op": f"check:{name}", "ok": True})
        return result


def environment() -> dict:
    """Machine facts, read in a stage-like child: the BLAS pin is the one
    the stages saw."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": None}
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--events", action="store_true", help="check events.tsv")
    parser.add_argument("--outputs", action="store_true",
                        help="check simulators, model, metrics and the oracle")
    parser.add_argument("--setup-copies", type=Path, nargs="*", default=[])
    parser.add_argument("--same-scores-as", type=Path)
    parser.add_argument("--same-outputs-as", type=Path)
    args = parser.parse_args(argv)

    from drorec.config import load_config

    cfg = load_config(args.config)
    run_dir = args.run_dir
    verdicts = Verdicts()
    for copy in args.setup_copies:
        for name in ("events.tsv", "world.npz"):
            verdicts.run("simulate_deterministic", checks.same_file,
                         run_dir / name, copy / name)
    ev = verdicts.run("events_readable", checks.read_events, run_dir / "events.tsv")
    if ev is not None and args.events:
        verdicts.run("events_structure", checks.check_events, ev, cfg.n_users,
                     cfg.rounds, cfg.slate_size)
    oracle = None
    if ev is not None and args.outputs:
        verdicts.run("simulator_pop_counts", checks.check_pop_counts, ev, run_dir,
                     cfg.expo_fraction)
        verdicts.run("q0_normalisation", checks.check_q0, ev, run_dir, cfg.beta,
                     cfg.max_click_len, cfg.seed)
        verdicts.run("model_and_train_log", checks.check_model, run_dir)
        verdicts.run("metrics_recomputed", checks.check_metrics, ev, run_dir, cfg)
        oracle = verdicts.run("oracle_scores", checks.oracle_scores, ev, run_dir,
                              cfg.max_click_len)
        if oracle is not None:
            verdicts.run("oracle_below_ideal", checks.check_oracle, oracle)
    if args.same_scores_as is not None:
        verdicts.run("scores_repeat", checks.same_scores, args.same_scores_as,
                     run_dir / "metrics.json")
    if args.same_outputs_as is not None:
        for name in ("events.tsv", "model.npz"):
            verdicts.run("tracing_changes_no_output", checks.same_file,
                         args.same_outputs_as / name, run_dir / name)
        verdicts.run("tracing_changes_no_output", checks.same_scores,
                     args.same_outputs_as / "metrics.json", run_dir / "metrics.json")
    print(json.dumps({"ops": verdicts.ops, "oracle": oracle, "env": environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
