"""Staged CLI benchmark for drorec.

Runs the documented CLI stages (simulate -> train-exposure -> train ->
evaluate) of one workload as child processes, one at a time, checks every
output, and prints the metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 bench/run.py --workload dro-default --seed 0 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 0      # every workload, both kinds

--trace 0 measures the end-to-end metrics with no instrumentation.  --trace 1
runs pairs of passes, one plain and one with timing spans around drorec's
functions, and reports the per-layer metrics and the tracing overhead.

This process imports neither NumPy nor drorec and loads no outputs: on
Linux a child's peak RSS as `wait4` reports it is never below the parent's
peak RSS, so the parent must stay smaller than every stage it measures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import stages
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# workload names and every metric's name, unit and direction
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUNS = ROOT / ".bench_runs"
CHECKER = Path(__file__).resolve().parent / "check_outputs.py"
SETUP_REPEATS = 3
DEFAULT_SECONDS = 12

ROUND_OUTPUTS = ("expo_sim.npz", "eval_sim.npz", "model.npz", "train_log.jsonl",
                 "metrics.json", "metrics.csv")


class Operations:
    """Stage runs and output checks attempted in one run, and which failed."""

    def __init__(self, config: Path):
        self.config = config
        self.env = stages.child_env(SRC)
        self.log: list[dict] = []
        self.machine: dict = {}

    @property
    def attempted(self) -> int:
        return len(self.log)

    @property
    def failed(self) -> int:
        return sum(not op["ok"] for op in self.log)

    def stage(self, stage: str, out_dir: Path,
              spans_path: Path | None = None) -> stages.StageRun:
        argv = stages.stage_argv(stage, self.config, out_dir, spans_path)
        try:
            run = stages.run_process(stage, argv, self.env, out_dir.parent / "stages.log")
        except stages.StageError as exc:
            self.log.append({"op": f"stage:{stage}", "ok": False, "error": str(exc)})
            raise
        self.log.append({"op": f"stage:{stage}", "ok": True})
        return run

    def check(self, run_dir: Path, *flags: str) -> dict | None:
        """Check one pass's outputs in a child process; returns the oracle
        scores of `checks.oracle_scores`, or None."""
        argv = [sys.executable, str(CHECKER), "--config", str(self.config),
                "--run-dir", str(run_dir), *flags]
        try:
            proc = subprocess.run(argv, env=self.env, capture_output=True, text=True,
                                  timeout=stages.STAGE_TIMEOUT_S)
            verdict = json.loads(proc.stdout.strip().splitlines()[-1])
        except subprocess.TimeoutExpired:
            self.log.append({"op": "check:checker", "ok": False,
                             "error": f"no verdict within {stages.STAGE_TIMEOUT_S:.0f} s"})
            return None
        except (IndexError, json.JSONDecodeError):
            self.log.append({"op": "check:checker", "ok": False,
                             "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"})
            return None
        self.log.extend(verdict["ops"])
        self.machine = verdict["env"]
        return verdict["oracle"]

    def traced_targets(self, missing: list[str]) -> None:
        """Fail the run for every traced function drorec no longer has: its
        per-layer metrics would read 0, which looks like a speed-up."""
        for target in missing:
            self.log.append({"op": f"trace:{target}", "ok": False,
                             "error": "traced function not found in drorec"})


def _median(values) -> float:
    return float(statistics.median(list(values)))


def measure_end_to_end(ops: Operations, seconds: float, work: Path) -> tuple[dict, dict]:
    """Untraced run: `simulate` SETUP_REPEATS times, then whole rounds of
    train-exposure -> train -> evaluate until `seconds` have passed."""
    t0 = time.perf_counter()
    setup_dirs = [work / f"setup{i}" for i in range(SETUP_REPEATS)]
    setup = [ops.stage("simulate", d) for d in setup_dirs]
    run_dir = setup_dirs[0]
    ops.check(run_dir, "--events", "--setup-copies", *map(str, setup_dirs[1:]))

    rounds, oracles = [], []
    first_metrics = work / "round1" / "metrics.json"
    while True:
        for name in ROUND_OUTPUTS:
            (run_dir / name).unlink(missing_ok=True)
        rounds.append([ops.stage(s, run_dir) for s in stages.STAGES[1:]])
        if len(rounds) == 1 and (run_dir / "metrics.json").exists():
            first_metrics.parent.mkdir()
            shutil.copyfile(run_dir / "metrics.json", first_metrics)
        oracles.append(ops.check(run_dir, "--outputs", "--same-scores-as", str(first_metrics)))
        if time.perf_counter() - t0 >= seconds:
            break

    runs = {s: [r for rnd in rounds for r in rnd if r.stage == s] for s in stages.STAGES[1:]}
    runs["simulate"] = setup
    rss = {s: _median(r.peak_rss_mb for r in rs) for s, rs in runs.items()}
    setup_s = _median(r.wall_s for r in setup)
    valid_oracles = [o for o in oracles if o is not None]
    metrics = {
        "setup_s": setup_s,
        "train_exposure_s": _median(r.wall_s for r in runs["train-exposure"]),
        "train_s": _median(r.wall_s for r in runs["train"]),
        "pipeline_s": setup_s + _median(sum(r.wall_s for r in rnd) for rnd in rounds),
        "peak_rss_mb": max(rss.values()),
        "train_exposure_peak_rss_mb": rss["train-exposure"],
        "train_peak_rss_mb": rss["train"],
        "oracle_rank_gain": (_median(o["rank_gain"] for o in valid_oracles)
                             if valid_oracles else 0.0),
    }
    samples = {s: [[round(r.wall_s, 4), round(r.peak_rss_mb, 1)] for r in rs]
               for s, rs in runs.items()}
    return metrics, {"rounds": len(rounds), "stage_wall_s_and_rss_mb": samples,
                     "oracle": valid_oracles[:1]}


def measure_layers(ops: Operations, seconds: float, work: Path) -> tuple[dict, dict]:
    """Traced run: pairs of passes over all four stages, one plain (stage
    rusage) and one traced (spans), until `seconds` have passed."""
    t0 = time.perf_counter()
    passes = []
    while True:
        plain_dir = work / f"pass{len(passes)}-plain"
        traced_dir = work / f"pass{len(passes)}-traced"
        plain = [ops.stage(s, plain_dir) for s in stages.STAGES]
        span_files = [work / f"spans{len(passes)}-{s}.json" for s in stages.STAGES]
        traced = [ops.stage(s, traced_dir, f) for s, f in zip(stages.STAGES, span_files)]
        oracle = ops.check(plain_dir, "--events", "--outputs")
        ops.check(traced_dir, "--events", "--outputs", "--same-outputs-as", str(plain_dir))
        metrics = layers.stage_metrics(plain)
        span_values, missing = layers.span_metrics(span_files)
        ops.traced_targets(missing)
        metrics.update(span_values)
        metrics["quality.oracle_ndcg10"] = oracle["ndcg10"] if oracle else 0.0
        metrics["data.events_tsv_bytes"] = float((traced_dir / "events.tsv").stat().st_size)
        metrics["trace.overhead_s"] = (sum(r.wall_s for r in traced)
                                       - sum(r.wall_s for r in plain))
        passes.append(metrics)
        if time.perf_counter() - t0 >= seconds:
            break
    values = {m["name"]: _median(p.get(m["name"], 0.0) for p in passes)
              for m in SPEC["per_layer"]}
    return values, {"passes": len(passes)}


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns its record, result fields included.

    A run whose checks all pass leaves only its record and, when traced, its
    span files; a failed run leaves its whole directory for inspection."""
    work = RUNS / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    config = work / "config.txt"
    config.write_text(workloads.config_text(name, seed))
    ops = Operations(config)
    measure, catalog = (measure_layers, SPEC["per_layer"]) if trace else (
        measure_end_to_end, SPEC["end_to_end"])
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    metrics = {}
    try:
        values, detail = measure(ops, seconds, work)
        record.update(detail)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in catalog}
    except stages.StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
    record.update({**ops.machine, "attempted": ops.attempted, "failed": ops.failed,
                   "correct": bool(metrics) and ops.failed == 0,
                   "operations": ops.log, "metrics": metrics})
    (RUNS / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    if record["correct"]:
        if trace:
            spans_dir = RUNS / f"spans-{name}-seed{seed}"
            shutil.rmtree(spans_dir, ignore_errors=True)
            spans_dir.mkdir()
            for path in work.glob("spans*.json"):
                path.rename(spans_dir / path.name)
        shutil.rmtree(work)
    return record


def _print_table(record: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"attempted={record['attempted']} failed={record['failed']}")
    for name, m in record["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    for op in record["operations"]:
        if not op["ok"]:
            print(f"FAILED {op['op']}: {op['error']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "drorec" / "cli.py").is_file():
        print(f"error: no drorec sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        plan = [(args.workload, args.trace)]
    records = []
    for name, trace in plan:
        records.append(run_one(name, args.seed, args.seconds, trace))
        _print_table(records[-1])

    machine = {k: records[0].get(k) for k in ("nproc", "python", "numpy", "blas", "blas_threads")}
    runs = [{k: r.get(k) for k in ("workload", "trace", "attempted", "failed", "rounds", "passes")}
            for r in records]
    print(json.dumps({"record": {"seed": args.seed, **machine, "runs": runs}}))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{n}": m for r in records for n, m in r["metrics"].items()}
    result = {"correct": all(r["correct"] for r in records),
              "attempted": sum(r["attempted"] for r in records),
              "failed": sum(r["failed"] for r in records),
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
