"""High-level experiment steps shared by the CLI and the test harness.

Each step is a pure function of (config, input files, seed): simulate a
world, train the exposure/evaluation simulators, train a backbone with
the chosen debiasing method, and evaluate with naive + SNIPS metrics.
The four stages hand off through the files of one run directory. A
caller that already holds what a stage would read back from it (the
prepared data of `load_log`, the simulators, the model) may pass it in;
`prepare`, `fit_simulator`, `warm_start` and `robust_finetune` are the
pieces for work in memory.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, baselines
from .config import ExperimentConfig, config_to_text
from .data import (EventLog, index_sequences, parse_event_log, sequences_to_matrix,
                   serialize_event_log, split_by_user, split_exposure)
from .dro import train_model
from .evaluation import config_fingerprint, evaluate_model
from .exposure import ExposureSimulator, StepQ0, build_simulators
from .model import SeqModel
from .synthworld import GroundTruthWorld, LoggingPolicy, generate_world, run_feedback_loop

EVENTS_FILE = "events.tsv"
WORLD_FILE = "world.npz"
EXPO_SIM_FILE = "expo_sim.npz"
EVAL_SIM_FILE = "eval_sim.npz"
MODEL_FILE = "model.npz"
TRAIN_LOG_FILE = "train_log.jsonl"
METRICS_JSON = "metrics.json"
METRICS_CSV = "metrics.csv"

REVISION = f"drorec-{__version__}"


def simulate(config: ExperimentConfig, out_dir: Path) -> GroundTruthWorld:
    """The synthetic world, written to out_dir with its feedback-loop log."""
    out_dir = Path(out_dir)
    if not out_dir.parent.exists():
        raise FileNotFoundError(f"output location {out_dir.parent} does not exist")
    out_dir.mkdir(exist_ok=True)
    world = generate_world(config.n_users, config.n_items, config.latent_dim,
                           config.seed)
    policy = LoggingPolicy(kind=config.policy, slate_size=config.slate_size,
                           rounds=config.rounds)
    log = run_feedback_loop(world, policy, seed=config.seed)
    (out_dir / EVENTS_FILE).write_text(serialize_event_log(log))
    world.save(out_dir / WORLD_FILE)
    return world


def load_log(out_dir: Path) -> EventLog:
    path = Path(out_dir) / EVENTS_FILE
    with open(path, encoding="utf-8") as fh:
        return parse_event_log(fh)


@dataclass
class PreparedData:
    log: EventLog
    expo_part: EventLog             # the earlier exposures of every user
    eval_part: EventLog             # the later ones
    train_seqs: np.ndarray          # (n_train, max_click_len)
    test_targets: np.ndarray        # held-out next click per test user
    test_prefix_mat: np.ndarray     # their clicks before it


def prepare(config: ExperimentConfig, log: EventLog) -> PreparedData:
    """User split, exposure split, and padded training/test sequences."""
    split = split_by_user(log, (config.train_ratio, config.valid_ratio,
                                config.test_ratio), seed=config.seed)
    expo_part, eval_part = split_exposure(log, config.expo_fraction)

    n_train = len(split.train_users)
    clicks = index_sequences(log, split.train_users + split.test_users)
    train_clicks = [s for s in clicks[:n_train] if len(s) >= 2]
    train_seqs = sequences_to_matrix(train_clicks, config.max_click_len)

    prefixes, targets = [], []
    for seq in clicks[n_train:]:
        if len(seq) >= 2:
            prefixes.append(seq[:-1])
            targets.append(seq[-1])
    return PreparedData(
        log=log, expo_part=expo_part, eval_part=eval_part,
        train_seqs=train_seqs,
        test_targets=np.array(targets, dtype=np.int64),
        test_prefix_mat=sequences_to_matrix(prefixes, config.max_click_len))


def _fit(config: ExperimentConfig,
         parts: list[tuple[EventLog, EventLog, int]]) -> list[ExposureSimulator]:
    return build_simulators(parts, dim=config.expo_dim, max_len=config.max_expo_len,
                            beta=config.beta, epochs=config.expo_epochs, lr=config.lr,
                            batch_size=config.batch_size)


def fit_simulator(config: ExperimentConfig, data: PreparedData) -> ExposureSimulator:
    """The exposure simulator, fit on the earlier exposure part; it may
    not see the later part's events."""
    return _fit(config, [(data.expo_part, data.eval_part, config.seed)])[0]


def train_exposure(config: ExperimentConfig, out_dir: Path,
                   data: PreparedData | None = None) -> tuple[ExposureSimulator, ExposureSimulator]:
    """Fit the exposure simulator of `fit_simulator` and the evaluation
    simulator, the latter on the later exposure part without seeing the
    earlier one, their components side by side (`exposure.build_simulators`)."""
    out_dir = Path(out_dir)
    if data is None:
        data = prepare(config, load_log(out_dir))
    expo_sim, eval_sim = _fit(config, [
        (data.expo_part, data.eval_part, config.seed),
        (data.eval_part, data.expo_part, config.seed + 1000)])
    expo_sim.save(out_dir / EXPO_SIM_FILE)
    eval_sim.save(out_dir / EVAL_SIM_FILE)
    return expo_sim, eval_sim


def _new_model(config: ExperimentConfig, data: PreparedData) -> SeqModel:
    """The untrained recommender of the run."""
    catalog = data.log.catalog
    return SeqModel(catalog.n_items, config.embedding_dim, config.max_click_len,
                    config.backbone, seed=config.seed, fingerprint=catalog.fingerprint)


def warm_start(config: ExperimentConfig, data: PreparedData,
               log_path: Path | None = None) -> SeqModel:
    """The base of the robust fine-tune: ``warmup_epochs`` of plain
    training, then the dro head re-aligned to the trained main head."""
    model = _new_model(config, data)
    train_model(model, data.train_seqs, method="none",
                epochs=config.warmup_epochs, lr=config.lr, beta2=config.beta2,
                batch_size=config.batch_size, seed=config.seed,
                log_path=log_path, phase="warmup")
    model.realign_heads()
    return model


def robust_finetune(model: SeqModel, config: ExperimentConfig,
                    data: PreparedData, q0_steps: StepQ0 | None,
                    log_path: Path | None = None) -> None:
    """Fine-tune a warm-started model in place with the robust term at
    weight ``config.a`` over the nominal exposure q0_steps (`step_q0`,
    unused at ``a = 0``).

    A fresh optimizer with slower second-moment decay (fine_beta2) keeps
    the robust term's initial gradient spike in the denominator instead
    of renormalizing it away.
    """
    train_model(model, data.train_seqs, method="dro", a=config.a,
                q0_steps=q0_steps,
                epochs=config.epochs - config.warmup_epochs, lr=config.lr,
                beta2=config.fine_beta2, batch_size=config.batch_size,
                seed=config.seed + 1, log_path=log_path, phase="robust",
                first_epoch=config.warmup_epochs)


def train_backbone(config: ExperimentConfig, out_dir: Path,
                   data: PreparedData | None = None,
                   expo_sim: ExposureSimulator | None = None) -> SeqModel:
    """Train the target recommender with the configured debiasing method."""
    out_dir = Path(out_dir)
    if data is None:
        data = prepare(config, load_log(out_dir))
    if expo_sim is None and config.method != "none":
        expo_sim = ExposureSimulator.load(out_dir / EXPO_SIM_FILE, data.log.catalog)

    log_path = out_dir / TRAIN_LOG_FILE
    if config.method == "dro":
        model = warm_start(config, data, log_path)
        q0_steps = expo_sim.step_q0(data.train_seqs) if config.a != 0.0 else None
        robust_finetune(model, config, data, q0_steps, log_path)
    else:
        model = _new_model(config, data)
        prop = clip = None
        if config.method != "none":
            prop = baselines.PropensityProvider(expo_sim).for_steps(data.train_seqs)
        if config.method == "ips_c":
            clip = baselines.median_exposure_clip(expo_sim, data.train_seqs,
                                                  seed=config.seed)
        train_model(model, data.train_seqs, method=config.method,
                    prop_steps=prop, clip=clip, epochs=config.epochs,
                    lr=config.lr, beta2=config.beta2,
                    batch_size=config.batch_size, seed=config.seed,
                    log_path=log_path)
    model.save(out_dir / MODEL_FILE)
    return model


def evaluate(config: ExperimentConfig, out_dir: Path,
             data: PreparedData | None = None,
             model: SeqModel | None = None,
             eval_sim: ExposureSimulator | None = None):
    """Naive + SNIPS metrics for the trained model on held-out test users."""
    out_dir = Path(out_dir)
    if data is None:
        data = prepare(config, load_log(out_dir))
    if model is None:
        model = SeqModel.load(out_dir / MODEL_FILE, data.log.catalog)
    if eval_sim is None:
        eval_sim = ExposureSimulator.load(out_dir / EVAL_SIM_FILE, data.log.catalog)

    q0 = eval_sim.q0_blocks(data.test_prefix_mat, lambda q0, _: q0[:, -1])
    rho = q0[np.arange(len(data.test_targets)), data.test_targets - 1]
    # the run directory is where a config ran, not part of the config
    setting = config_to_text(replace(config, out_dir=""))
    report = evaluate_model(model, data.test_prefix_mat, data.test_targets, rho,
                            k_list=config.k_list, snips_k=config.snips_k,
                            seed=config.seed,
                            config_hash=config_fingerprint(setting),
                            revision=REVISION)
    (out_dir / METRICS_JSON).write_text(report.to_json() + "\n")
    (out_dir / METRICS_CSV).write_text(report.to_csv())
    return report


def report_runs(run_dirs: list[Path], out_path: Path) -> list[dict]:
    """Aggregate metrics.json across runs into a mean +/- std CSV table."""
    rows_by_key: dict[str, list[float]] = {}
    for run in run_dirs:
        path = Path(run) / METRICS_JSON
        if not path.exists():
            raise FileNotFoundError(f"no {METRICS_JSON} in run dir {run}")
        payload = json.loads(path.read_text())
        if not (isinstance(payload, dict) and {"values", "coverage"} <= payload.keys()):
            raise ValueError(f"{path} is not a metrics report: it lacks 'values' or 'coverage'")
        for key, variants in payload["values"].items():
            for variant, value in variants.items():
                rows_by_key.setdefault(f"{key}/{variant}", []).append(value)
        for k, value in payload["coverage"].items():
            rows_by_key.setdefault(f"coverage@{k}/naive", []).append(value)

    rows = []
    for key in sorted(rows_by_key):
        vals = rows_by_key[key]
        rows.append({"metric": key, "n_runs": len(vals),
                     "mean": statistics.fmean(vals),
                     "std": statistics.stdev(vals) if len(vals) > 1 else 0.0})
    with open(out_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["metric", "n_runs", "mean", "std"])
        writer.writeheader()
        writer.writerows(rows)
    return rows
