"""High-level experiment steps shared by the CLI and the test harness.

Each step is a pure function of (config, input files, seed): simulate a
world, train the exposure/evaluation simulators, train a backbone with
the chosen debiasing method, and evaluate with naive + SNIPS metrics.
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
from .data import (EventLog, appearance_ordered, index_sequences,
                   parse_event_log, sequences_to_matrix, serialize_event_log,
                   split_by_user, split_exposure)
from .dro import train_model
from .evaluation import config_fingerprint, evaluate_model
from .exposure import ExposureSimulator, build_simulator
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


def simulate(config: ExperimentConfig, out_dir: Path) -> tuple[EventLog, GroundTruthWorld]:
    """Generate the synthetic world and its feedback-loop event log, the
    log indexed as `load_log` indexes the events file written here."""
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
    return appearance_ordered(log), world


def load_log(out_dir: Path) -> EventLog:
    path = Path(out_dir) / EVENTS_FILE
    with open(path, encoding="utf-8") as fh:
        return parse_event_log(fh)


@dataclass
class PreparedData:
    log: EventLog
    expo_part: list
    eval_part: list
    train_seqs: np.ndarray          # (n_train, max_click_len)
    test_targets: np.ndarray        # held-out next click per test user
    test_prefix_mat: np.ndarray     # their clicks before it


def prepare(config: ExperimentConfig, log: EventLog) -> PreparedData:
    """User split, exposure split, and padded training/test sequences."""
    split = split_by_user(log, (config.train_ratio, config.valid_ratio,
                                config.test_ratio), seed=config.seed)
    expo_part, eval_part = split_exposure(log, config.expo_fraction)

    train_clicks = index_sequences(log, split.train_users)
    train_clicks = [s for s in train_clicks if len(s) >= 2]
    train_seqs = sequences_to_matrix(train_clicks, config.max_click_len)

    prefixes, targets = [], []
    for seq in index_sequences(log, split.test_users):
        if len(seq) >= 2:
            prefixes.append(seq[:-1])
            targets.append(seq[-1])
    return PreparedData(
        log=log, expo_part=expo_part, eval_part=eval_part,
        train_seqs=train_seqs,
        test_targets=np.array(targets, dtype=np.int64),
        test_prefix_mat=sequences_to_matrix(prefixes, config.max_click_len))


def fit_simulator(config: ExperimentConfig, data: PreparedData,
                  evaluation: bool = False) -> ExposureSimulator:
    """The exposure simulator, fit on the earlier exposure part, or with
    ``evaluation`` the evaluation simulator, fit on the later part; neither
    may see the other's events."""
    events, forbidden = data.expo_part, data.eval_part
    if evaluation:
        events, forbidden = forbidden, events
    return build_simulator(events, data.log.catalog, forbidden=forbidden,
                           dim=config.expo_dim, max_len=config.max_expo_len,
                           beta=config.beta, epochs=config.expo_epochs, lr=config.lr,
                           batch_size=config.batch_size,
                           seed=config.seed + (1000 if evaluation else 0))


def train_exposure(config: ExperimentConfig, out_dir: Path,
                   data: PreparedData | None = None) -> tuple[ExposureSimulator, ExposureSimulator]:
    """Fit the exposure simulator (70% part) and evaluation simulator (30%)."""
    out_dir = Path(out_dir)
    if data is None:
        data = prepare(config, load_log(out_dir))
    expo_sim = fit_simulator(config, data)
    eval_sim = fit_simulator(config, data, evaluation=True)
    expo_sim.save(out_dir / EXPO_SIM_FILE)
    eval_sim.save(out_dir / EVAL_SIM_FILE)
    return expo_sim, eval_sim


def _new_model(config: ExperimentConfig, data: PreparedData) -> SeqModel:
    """The untrained recommender of the run, both heads starting equal."""
    catalog = data.log.catalog
    return SeqModel(catalog.n_items, config.embedding_dim, config.max_click_len,
                    config.backbone, seed=config.seed, align_heads=True,
                    fingerprint=catalog.fingerprint)


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
                    data: PreparedData, q0_steps: np.ndarray | None,
                    log_path: Path | None = None) -> None:
    """Fine-tune a warm-started model in place with the robust term at
    weight ``config.a`` over the per-step nominal exposure q0_steps.

    A fresh optimizer with slower second-moment decay (fine_beta2) keeps
    the robust term's initial gradient spike in the denominator instead
    of renormalizing it away.
    """
    train_model(model, data.train_seqs, method="dro", a=config.a,
                q0_steps=q0_steps if config.a != 0.0 else None,
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
        q0_steps = (expo_sim.q0_all_positions(data.train_seqs)[:, :-1, :]
                    if config.a != 0.0 else None)
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

    q0 = eval_sim.q0_all_positions(data.test_prefix_mat)[:, -1, :]
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
    labels = []
    for run in run_dirs:
        path = Path(run) / METRICS_JSON
        if not path.exists():
            raise FileNotFoundError(f"no {METRICS_JSON} in run dir {run}")
        payload = json.loads(path.read_text())
        labels.append(str(run))
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
