"""Experiment configuration: flat key = value files with typed fields.

Unknown keys and out-of-range values are hard errors, so a typo cannot
silently fall back to a default and a run cannot train on a setting the
method refuses.  The defaults here (embedding 64, lr 0.005, beta 0.3,
snips_k 0.1, sequence lengths 50/200) are the only ones: the simulator
builders and the evaluator take each setting as a required keyword.
Values no experiment varies are constants in ``synthworld`` and ``nn``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from . import attention
from .baselines import METHODS
from .data import RATIO_TOL
from .model import ARCHS
from .synthworld import POLICY_KINDS

CONFIG_VERSION = 1

# fields that must be > 0: world sizes, epoch counts, batch size, step size,
# widths, lengths
POSITIVE_FIELDS = ("n_users", "n_items", "slate_size", "rounds", "epochs",
                   "expo_epochs", "batch_size", "lr", "latent_dim",
                   "embedding_dim", "expo_dim", "max_click_len", "max_expo_len")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    version: int = CONFIG_VERSION
    out_dir: str = "runs/exp"

    # synthetic world
    n_users: int = 500
    n_items: int = 300
    latent_dim: int = 8
    slate_size: int = 10
    rounds: int = 20
    policy: str = "model"

    # splits
    train_ratio: float = 0.8
    valid_ratio: float = 0.1
    test_ratio: float = 0.1
    expo_fraction: float = 0.7

    # model / training
    backbone: str = "attention"
    method: str = "none"
    a: float = 0.1
    beta: float = 0.3
    snips_k: float = 0.1
    embedding_dim: int = 64
    expo_dim: int = 32
    lr: float = 0.005
    beta2: float = 0.99
    fine_beta2: float = 0.999
    epochs: int = 120
    warmup_epochs: int = 80
    expo_epochs: int = 4
    batch_size: int = 128
    max_click_len: int = 50
    max_expo_len: int = 200

    k_list: tuple[int, ...] = (5, 10, 20)
    seed: int = 0

    def __post_init__(self):
        if self.version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config version {self.version}")
        for name, allowed in (("backbone", ARCHS), ("method", METHODS),
                              ("policy", POLICY_KINDS)):
            if getattr(self, name) not in allowed:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}")
        for name in POSITIVE_FIELDS:
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("a", "beta"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0 <= self.snips_k <= 1:
            raise ConfigError(f"snips_k must be in [0, 1], got {self.snips_k}")
        ratios = (self.train_ratio, self.valid_ratio, self.test_ratio)
        if min(ratios) <= 0 or abs(sum(ratios) - 1.0) > RATIO_TOL:
            raise ConfigError(f"train/valid/test ratios must be positive and sum to 1, "
                              f"got {ratios}")
        # the simulator's attention component, and an attention backbone,
        # split their width over the attention heads
        widths = {"expo_dim": self.expo_dim}
        if self.backbone == "attention":
            widths["embedding_dim"] = self.embedding_dim
        for name, width in widths.items():
            if width % attention.N_HEADS:
                raise ConfigError(f"{name} must be divisible by the {attention.N_HEADS} "
                                  f"attention heads, got {width}")
        if not 0 < self.expo_fraction < 1:
            raise ConfigError(
                f"expo_fraction must be in (0, 1), got {self.expo_fraction}")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ConfigError(
                f"warmup_epochs must be in [0, epochs), got {self.warmup_epochs}")
        if not self.k_list or min(self.k_list) < 1:
            raise ConfigError(f"k_list must be non-empty with every k >= 1, got {self.k_list}")
        if max(self.k_list) > self.n_items:
            raise ConfigError(f"k_list must have no k above n_items = {self.n_items}, "
                              f"got {self.k_list}")


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _parse_value(raw: str, field: dataclasses.Field):
    if field.type in ("int", int):
        return int(raw)
    if field.type in ("float", float):
        return float(raw)
    if field.type in ("str", str):
        return raw
    if field.type in ("tuple[int, ...]",):
        return tuple(int(v) for v in raw.split(",") if v.strip())
    raise ConfigError(f"unhandled field type {field.type!r} for {field.name}")


def save_config(config: ExperimentConfig, path) -> None:
    Path(path).write_text(config_to_text(config))


def config_to_text(config: ExperimentConfig) -> str:
    return "\n".join(f"{f.name} = {_format_value(getattr(config, f.name))}"
                     for f in dataclasses.fields(config)) + "\n"


def load_config(path) -> ExperimentConfig:
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in fields:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _parse_value(val, fields[key])
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    if "version" not in values:
        raise ConfigError("config file is missing the version field")
    return ExperimentConfig(**values)
