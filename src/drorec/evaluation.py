"""Ranking metrics, the SNIPS debiased evaluator and its sanity checks.

Metrics use single-target semantics: each test user contributes one
held-out next click, and c(rank) is Recall@K (hit indicator) or NDCG@K
(1/log2(rank+1)).  Rankings cover the whole catalog with deterministic
ascending-id tie-breaking.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field

import numpy as np

PROPENSITY_FLOOR = 1e-6

METRIC_KINDS = ("recall", "ndcg")


def target_ranks(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """1-based rank of each row's target item index among its item logits.

    logits is (B, n_items); ties rank the lower item index first.
    """
    rows = np.arange(len(targets))
    t_logit = logits[rows, targets - 1]
    better = (logits > t_logit[:, None]).sum(axis=1)
    tied_before = ((logits == t_logit[:, None])
                   & (np.arange(1, logits.shape[1] + 1)[None, :] < targets[:, None])).sum(axis=1)
    return better + tied_before + 1


def metric_values(ranks: np.ndarray, k: int, kind: str) -> np.ndarray:
    """Single-target Recall@K or NDCG@K of each 1-based rank."""
    if kind not in METRIC_KINDS:
        raise ValueError(f"unknown metric kind {kind!r}")
    hits = ranks <= k
    if kind == "recall":
        return hits.astype(np.float64)
    return np.where(hits, 1.0 / np.log2(ranks + 1.0), 0.0)


def coverage(rankings: list[np.ndarray], k: int, n_items: int) -> float:
    """Fraction of the catalog appearing in any user's top-K list."""
    seen: set[int] = set()
    for ranking in rankings:
        seen.update(int(v) for v in ranking[:k])
    return len(seen) / n_items


def floor_propensities(rho: np.ndarray) -> tuple[np.ndarray, int]:
    """Clip tiny propensities at the numerical floor; report how many."""
    rho = np.asarray(rho, dtype=np.float64)
    n_floored = int(np.sum(rho < PROPENSITY_FLOOR))
    return np.maximum(rho, PROPENSITY_FLOOR), n_floored


def snips_evaluate(c_values: np.ndarray, rho: np.ndarray, k: float) -> float:
    """Self-normalized inverse-propensity mean of per-user metric values.

    Weights are 1/rho^k; k = 0 reduces to the plain mean and any common
    rescaling of rho cancels.
    """
    if not (0.0 <= k <= 1.0):
        raise ValueError(f"propensity exponent must be in [0, 1], got {k}")
    c_values = np.asarray(c_values, dtype=np.float64)
    rho = np.asarray(rho, dtype=np.float64)
    if np.any(rho <= 0):
        raise ValueError("propensities must be positive")
    weights = rho ** (-k)
    return float(np.sum(weights * c_values) / np.sum(weights))


@dataclass
class DebiasednessReport:
    exact: float
    mc_mean: float
    rel_deviation: float
    se_by_trials: dict[int, float] = field(default_factory=dict)


def debiasedness_check(c_matrix: np.ndarray, rho: np.ndarray, k: float,
                       trials: int, seed: int = 0,
                       se_points: tuple[int, ...] = (1000,)) -> DebiasednessReport:
    """Monte Carlo check that the weighted-observation sum is debiased.

    Draws O_{u,i} ~ Bernoulli(rho_i) and averages sum_{u,i} c/rho^k * O
    over trials; the exact expectation is sum_{u,i} c * rho^(1-k).
    """
    c_matrix = np.asarray(c_matrix, dtype=np.float64)
    rho = np.asarray(rho, dtype=np.float64)
    n_users, n_items = c_matrix.shape
    if n_users * n_items > 10_000:
        raise ValueError("instance too large for exact enumeration")
    if np.any((rho <= 0) | (rho > 1)):
        raise ValueError("propensities must be in (0, 1]")

    weights = c_matrix / (rho[None, :] ** k)
    exact = float(np.sum(c_matrix * rho[None, :] ** (1.0 - k)))

    rng = np.random.default_rng(seed)
    draws = np.empty(trials)
    for t in range(trials):
        obs = rng.random((n_users, n_items)) < rho[None, :]
        draws[t] = np.sum(weights[obs])
    mc_mean = float(draws.mean())
    rel = abs(mc_mean - exact) / max(abs(exact), 1e-12)

    ses = {}
    for point in tuple(se_points) + (trials,):
        if point <= trials:
            ses[point] = float(draws[:point].std(ddof=1) / np.sqrt(point))
    return DebiasednessReport(exact=exact, mc_mean=mc_mean,
                              rel_deviation=rel, se_by_trials=ses)


@dataclass
class MetricsReport:
    """Naive and SNIPS metric values for each kind and cutoff."""

    values: dict[str, dict[str, float]]     # "recall@10" -> {"naive":, "snips":}
    coverage: dict[int, float]
    n_users: int
    snips_k: float
    seed: int
    config_hash: str = ""
    revision: str = ""
    n_floored_propensities: int = 0

    def to_json(self) -> str:
        return json.dumps({
            "values": self.values,
            "coverage": {str(k): v for k, v in self.coverage.items()},
            "n_users": self.n_users,
            "snips_k": self.snips_k,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "revision": self.revision,
            "n_floored_propensities": self.n_floored_propensities,
        }, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["metric", "k", "variant", "value"])
        for key in sorted(self.values):
            kind, k = key.split("@")
            for variant in ("naive", "snips"):
                writer.writerow([kind, k, variant, repr(self.values[key][variant])])
        for k in sorted(self.coverage):
            writer.writerow(["coverage", k, "naive", repr(self.coverage[k])])
        return buf.getvalue()


def evaluate_model(model, seqs: np.ndarray, targets: np.ndarray,
                   rho: np.ndarray, *, k_list, snips_k: float, seed: int,
                   config_hash: str, revision: str) -> MetricsReport:
    """Full report for one frozen model on held-out (prefix, target) pairs.

    A k above the model's catalog raises ValueError: its top-k list would
    be the whole catalog, reported under a larger k.  So does an empty
    set of pairs, whose every metric would be NaN.
    """
    if len(targets) == 0:
        raise ValueError("no held-out (prefix, target) pairs: no test user has two clicks")
    if max(k_list) > model.n_items:
        raise ValueError(f"k_list {tuple(k_list)} has a k above the model's "
                         f"{model.n_items} items")
    H, _ = model.forward_states(seqs)
    logits = model.all_logits(H[:, -1, :], "main")       # (B, n_items)
    ranks = target_ranks(logits, targets)
    rho_safe, n_floored = floor_propensities(rho)
    values: dict[str, dict[str, float]] = {}
    for kind in METRIC_KINDS:
        for k in k_list:
            c = metric_values(ranks, k, kind)
            values[f"{kind}@{k}"] = {
                "naive": float(c.mean()),
                "snips": snips_evaluate(c, rho_safe, snips_k),
            }
    order = np.argsort(-logits, axis=1, kind="stable") + 1
    cov = {k: coverage(order, k, model.n_items) for k in k_list}
    return MetricsReport(values=values, coverage=cov, n_users=len(targets),
                         snips_k=snips_k, seed=seed, config_hash=config_hash,
                         revision=revision, n_floored_propensities=n_floored)


def config_fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]
