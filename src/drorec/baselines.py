"""IPS, clipped IPS and RelMF debiasing objectives.

All three reuse the sequential propensity p(v | S) = q0(S, v) served by
the frozen exposure simulator; they differ only in how the per-step
positive BCE term is reweighted or corrected.
"""

from __future__ import annotations

import numpy as np

from .exposure import ExposureSimulator
from .nn import log_sigmoid, sigmoid

METHODS = ("none", "ips", "ips_c", "relmf", "dro")
CLIP_PREFIXES = 100    # training prefixes sampled for the IPS-C clip


def positive_term(method: str, r: np.ndarray, rho: np.ndarray | None = None,
                  clip: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each step's positive BCE term under ``method`` and its derivative in r.

    r holds the positive items' logits and rho their propensities.  With
    s = sigmoid(r) the terms are -log s (none, dro), -(1/rho) log s (ips),
    the same with the weight capped at 1/clip (ips_c), and
    -[(1/rho) log s + (1 - 1/rho) log(1 - s)] (relmf); at rho = 1 every
    derivative is s - 1 bit for bit.
    """
    s = sigmoid(r)
    log_s = log_sigmoid(r)
    if method in ("none", "dro"):
        return -log_s, s - 1.0
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if np.any((rho <= 0.0) | (rho > 1.0)):
        raise ValueError("propensities must be in (0, 1]")
    inv = 1.0 / rho
    if method == "ips":
        return -inv * log_s, inv * (s - 1.0)
    if method == "ips_c":
        if clip <= 0:
            raise ValueError(f"clip threshold must be positive, got {clip}")
        w = np.minimum(inv, 1.0 / clip)
        return -w * log_s, w * (s - 1.0)
    return (-(inv * log_s + (1.0 - inv) * log_sigmoid(-r)),
            -inv * (1.0 - s) + (1.0 - inv) * s)


def median_exposure_clip(sim: ExposureSimulator, seqs: np.ndarray,
                         seed: int) -> float:
    """Clipping threshold for IPS-C: the median marginal exposure probability.

    The marginal is the average q0 over a sample of training prefixes
    (the last position of each sampled sequence).
    """
    rng = np.random.default_rng(seed)
    n = min(CLIP_PREFIXES, seqs.shape[0])
    pick = rng.choice(seqs.shape[0], size=n, replace=False)
    q0 = sim.q0_blocks(seqs[pick], lambda q0, _: q0[:, -1])
    marginal = q0.mean(axis=0)
    return float(np.median(marginal))


class PropensityProvider:
    """Read-only propensity lookups against a frozen exposure simulator."""

    def __init__(self, sim: ExposureSimulator):
        self.sim = sim

    def for_steps(self, seqs: np.ndarray) -> np.ndarray:
        """Propensity of the item at position p+1 given the prefix up to p.

        Returns (B, T-1); entries at invalid steps are 1.0.
        """
        return self.sim.q0_blocks(seqs, _target_propensity)


def _target_propensity(q0: np.ndarray, seqs: np.ndarray) -> np.ndarray:
    """q0 at each step's next item, 1.0 at invalid steps."""
    B, T = seqs.shape
    targets = seqs[:, 1:]
    rows = np.arange(B)[:, None]
    cols = np.arange(T - 1)[None, :]
    rho = q0[rows, cols, np.clip(targets - 1, 0, None)]
    valid = (seqs[:, :-1] > 0) & (targets > 0)
    return np.where(valid, rho, 1.0)
