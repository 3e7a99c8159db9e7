"""IPS, clipped IPS and RelMF debiasing objectives.

All three reuse the sequential propensity p(v | S) = q0(S, v) served by
the frozen exposure simulator; they differ only in how the per-step
positive BCE term is reweighted or corrected.
"""

from __future__ import annotations

import numpy as np

from .exposure import ExposureSimulator

METHODS = ("none", "ips", "ips_c", "relmf", "dro")
CLIP_PREFIXES = 100    # training prefixes sampled for the IPS-C clip


def ips_weight(rho: float) -> float:
    """Inverse-propensity weight for the positive BCE term."""
    if rho <= 0:
        raise ValueError(f"propensity must be positive, got {rho}")
    return 1.0 / rho


def ips_clipped_weight(rho: float, clip: float) -> float:
    """IPS weight max-clipped at 1/clip to bound the variance."""
    if rho <= 0:
        raise ValueError(f"propensity must be positive, got {rho}")
    if clip <= 0:
        raise ValueError(f"clip threshold must be positive, got {clip}")
    return min(1.0 / rho, 1.0 / clip)


def relmf_loss(sigma_r: float, rho: float, is_clicked: bool) -> float:
    """Propensity-corrected pointwise BCE term.

    Clicked: -[(1/rho) log s + (1 - 1/rho) log(1 - s)]; unclicked items
    keep the plain negative term.  With rho = 1 both reduce to vanilla.
    """
    if rho <= 0 or rho > 1:
        raise ValueError(f"propensity must be in (0, 1], got {rho}")
    s = float(sigma_r)
    if is_clicked:
        inv = 1.0 / rho
        return -(inv * np.log(s) + (1.0 - inv) * np.log(1.0 - s))
    return -float(np.log(1.0 - s))


def relmf_positive_grad(sigma_r: np.ndarray, inv_rho: np.ndarray) -> np.ndarray:
    """d/dr of the clicked RelMF term; reduces to sigma - 1 at rho = 1."""
    return -inv_rho * (1.0 - sigma_r) + (1.0 - inv_rho) * sigma_r


def median_exposure_clip(sim: ExposureSimulator, seqs: np.ndarray,
                         seed: int = 0) -> float:
    """Clipping threshold for IPS-C: the median marginal exposure probability.

    The marginal is the average q0 over a sample of training prefixes
    (the last position of each sampled sequence).
    """
    rng = np.random.default_rng(seed)
    n = min(CLIP_PREFIXES, seqs.shape[0])
    pick = rng.choice(seqs.shape[0], size=n, replace=False)
    q0 = sim.q0_all_positions(seqs[pick])[:, -1, :]
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
        q0 = self.sim.q0_all_positions(seqs)
        B, T = seqs.shape
        targets = seqs[:, 1:]
        rows = np.arange(B)[:, None]
        cols = np.arange(T - 1)[None, :]
        rho = q0[rows, cols, np.clip(targets - 1, 0, None)]
        valid = (seqs[:, :-1] > 0) & (targets > 0)
        return np.where(valid, rho, 1.0)
