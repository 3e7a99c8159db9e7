"""Monte Carlo check of the SNIPS weighting, for the evaluator's tests.

Acceptance criterion 4 and `test_evaluation.py` import it; the pipeline
never calls it.
"""

from dataclasses import dataclass, field

import numpy as np


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
