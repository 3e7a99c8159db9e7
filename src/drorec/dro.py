"""Closed-form KL-DRO objective and the joint training loop.

The robust term for one training step is log E_{q0}[e^l] where l is the
surrogate risk over the whole catalog (1 - y for the step's positive
item, y for every other item) and q0 is the frozen simulator's exposure
distribution for the step's prefix.  The joint objective adds this term,
weighted by ``a``, to the BCE recommendation loss; the same loop also
serves the IPS-style baselines and vanilla training so that reductions
(a = 0, propensity 1) are bit-for-bit exact.
"""

from __future__ import annotations

import json
import time

import numpy as np

from .baselines import METHODS, relmf_positive_grad
from .model import HEADS, SeqModel
from .nn import log_sigmoid, scatter_add_rows, sigmoid


class NonFiniteLossError(RuntimeError):
    """Training diverged; carries the epoch/step diagnostics in the message."""


def surrogate_risk(y: float, is_positive: bool) -> float:
    """Preference-overestimation risk: 1 - y for positives, y for negatives."""
    if not (0.0 <= y <= 1.0):
        raise ValueError(f"prediction score must be in [0, 1], got {y}")
    return 1.0 - y if is_positive else y


def risk_vector(y: np.ndarray, positive_index: int) -> np.ndarray:
    """Per-item risks over the catalog for one step; index is 0-based."""
    if np.any((y < 0.0) | (y > 1.0)):
        raise ValueError("prediction scores must be in [0, 1]")
    risks = y.copy()
    risks[positive_index] = 1.0 - y[positive_index]
    return risks


def dro_loss(q0: np.ndarray, risks: np.ndarray) -> float:
    """log E_{q0}[e^risk] with log-sum-exp stabilization."""
    q0 = np.asarray(q0, dtype=np.float64)
    risks = np.asarray(risks, dtype=np.float64)
    if q0.shape != risks.shape:
        raise ValueError(f"index sets differ: {q0.shape} vs {risks.shape}")
    top = risks.max()
    return float(top + np.log(np.sum(q0 * np.exp(risks - top))))


def joint_loss(rec_loss: float, dro_terms, a: float) -> float:
    """L_joint = L_rec + a * sum of per-step robust terms."""
    if a < 0:
        raise ValueError(f"dro weight must be >= 0, got {a}")
    return float(rec_loss + a * np.sum(dro_terms))


def _valid_steps(seqs: np.ndarray) -> np.ndarray:
    """Steps where both the prefix-ending item and the target are real."""
    return (seqs[:, :-1] > 0) & (seqs[:, 1:] > 0)


def batch_objective(model: SeqModel, seqs: np.ndarray, negs: np.ndarray, *,
                    method: str = "none", a: float = 0.0,
                    q0_steps: np.ndarray | None = None,
                    prop_steps: np.ndarray | None = None,
                    clip: float | None = None,
                    params: dict | None = None, want_grads: bool = True):
    """Losses (and optionally gradients) for one batch of sequences.

    seqs is (B, T); position p's state predicts the item at p + 1, with
    negs (B, T-1) the sampled negatives for those targets.  Losses are
    normalized by the number of valid steps in the batch; the per-step
    inputs q0_steps and prop_steps are aligned with negs.
    """
    p = model.params if params is None else params
    # Rows are left-padded: drop the leading columns that are pad in every
    # row, so the encoders skip them.  Each step keeps its place and order,
    # and attention positions are right-aligned, so only the order of some
    # floating-point sums changes (none at all in the recurrent encoder).
    first = int(np.argmax(seqs.any(axis=0)))
    seqs, negs = seqs[:, first:], negs[:, first:]
    if q0_steps is not None:
        q0_steps = q0_steps[:, first:]
    if prop_steps is not None:
        prop_steps = prop_steps[:, first:]
    valid = _valid_steps(seqs)
    n_steps = int(valid.sum())
    if n_steps == 0:
        raise ValueError("batch contains no trainable steps")

    H, cache = model.forward_states(seqs, p)
    states = H[:, :-1, :][valid]                    # (Np, d)
    pos = seqs[:, 1:][valid]                        # (Np,) item indices
    neg = negs[valid]

    g = states @ p["W_main"] + p["b_main"]
    r_pos = np.sum(g * p["emb"][pos], axis=1)
    r_neg = np.sum(g * p["emb"][neg], axis=1)
    loss_rec = float(-np.sum(log_sigmoid(r_pos) + log_sigmoid(-r_neg)) / n_steps)

    loss_dro = 0.0
    dro_cache = None
    if method == "dro" and a != 0.0:
        if q0_steps is None:
            raise ValueError("dro training requires q0 per step")
        q0 = q0_steps[valid]                        # (Np, n_items)
        gd = states @ p["W_dro"] + p["b_dro"]
        y = sigmoid(gd @ p["emb"][1:].T)            # (Np, n_items)
        rows = np.arange(len(pos))
        weighted = y.copy()                         # the risks, then q0 e^(risk - top)
        weighted[rows, pos - 1] = 1.0 - y[rows, pos - 1]
        top = weighted.max(axis=1, keepdims=True)
        weighted -= top
        np.exp(weighted, out=weighted)
        weighted *= q0
        z = weighted.sum(axis=1, keepdims=True)
        loss_dro = float(np.sum(top + np.log(z)) / n_steps)
        dro_cache = (q0, gd, y, weighted, z, rows)

    loss_joint = loss_rec + a * loss_dro
    out = {"loss_rec": loss_rec, "loss_dro": loss_dro,
           "loss_joint": loss_joint, "n_steps": n_steps}
    if not want_grads:
        return out

    s_pos = sigmoid(r_pos)
    s_neg = sigmoid(r_neg)
    if method in ("none", "dro"):
        dr_pos = s_pos - 1.0
    elif method == "ips":
        dr_pos = (1.0 / prop_steps[valid]) * (s_pos - 1.0)
    elif method == "ips_c":
        w = np.minimum(1.0 / prop_steps[valid], 1.0 / clip)
        dr_pos = w * (s_pos - 1.0)
    elif method == "relmf":
        dr_pos = relmf_positive_grad(s_pos, 1.0 / prop_steps[valid])
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    dr_pos = dr_pos / n_steps
    dr_neg = s_neg / n_steps

    dg = dr_pos[:, None] * p["emb"][pos] + dr_neg[:, None] * p["emb"][neg]
    demb = scatter_add_rows(np.concatenate([pos, neg]),
                            np.concatenate([dr_pos[:, None] * g, dr_neg[:, None] * g]),
                            len(p["emb"]))

    grads = {"W_main": states.T @ dg, "b_main": dg.sum(axis=0),
             "W_dro": np.zeros_like(p["W_dro"]), "b_dro": np.zeros_like(p["b_dro"])}
    dstates = dg @ p["W_main"].T

    if dro_cache is not None:
        q0, gd, y, weighted, z, rows = dro_cache
        dlogits = weighted * (a / n_steps)           # dL/drisk, (Np, n_items)
        dlogits /= z
        dlogits[rows, pos - 1] = -dlogits[rows, pos - 1]  # now dL/dy
        dlogits *= y
        np.subtract(1.0, y, out=y)
        dlogits *= y
        dgd = dlogits @ p["emb"][1:]
        demb[1:] += dlogits.T @ gd
        grads["W_dro"] = states.T @ dgd
        grads["b_dro"] = dgd.sum(axis=0)
        dstates = dstates + dgd @ p["W_dro"].T

    dH = np.zeros_like(H)
    dH_steps = np.zeros_like(H[:, :-1, :])
    dH_steps[valid] = dstates
    dH[:, :-1, :] = dH_steps
    enc_grads = model.backward_states(cache, dH, seqs, p)
    enc_grads["emb"] += demb
    enc_grads["emb"][0] = 0.0
    enc_grads.update({k: enc_grads.get(k, 0.0) + v for k, v in grads.items()})
    out["grads"] = enc_grads
    return out


def train_model(model: SeqModel, seqs: np.ndarray, *, method: str = "none",
                a: float = 0.0, q0_steps: np.ndarray | None = None,
                prop_steps: np.ndarray | None = None, clip: float | None = None,
                epochs: int = 10, lr: float = 0.005, batch_size: int = 128,
                seed: int = 0, beta2: float = 0.999, log_path=None,
                phase: str | None = None, first_epoch: int = 0) -> list[dict]:
    """Optimize the model in place; returns the per-epoch metric records.

    Records are numbered from first_epoch and carry ``phase`` when given.
    With log_path they are also written there as JSON lines: the file is
    started afresh at epoch 0 and appended to otherwise, so the phases of
    one run share a log.

    Deterministic given (initial parameters, seed).  The per-epoch RNG
    schedule (user shuffle, then negative sampling) is identical for all
    methods, so a = 0 and propensity-1 configurations reproduce vanilla
    trajectories bit for bit.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if model.frozen:
        raise RuntimeError("cannot train a frozen model")
    if method == "dro" and a != 0.0 and q0_steps is None:
        raise ValueError("method 'dro' needs per-step q0 from the frozen simulator")
    if method in ("ips", "ips_c", "relmf") and prop_steps is None:
        raise ValueError(f"method {method!r} needs per-step propensities")
    if method == "ips_c" and clip is None:
        raise ValueError("method 'ips_c' needs a clip threshold")

    rng = np.random.default_rng(seed)
    opt = model.make_optimizer(lr, beta2=beta2)
    n_users, T = seqs.shape
    targets = seqs[:, 1:]
    records = []
    log_file = None
    if log_path is not None:
        log_file = open(log_path, "a" if first_epoch else "w")
    try:
        for epoch in range(epochs):
            t0 = time.perf_counter()
            order = rng.permutation(n_users)
            negs = rng.integers(1, model.n_items + 1, size=(n_users, T - 1))
            while True:
                clash = (negs == targets) & (targets > 0)
                if not clash.any():
                    break
                negs[clash] = rng.integers(1, model.n_items + 1, size=int(clash.sum()))

            sums = {"loss_rec": 0.0, "loss_dro": 0.0, "loss_joint": 0.0}
            steps = 0
            for start in range(0, n_users, batch_size):
                idx = order[start:start + batch_size]
                out = batch_objective(
                    model, seqs[idx], negs[idx], method=method, a=a,
                    q0_steps=None if q0_steps is None else q0_steps[idx],
                    prop_steps=None if prop_steps is None else prop_steps[idx],
                    clip=clip)
                if not np.isfinite(out["loss_joint"]):
                    raise NonFiniteLossError(
                        f"non-finite loss at epoch {epoch}, batch starting {start}: "
                        f"rec={out['loss_rec']}, dro={out['loss_dro']}")
                opt.step(model.params, out["grads"])
                model.params["emb"][0] = 0.0
                for k in sums:
                    sums[k] += out[k] * out["n_steps"]
                steps += out["n_steps"]
            record = {"epoch": first_epoch + epoch,
                      "loss_rec": sums["loss_rec"] / steps,
                      "loss_dro": sums["loss_dro"] / steps,
                      "loss_joint": sums["loss_joint"] / steps,
                      "seconds": time.perf_counter() - t0}
            if phase is not None:
                record["phase"] = phase
            records.append(record)
            if log_file is not None:
                log_file.write(json.dumps(record) + "\n")
    finally:
        if log_file is not None:
            log_file.close()
    return records

