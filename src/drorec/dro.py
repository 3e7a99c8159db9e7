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

import functools
import json
import time

import numpy as np

from . import lanes
from .baselines import METHODS, positive_term
from .model import SeqModel
from .nn import log_sigmoid, scatter_add_rows, sigmoid


class NonFiniteLossError(RuntimeError):
    """Training diverged; carries the epoch/step diagnostics in the message."""


def dro_term(q0: np.ndarray, risks: np.ndarray):
    """log E_{q0}[e^risk] over the last axis, log-sum-exp stabilized.

    Returns the terms and what their backward pass needs: q0 e^(risk - top)
    and its sums over the last axis, kept as an axis of length 1.
    """
    if q0.shape != risks.shape:
        raise ValueError(f"index sets differ: {q0.shape} vs {risks.shape}")
    top = risks.max(axis=-1, keepdims=True)
    weighted = risks - top
    np.exp(weighted, out=weighted)
    weighted *= q0
    z = weighted.sum(axis=-1, keepdims=True)
    return (top + np.log(z))[..., 0], weighted, z


def _valid_steps(seqs: np.ndarray) -> np.ndarray:
    """Steps where both the prefix-ending item and the target are real."""
    return (seqs[:, :-1] > 0) & (seqs[:, 1:] > 0)


def _robust_steps(q0: np.ndarray, y: np.ndarray, target: np.ndarray, terms: np.ndarray,
                  dlogits: np.ndarray, scale: float) -> None:
    """The robust term of some steps into terms, and the gradient of
    ``scale`` times it with respect to the dro head's logits into dlogits.

    q0 and y (overwritten) are the steps' nominal exposure and dro-head
    scores over the catalog, target the column of each step's positive item.
    """
    rows = np.arange(len(target))
    y_pos = y[rows, target]
    y[rows, target] = 1.0 - y_pos               # the risks: 1 - y at the target, y elsewhere
    terms[:], weighted, z = dro_term(q0, y)
    y[rows, target] = y_pos
    np.multiply(weighted, scale, out=dlogits)   # dL/drisk
    dlogits /= z
    dlogits[rows, target] = -dlogits[rows, target]  # now dL/dy
    dlogits *= y
    np.subtract(1.0, y, out=y)
    dlogits *= y


def batch_objective(model: SeqModel, seqs: np.ndarray, negs: np.ndarray, *,
                    method: str = "none", a: float = 0.0,
                    q0_steps: np.ndarray | None = None,
                    prop_steps: np.ndarray | None = None,
                    clip: float | None = None):
    """Losses and the gradients of the model's parameters for one batch.

    seqs is (B, T); position p's state predicts the item at p + 1, with
    negs (B, T-1) the sampled negatives for those targets.  Losses are
    normalized by the number of valid steps in the batch; the per-step
    inputs q0_steps (an array or `exposure.StepQ0`) and prop_steps are
    aligned with negs.  loss_rec is the BCE with the method's positive term
    (`baselines.positive_term`), the loss the method's gradients descend.
    """
    p = model.params
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

    # Each loss-head array is freed at its last use, so that the encoder's
    # backward, the peak of a step, holds only its forward cache, dH and
    # its own gradients.
    H, cache = model.forward_states(seqs)
    states = H[:, :-1, :][valid]                    # (Np, d)
    del H
    pos = seqs[:, 1:][valid]                        # (Np,) item indices
    neg = negs[valid]

    g = model.head_out(states, "main")
    r_pos = np.sum(g * p["emb"][pos], axis=1)
    r_neg = np.sum(g * p["emb"][neg], axis=1)
    pos_loss, dr_pos = positive_term(method, r_pos, None if prop_steps is None
                                     else prop_steps[valid], clip)
    loss_rec = float(np.sum(pos_loss - log_sigmoid(-r_neg)) / n_steps)

    # the BCE head's gradients come before the robust term, so that its
    # arrays and the term's never coexist
    dr_pos = dr_pos / n_steps
    dr_neg = sigmoid(r_neg) / n_steps
    dg_rows = np.empty((2 * n_steps, g.shape[1]))   # g's terms, pos then neg rows
    np.multiply(dr_pos[:, None], g, out=dg_rows[:n_steps])
    np.multiply(dr_neg[:, None], g, out=dg_rows[n_steps:])
    demb = scatter_add_rows(np.concatenate([pos, neg]), dg_rows, len(p["emb"]))
    del g, dg_rows
    dg = dr_pos[:, None] * p["emb"][pos] + dr_neg[:, None] * p["emb"][neg]
    grads = {"W_main": states.T @ dg, "b_main": dg.sum(axis=0),
             "W_dro": np.zeros_like(p["W_dro"]), "b_dro": np.zeros_like(p["b_dro"])}
    dstates = dg @ p["W_main"].T
    del dg

    loss_dro = 0.0
    if method == "dro" and a != 0.0:
        if q0_steps is None:
            raise ValueError("dro training requires q0 per step")
        gd = model.head_out(states, "dro")
        emb = p["emb"][1:]
        terms = np.empty(n_steps)
        dlogits = np.empty((n_steps, model.n_items))
        # The q0 and y products run whole, one per lane: a BLAS gives a row
        # of a product different bits depending on the rows it is computed
        # with.  The rest works step by step and runs in halves.
        q0, y = lanes.each([lambda: q0_steps[valid],                # (Np, n_items)
                            lambda: sigmoid(gd @ emb.T)])
        lanes.each([functools.partial(_robust_steps, q0[r], y[r], pos[r] - 1, terms[r],
                                      dlogits[r], a / n_steps)
                    for r in lanes.halves(n_steps)])
        loss_dro = float(np.sum(terms) / n_steps)
        dgd, demb_dro = lanes.each([lambda: dlogits @ emb, lambda: dlogits.T @ gd])
        del gd, q0, y, dlogits
        demb[1:] += demb_dro
        grads["W_dro"] = states.T @ dgd
        grads["b_dro"] = dgd.sum(axis=0)
        dstates += dgd @ p["W_dro"].T
        del dgd, demb_dro
    del states

    dH = np.zeros((*seqs.shape, model.dim))
    dH[:, :-1, :][valid] = dstates
    del dstates
    enc_grads = model.backward_states(cache, dH, seqs)
    enc_grads["emb"] += demb
    enc_grads["emb"][0] = 0.0
    enc_grads.update({k: enc_grads.get(k, 0.0) + v for k, v in grads.items()})
    return {"loss_rec": loss_rec, "loss_dro": loss_dro,
            "loss_joint": loss_rec + a * loss_dro, "n_steps": n_steps,
            "grads": enc_grads}


def train_model(model: SeqModel, seqs: np.ndarray, *, method: str = "none",
                a: float = 0.0, q0_steps: np.ndarray | None = None,
                prop_steps: np.ndarray | None = None, clip: float | None = None,
                epochs: int, lr: float, batch_size: int, seed: int,
                beta2: float, log_path=None,
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
    if not _valid_steps(seqs).any():
        raise ValueError("no sequence has two items: there is no step to train on")

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

