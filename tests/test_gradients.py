"""Finite-difference verification of every analytic gradient path."""

import numpy as np
import pytest

from drorec.dro import batch_objective
from drorec.model import SeqModel
from drorec.nn import Adam, check_gradients, sigmoid, uniform_init

DIM = 8
N_ITEMS = 6
MAX_LEN = 5
TOL = 1e-4


def _batch(seed=0, batch_size=3):
    rng = np.random.default_rng(seed)
    seqs = np.zeros((batch_size, MAX_LEN), dtype=np.int64)
    for i in range(batch_size):
        n = rng.integers(2, MAX_LEN + 1)
        seqs[i, MAX_LEN - n:] = rng.integers(1, N_ITEMS + 1, size=n)
    negs = rng.integers(1, N_ITEMS + 1, size=(batch_size, MAX_LEN - 1))
    q0 = rng.dirichlet(np.ones(N_ITEMS), size=(batch_size, MAX_LEN - 1))
    return seqs, negs, q0


@pytest.mark.parametrize("arch", ["recurrent", "attention"])
def test_bce_gradients(arch):
    model = SeqModel(N_ITEMS, DIM, MAX_LEN, arch, seed=1)
    seqs, negs, _ = _batch(seed=0)

    def loss(p):
        return batch_objective(model, seqs, negs, method="none")["loss_joint"]

    def grad(p):
        return batch_objective(model, seqs, negs, method="none")["grads"]

    err = check_gradients(loss, grad, model.params, n_coords=80, seed=0)
    assert err < TOL


@pytest.mark.parametrize("arch", ["recurrent", "attention"])
def test_joint_dro_gradients(arch):
    model = SeqModel(N_ITEMS, DIM, MAX_LEN, arch, seed=2)
    model.add_dro_head()
    # heads that differ, so that a mix-up of W_main and W_dro in the backward
    # pass shows
    model.params["W_dro"] += uniform_init(np.random.default_rng(1), (DIM, DIM))
    seqs, negs, q0 = _batch(seed=3)

    def loss(p):
        return batch_objective(model, seqs, negs, method="dro", a=0.7,
                               q0_steps=q0)["loss_joint"]

    def grad(p):
        return batch_objective(model, seqs, negs, method="dro", a=0.7,
                               q0_steps=q0)["grads"]

    err = check_gradients(loss, grad, model.params, n_coords=120, seed=1)
    assert err < TOL


@pytest.mark.parametrize("method", ["ips", "ips_c", "relmf"])
def test_baseline_gradients(method):
    model = SeqModel(N_ITEMS, DIM, MAX_LEN, "recurrent", seed=4)
    seqs, negs, _ = _batch(seed=5)
    rng = np.random.default_rng(6)
    prop = rng.uniform(0.1, 0.9, size=(seqs.shape[0], MAX_LEN - 1))
    kwargs = dict(method=method, prop_steps=prop, clip=0.3)

    def loss(p):
        return batch_objective(model, seqs, negs, **kwargs)["loss_joint"]

    def grad(p):
        return batch_objective(model, seqs, negs, **kwargs)["grads"]

    # the loss the baselines descend, built here independently: the positive
    # BCE term reweighted or corrected, the negative term left plain
    valid = (seqs[:, :-1] > 0) & (seqs[:, 1:] > 0)
    p = model.params
    H, _ = model.forward_states(seqs)
    g = H[:, :-1, :][valid] @ p["W_main"] + p["b_main"]
    r_pos = np.sum(g * p["emb"][seqs[:, 1:][valid]], axis=1)
    r_neg = np.sum(g * p["emb"][negs[valid]], axis=1)
    inv = 1.0 / prop[valid]
    if method == "ips":
        pos_term = -inv * np.log(sigmoid(r_pos))
    elif method == "ips_c":
        pos_term = -np.minimum(inv, 1.0 / 0.3) * np.log(sigmoid(r_pos))
    else:
        pos_term = -(inv * np.log(sigmoid(r_pos)) + (1.0 - inv) * np.log(sigmoid(-r_pos)))
    expected = float(np.sum(pos_term - np.log(sigmoid(-r_neg))) / valid.sum())
    out = batch_objective(model, seqs, negs, **kwargs)
    assert abs(out["loss_rec"] - expected) <= 1e-12
    assert out["loss_joint"] == out["loss_rec"]

    err = check_gradients(loss, grad, model.params, n_coords=60, seed=2)
    assert err < TOL


def test_loss_scaling_linearity():
    # the objective is normalized by the number of valid steps, so a batch
    # holding every row twice has the gradients of the batch itself
    model = SeqModel(N_ITEMS, DIM, MAX_LEN, "attention", seed=7)
    seqs, negs, _ = _batch(seed=10)
    grads = batch_objective(model, seqs, negs, method="none")["grads"]
    twice = batch_objective(model, np.concatenate([seqs, seqs]),
                            np.concatenate([negs, negs]), method="none")["grads"]
    for k in grads:
        np.testing.assert_allclose(twice[k], grads[k], rtol=1e-12, atol=1e-15)


def test_adam_rejects_shape_mismatch():
    opt = Adam(lr=0.1, beta2=0.999)
    params = {"w": np.zeros((2, 2))}
    with pytest.raises(ValueError):
        opt.step(params, {"w": np.zeros(3)})


def test_adam_leaves_a_parameter_without_a_gradient_untouched():
    opt = Adam(lr=0.1, beta2=0.999)
    params = {"w": np.ones(3), "u": np.ones(2)}
    for _ in range(2):
        opt.step(params, {"w": np.full(3, 0.5)})
    assert np.array_equal(params["u"], np.ones(2))
    assert not np.array_equal(params["w"], np.ones(3))
    assert opt.m.keys() == opt.v.keys() == {"w"}         # no moments for "u"


def test_pad_embedding_gets_no_gradient():
    model = SeqModel(N_ITEMS, DIM, MAX_LEN, "recurrent", seed=8)
    model.add_dro_head()
    seqs, negs, q0 = _batch(seed=9)
    out = batch_objective(model, seqs, negs, method="dro", a=1.0, q0_steps=q0)
    assert np.all(out["grads"]["emb"][0] == 0.0)
