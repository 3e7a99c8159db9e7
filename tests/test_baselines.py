"""IPS / clipped IPS / RelMF positive terms: frozen values and reductions."""

import numpy as np
import pytest

from drorec.baselines import METHODS, positive_term
from drorec.dro import batch_objective
from drorec.model import SeqModel
from drorec.nn import sigmoid


def _logit(s):
    return np.log(np.asarray(s) / (1.0 - np.asarray(s)))


def test_ips_weight():
    r = _logit([0.8, 0.3])
    s = sigmoid(r)
    loss, grad = positive_term("ips", r, np.array([0.25, 1.0]))
    np.testing.assert_allclose(loss, [-4.0 * np.log(0.8), -np.log(0.3)], rtol=1e-12)
    np.testing.assert_allclose(grad, [4.0 * (s[0] - 1.0), s[1] - 1.0], rtol=1e-12)
    with pytest.raises(ValueError):
        positive_term("ips", r, np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        positive_term("ips", r, np.array([-0.5, 0.5]))
    with pytest.raises(ValueError):
        positive_term("snips", r, np.array([0.5, 0.5]))


def test_ips_clipped_weight():
    r = _logit([0.6, 0.6, 0.6])
    s = sigmoid(r)
    loss, grad = positive_term("ips_c", r, np.array([0.5, 0.01, 0.1]), 0.1)
    weights = np.array([2.0, 10.0, 10.0])      # below the cap, capped, at the cap
    np.testing.assert_allclose(loss, -weights * np.log(0.6), rtol=1e-12)
    np.testing.assert_allclose(grad, weights * (s - 1.0), rtol=1e-12)
    with pytest.raises(ValueError):
        positive_term("ips_c", r, np.array([0.5, 0.5, 0.5]), 0.0)


def test_relmf_loss_frozen_value():
    # clicked, sigma = 0.8, rho = 0.5:
    # -(2 log 0.8 + (1 - 2) log 0.2) = 2 log(1/0.8) - log(1/0.2)
    loss, grad = positive_term("relmf", _logit([0.8]), np.array([0.5]))
    assert loss[0] == pytest.approx(-1.1631508098056809, abs=1e-9)
    # magnitude matches the standard worked example
    assert abs(loss[0]) == pytest.approx(1.1632, abs=5e-4)
    # d/dr: -(1/rho)(1 - s) + (1 - 1/rho) s = -2 * 0.2 - 0.8
    assert grad[0] == pytest.approx(-1.2, abs=1e-12)


def test_relmf_unclicked_is_plain_negative():
    # relmf corrects only the positive terms: its loss differs from plain
    # BCE by exactly the mean change of the positive terms
    model = SeqModel(6, 4, 4, "recurrent", seed=0)
    seqs = np.array([[0, 1, 2, 3], [4, 5, 6, 1]])
    negs = np.array([[5, 6, 1], [2, 3, 4]])
    prop = np.array([[1.0, 0.3, 0.6], [0.2, 0.9, 0.5]])
    plain = batch_objective(model, seqs, negs, method="none", want_grads=False)
    relmf = batch_objective(model, seqs, negs, method="relmf", prop_steps=prop,
                            want_grads=False)
    valid = (seqs[:, :-1] > 0) & (seqs[:, 1:] > 0)
    H, _ = model.forward_states(seqs)
    logits = model.all_logits(H[:, :-1][valid], "main")
    r_pos = logits[np.arange(len(logits)), seqs[:, 1:][valid] - 1]
    shift = np.mean(positive_term("relmf", r_pos, prop[valid])[0]
                    - positive_term("none", r_pos)[0])
    assert relmf["loss_rec"] - plain["loss_rec"] == pytest.approx(shift, abs=1e-12)


def test_relmf_reduces_to_bce_at_full_propensity():
    r = _logit([0.2, 0.5, 0.9])
    loss, _ = positive_term("relmf", r, np.ones(3))
    np.testing.assert_allclose(loss, -np.log([0.2, 0.5, 0.9]), rtol=0, atol=1e-12)


def test_relmf_positive_grad_reduces_exactly():
    # at rho = 1 every method's derivative must equal sigma - 1 bit for bit
    r = _logit([0.1, 0.5, 0.93])
    _, plain = positive_term("none", r)
    assert np.array_equal(plain, sigmoid(r) - 1.0)
    for method in METHODS:
        _, grad = positive_term(method, r, np.ones(3), 1.0)
        assert np.array_equal(grad, plain), method


def test_relmf_rejects_bad_propensity():
    with pytest.raises(ValueError):
        positive_term("relmf", np.zeros(1), np.array([0.0]))
    with pytest.raises(ValueError):
        positive_term("relmf", np.zeros(1), np.array([1.2]))
