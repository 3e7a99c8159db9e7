"""The closed-form robust term: its properties and the trained loss."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drorec.dro import batch_objective, dro_term
from drorec.model import SeqModel
from drorec.nn import sigmoid

TOL = 1e-10    # acceptance criterion 2's tolerance


def dro_value(q0, risks) -> float:
    return float(dro_term(q0, risks)[0])


@st.composite
def _q0_and_risks(draw):
    """A nominal distribution over n items and a risk in [0, 1] per item."""
    n = draw(st.integers(1, 30))
    w = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    risks = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    return w / w.sum(), risks


@settings(max_examples=200)
@given(_q0_and_risks(), st.floats(0.0, 1.0))
def test_dro_loss_bounds_property(case, c):
    # log E_q0[e^r] lies between the mean risk (Jensen) and the largest risk
    q0, risks = case
    val = dro_value(q0, risks)
    assert float(q0 @ risks) - TOL <= val <= risks.max() + TOL
    assert abs(dro_value(q0, np.full(len(q0), c)) - c) <= TOL


def test_dro_loss_frozen_value():
    # uniform q0 over two items with risks [0, 1]:
    # log(0.5 + 0.5 e) = 0.62011450695 (log-mean-exp)
    value = dro_value(np.array([0.5, 0.5]), np.array([0.0, 1.0]))
    assert value == pytest.approx(0.6201145069582775, abs=1e-12)
    # rows are independent: each row of a stack gets its own term
    terms, weighted, z = dro_term(np.array([[0.5, 0.5], [0.25, 0.75]]),
                                  np.array([[0.0, 1.0], [0.3, 0.3]]))
    np.testing.assert_allclose(terms, [0.6201145069582775, 0.3], atol=1e-12)
    assert weighted.shape == (2, 2) and z.shape == (2, 1)
    np.testing.assert_array_equal(z[:, 0], weighted.sum(axis=1))


def test_dro_loss_constant_risk_equals_expectation():
    q0 = np.array([0.2, 0.3, 0.5])
    risks = np.full(3, 0.37)
    assert dro_value(q0, risks) == pytest.approx(0.37, abs=1e-12)


def test_dro_loss_bounds_and_strictness():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = rng.integers(2, 20)
        q0 = rng.dirichlet(np.ones(n))
        risks = rng.uniform(0, 1, n)
        val = dro_value(q0, risks)
        assert risks.min() - 1e-10 <= val <= risks.max() + 1e-10
        assert val >= float(q0 @ risks) - 1e-12
        if np.ptp(risks) > 1e-3:
            assert val > float(q0 @ risks)


def test_dro_loss_large_risks_stable():
    q0 = np.array([0.5, 0.5])
    risks = np.array([1000.0, 1000.0])
    assert dro_value(q0, risks) == pytest.approx(1000.0)


def test_dro_loss_shape_mismatch():
    with pytest.raises(ValueError):
        dro_term(np.ones(3) / 3, np.zeros(2))


def _dro_batch(seed=0):
    """Four left-padded rows (one full), negatives and q0 for every step."""
    rng = np.random.default_rng(seed)
    n_items, T = 9, 6
    seqs = np.zeros((4, T), dtype=np.int64)
    for i, n in enumerate((6, 4, 3, 2)):
        seqs[i, T - n:] = rng.integers(1, n_items + 1, size=n)
    negs = rng.integers(1, n_items + 1, size=(4, T - 1))
    q0 = rng.dirichlet(np.ones(n_items), size=(4, T - 1))
    return n_items, seqs, negs, q0


def test_joint_loss():
    # L_joint = L_rec + a * L_dro, and a = 0 leaves the robust term out
    n_items, seqs, negs, q0 = _dro_batch(seed=1)
    model = SeqModel(n_items, 6, seqs.shape[1], "attention", seed=0)
    out = batch_objective(model, seqs, negs, method="dro", a=2.0, q0_steps=q0)
    assert out["loss_dro"] > 0.0
    assert out["loss_joint"] == out["loss_rec"] + 2.0 * out["loss_dro"]
    plain = batch_objective(model, seqs, negs, method="dro", a=0.0, q0_steps=q0)
    assert plain["loss_dro"] == 0.0
    assert plain["loss_joint"] == plain["loss_rec"] == out["loss_rec"]


@pytest.mark.parametrize("arch", ["recurrent", "attention"])
def test_trained_robust_term_matches_definition(arch):
    # loss_dro is the mean over valid steps of log E_q0[e^risk], where the
    # risk is 1 - y at the step's target item and y at every other item,
    # y the sigmoid of the dro head's logits
    n_items, seqs, negs, q0 = _dro_batch()
    model = SeqModel(n_items, 6, seqs.shape[1], arch, seed=3)
    out = batch_objective(model, seqs, negs, method="dro", a=0.6, q0_steps=q0)
    H, _ = model.forward_states(seqs)
    y = sigmoid(model.all_logits(H, "dro"))            # (B, T, n_items)
    terms = []
    for b, t in zip(*np.nonzero((seqs[:, :-1] > 0) & (seqs[:, 1:] > 0))):
        risks = y[b, t].copy()
        target = seqs[b, t + 1] - 1
        risks[target] = 1.0 - risks[target]
        terms.append(np.log(np.sum(q0[b, t] * np.exp(risks))))
    assert len(terms) == out["n_steps"] == 11
    assert abs(out["loss_dro"] - np.mean(terms)) <= 1e-12
