"""Surrogate risk and closed-form robust loss properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drorec.dro import dro_loss, joint_loss, risk_vector, surrogate_risk

TOL = 1e-10    # acceptance criterion 2's tolerance


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
    val = dro_loss(q0, risks)
    assert float(q0 @ risks) - TOL <= val <= risks.max() + TOL
    assert abs(dro_loss(q0, np.full(len(q0), c)) - c) <= TOL


def test_surrogate_risk_values():
    assert surrogate_risk(0.8, True) == pytest.approx(0.2)
    assert surrogate_risk(0.8, False) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        surrogate_risk(1.3, True)
    with pytest.raises(ValueError):
        surrogate_risk(-0.1, False)


def test_risk_vector_flips_positive_entry():
    y = np.array([0.1, 0.9, 0.5])
    risks = risk_vector(y, 1)
    np.testing.assert_allclose(risks, [0.1, 0.1, 0.5])
    with pytest.raises(ValueError):
        risk_vector(np.array([0.1, 1.5]), 0)


def test_dro_loss_frozen_value():
    # uniform q0 over two items with risks [0, 1]:
    # log(0.5 + 0.5 e) = 0.62011450695 (log-mean-exp)
    value = dro_loss(np.array([0.5, 0.5]), np.array([0.0, 1.0]))
    assert value == pytest.approx(0.6201145069582775, abs=1e-12)


def test_dro_loss_constant_risk_equals_expectation():
    q0 = np.array([0.2, 0.3, 0.5])
    risks = np.full(3, 0.37)
    assert dro_loss(q0, risks) == pytest.approx(0.37, abs=1e-12)


def test_dro_loss_bounds_and_strictness():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = rng.integers(2, 20)
        q0 = rng.dirichlet(np.ones(n))
        risks = rng.uniform(0, 1, n)
        val = dro_loss(q0, risks)
        assert risks.min() - 1e-10 <= val <= risks.max() + 1e-10
        assert val >= float(q0 @ risks) - 1e-12
        if np.ptp(risks) > 1e-3:
            assert val > float(q0 @ risks)


def test_dro_loss_large_risks_stable():
    q0 = np.array([0.5, 0.5])
    risks = np.array([1000.0, 1000.0])
    assert dro_loss(q0, risks) == pytest.approx(1000.0)


def test_dro_loss_shape_mismatch():
    with pytest.raises(ValueError):
        dro_loss(np.ones(3) / 3, np.zeros(2))


def test_joint_loss():
    assert joint_loss(1.5, [0.2, 0.3], 2.0) == pytest.approx(2.5)
    assert joint_loss(1.5, [0.2, 0.3], 0.0) == 1.5
    with pytest.raises(ValueError):
        joint_loss(1.0, [0.1], -1.0)
