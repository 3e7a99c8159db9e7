"""Numerical helpers against their straightforward reference forms.

The helpers are written as whole-array passes with reused buffers; the
references below are the plain forms they replace, and the results must
match bit for bit, since training reductions (criterion 5) and saved
figures rely on exact arithmetic.
"""

import numpy as np
import pytest

from drorec.nn import masked_softmax, scatter_add_rows, sigmoid


def _sigmoid_reference(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _masked_softmax_reference(scores, allowed):
    neg = np.where(allowed, scores, -np.inf)
    row_max = np.max(neg, axis=-1, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    e = np.exp(neg - row_max) * allowed
    denom = np.sum(e, axis=-1, keepdims=True)
    return np.divide(e, denom, out=np.zeros_like(e), where=denom > 0)


def test_sigmoid_matches_reference_bit_for_bit():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((300, 70)) * 30
    edge = [0.0, -0.0, 1e-300, -1e-300, 1e-20, -1e-20, 36.0, -36.0,
            745.0, -745.0, 800.0, -800.0, np.inf, -np.inf, np.nan]
    x.flat[:len(edge)] = edge
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = sigmoid(x), _sigmoid_reference(x)
    assert got.shape == x.shape and got.dtype == np.float64
    assert np.array_equal(got, want, equal_nan=True)
    assert float(sigmoid(np.float64(2.5))) == float(_sigmoid_reference(np.array([2.5]))[0])


def test_masked_softmax_matches_reference_bit_for_bit():
    rng = np.random.default_rng(1)
    scores = rng.standard_normal((6, 2, 9, 9)) * 5
    allowed = rng.random((6, 2, 9, 9)) < 0.5
    allowed[0, 0, 3] = False                   # a fully masked row
    allowed[1, 1] = False                      # a fully masked head
    got = masked_softmax(scores, allowed)
    assert np.array_equal(got, _masked_softmax_reference(scores, allowed))
    assert not np.any(got[0, 0, 3]) and not np.any(got[1, 1])
    assert not np.any(got[~allowed])


@pytest.mark.parametrize("index_shape", [(500,), (20, 25)])
def test_scatter_add_rows_matches_add_at(index_shape):
    rng = np.random.default_rng(2)
    index = rng.integers(0, 12, size=index_shape)   # many repeats per row
    values = rng.standard_normal(index_shape + (7,))
    want = np.zeros((15, 7))
    np.add.at(want, index, values)
    got = scatter_add_rows(index, values, 15)
    assert got.shape == (15, 7)
    assert np.array_equal(got, want)
