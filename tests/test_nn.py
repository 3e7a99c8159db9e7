"""Numerical helpers against their straightforward reference forms.

The helpers are written as whole-array passes with reused buffers; the
references below are the plain forms they replace, and the results must
match bit for bit, since training reductions (criterion 5) and saved
figures rely on exact arithmetic.
"""

import os
import platform
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import drorec
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


def _edge_values():
    x = np.random.default_rng(3).standard_normal((40, 30)) * 30
    edge = [0.0, -0.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf, np.nan]
    x.flat[:len(edge)] = edge
    return x


@pytest.mark.parametrize("into", ["x", "buffer"])
def test_sigmoid_into_out_matches_the_new_array(into):
    x = _edge_values()
    with np.errstate(over="ignore", invalid="ignore"):
        want = sigmoid(x)
        out = x if into == "x" else np.full_like(x, 7.0)
        got = sigmoid(x, out=out)
    assert got is out
    assert np.array_equal(got, want, equal_nan=True)
    if into == "buffer":
        assert np.array_equal(x, _edge_values(), equal_nan=True)   # x is left as it was


def test_sigmoid_of_0d_input():
    for v in (2.5, -0.0, -800.0):
        want = _sigmoid_reference(np.array([v]))[0]
        assert float(sigmoid(np.array(v))) == want
        out = np.empty(())
        assert sigmoid(np.float64(v), out=out) is out and float(out) == want
        x = np.array(v)
        assert sigmoid(x, out=x) is x and float(x) == want


def test_sigmoid_in_place_holds_one_temporary():
    # e = e^-|x| is its one x-sized temporary
    x = np.random.default_rng(4).standard_normal((300, 256))
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        sigmoid(x, out=x)
        extra = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert extra <= 1.1 * x.nbytes, f"{extra / x.nbytes:.2f} x-sized arrays"


def test_masked_softmax_matches_reference_bit_for_bit():
    rng = np.random.default_rng(1)
    scores = rng.standard_normal((6, 2, 9, 9)) * 5
    allowed = rng.random((6, 2, 9, 9)) < 0.5
    allowed[0, 0, 3] = False                   # a fully masked row
    allowed[1, 1] = False                      # a fully masked head
    overwritten = scores.copy()
    got = masked_softmax(overwritten, allowed)
    assert got is overwritten
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


# Four touched 4 MiB arrays per round, freed together: glibc's default
# policy trims them off the heap top and faults them back in every round.
_CHURN = """
import resource
import numpy as np
from drorec.nn import keep_freed_memory

keep_freed_memory()

def churn():
    arrays = [np.ones((4 << 20) // 8) for _ in range(4)]
    del arrays

churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc policy")
def test_keep_freed_memory_stops_refaults():
    src = str(Path(drorec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _CHURN], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    two_arrays_pages = 2 * (4 << 20) // resource.getpagesize()
    assert int(out) < two_arrays_pages
