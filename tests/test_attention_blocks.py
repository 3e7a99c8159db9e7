"""Attention's backward pass in blocks of rows against one block over the batch.

`attention.backward` does its (rows, heads, T, T) work a block of whole
rows at a time, under `attention.BLOCK_BYTES`.  Every result must equal
that of a single block bit for bit, and its memory above the forward cache
must not grow with batch x T x T, nor hold more than a few (B, T, d)
arrays at a time.
"""

import tracemalloc

import numpy as np
import pytest

from drorec import attention, lanes
from drorec.nn import check_gradients

B, T, D = 5, 7, 4
ROW_BYTES = attention.N_HEADS * T * T * 8      # one row's (heads, T, T) float64 block
# (B, T, d) arrays backward may hold above its inputs: dL/dh1 and the query,
# key, value and input gradients, less the two cache arrays freed before
# them, plus the one-row scratch blocks and the blocks' temporaries.  It
# reads about 3.3 on one lane and 3.5 on two; the whole cache beside all six
# gradient arrays reads 7.3 and 7.4.
ARRAYS = 4


def _inputs(batch, length, dim, seed=0):
    """Params, item embeddings, a left-padded mask with an all-pad row, dL/dH."""
    rng = np.random.default_rng(seed)
    params = attention.init_weights(rng, dim, length + 2)
    x = rng.standard_normal((batch, length, dim))
    lens = rng.integers(1, length + 1, size=batch)
    lens[0] = 0                                   # all pad
    lens[1] = length                              # no pad
    mask = (np.arange(length)[None, :] >= (length - lens)[:, None]).astype(np.float64)
    x *= mask[:, :, None]                         # pad rows embed as zeros, as emb[0] does
    return params, x, mask, rng.standard_normal((batch, length, dim))


def _run(params, x, mask, dH):
    H, cache = attention.forward(params, x, mask)
    grads, dx = attention.backward(params, cache, dH, x)
    return H, grads, dx


@pytest.mark.parametrize("rows", [1, 2])   # B = 5: five blocks, or 2 + 2 + a partial 1
def test_blocks_match_one_block_bit_for_bit(monkeypatch, rows):
    params, x, mask, dH = _inputs(B, T, D)
    assert not mask[0].any() and mask[2].any() and not mask[2].all()
    monkeypatch.setattr(attention, "BLOCK_BYTES", B * ROW_BYTES)
    H1, grads1, dx1 = _run(params, x, mask, dH)
    monkeypatch.setattr(attention, "BLOCK_BYTES", rows * ROW_BYTES)
    H, grads, dx = _run(params, x, mask, dH)
    assert np.array_equal(H, H1)
    assert np.array_equal(dx, dx1)
    assert grads.keys() == grads1.keys()
    for name in grads:
        assert np.array_equal(grads[name], grads1[name]), name


def test_block_gradients_match_finite_differences(monkeypatch):
    monkeypatch.setattr(attention, "BLOCK_BYTES", 2 * ROW_BYTES)
    params, x, mask, weights = _inputs(B, T, D, seed=1)
    params["x_items"] = x        # the input too, so dL/dx_items is checked

    def loss(p):
        return float(np.sum(attention.forward(p, p["x_items"], mask)[0] * weights))

    def grad(p):
        _, grads, dx = _run(p, p["x_items"], mask, weights)
        return {**grads, "x_items": dx}

    assert check_gradients(loss, grad, params, n_coords=150, seed=0) < 1e-5


def _backward_extra_bytes(batch, length, dim):
    """Traced peak of backward above what forward leaves allocated."""
    params, x, mask, dH = _inputs(batch, length, dim, seed=2)
    tracemalloc.start()
    try:
        _, cache = attention.forward(params, x, mask)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        attention.backward(params, cache, dH, x)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_backward_memory_grows_with_block_not_batch_x_length_squared():
    """On n and 2n rows, what backward needs beyond the forward cache must
    grow by well under one n x heads x T x T float64 array, the size of
    each of the (B, heads, T, T) temporaries a one-block backward makes."""
    n, length, dim = 8, 128, 4
    rows = max(1, attention.BLOCK_BYTES // (attention.N_HEADS * length * length * 8))
    assert rows < n                              # several blocks at both sizes
    small, large = (_backward_extra_bytes(b, length, dim) for b in (n, 2 * n))
    tensor = n * attention.N_HEADS * length * length * 8
    assert large - small < tensor / 4, (small, large, tensor)


def test_backward_memory_bound_holds_on_two_lanes(monkeypatch):
    """The same bound with the rows split between two lanes, which share
    one BLOCK_BYTES budget."""
    monkeypatch.setattr(lanes, "count", lambda: 2)
    test_backward_memory_grows_with_block_not_batch_x_length_squared()


@pytest.mark.parametrize("n_lanes", [1, 2])
def test_backward_holds_few_row_arrays(monkeypatch, n_lanes):
    """Above its inputs, backward holds at most ARRAYS (B, T, d) arrays at a
    time.  It frees each cache array at its last use: the relu output and
    the residual once the feed-forward weights' gradients are taken, before
    its query, key, value and input gradients are made; the attention
    weights, queries, keys and values before the input is read again.  The
    blocks are one row each here, so the (rows, heads, T, T) scratch weighs
    little next to a (B, T, d) array.  A backward that makes all six of its
    gradient arrays beside the whole cache holds seven or more."""
    monkeypatch.setattr(lanes, "count", lambda: n_lanes)
    batch, length, dim = 32, 40, 32
    monkeypatch.setattr(attention, "BLOCK_BYTES", attention.N_HEADS * length * length * 8)
    array = batch * length * dim * 8
    assert 2 * n_lanes * attention.BLOCK_BYTES < array / 3     # the scratch blocks
    extra = _backward_extra_bytes(batch, length, dim)
    assert extra <= ARRAYS * array, f"{extra / array:.2f} (B, T, d) arrays"
