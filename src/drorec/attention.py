"""Causal self-attention scorer (one block, two heads) with manual backward.

The block is deliberately minimal for desk-scale models: learned
positional embeddings, multi-head causal attention with key-pad masking,
residual connections and a two-layer relu feed-forward.  No layer norm
and no dropout, which keeps the hand-written backward pass tractable and
the forward pass fully deterministic.
"""

from __future__ import annotations

import functools

import numpy as np

from . import lanes
from .nn import masked_softmax, uniform_init

N_HEADS = 2
# bytes of the (rows, heads, T, T) float64 blocks of backward's attention
# work, shared by the lanes; a row that alone exceeds it makes a block of
# its own
BLOCK_BYTES = 1 << 20


def init_weights(rng: np.random.Generator, dim: int, max_len: int) -> dict[str, np.ndarray]:
    if dim % N_HEADS != 0:
        raise ValueError(f"dim {dim} not divisible by {N_HEADS} heads")
    w = {"att_pos": uniform_init(rng, (max_len, dim))}
    for name in ("att_Wq", "att_Wk", "att_Wv", "att_Wo"):
        w[name] = uniform_init(rng, (dim, dim))
    w["att_bo"] = np.zeros(dim)
    w["att_W1"] = uniform_init(rng, (dim, dim))
    w["att_b1"] = np.zeros(dim)
    w["att_W2"] = uniform_init(rng, (dim, dim))
    w["att_b2"] = np.zeros(dim)
    return w


def _split_heads(x: np.ndarray) -> np.ndarray:
    # (B, T, d) -> (B, nh, T, dh)
    B, T, d = x.shape
    return x.reshape(B, T, N_HEADS, d // N_HEADS).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    B, nh, T, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, T, nh * dh)


def forward(params: dict[str, np.ndarray], x_items: np.ndarray, mask: np.ndarray):
    """Forward over item embeddings x_items (B, T, d) with pad mask (B, T).

    Positional embeddings are added inside so the caller passes raw item
    embeddings.  Returns per-position states (B, T, d) and a cache.  Every
    step of the pass works row by row, so the two halves of the rows go to
    the two lanes (`lanes.halves`) and each row comes out as on one lane.
    """
    B, T, d = x_items.shape
    cache = {name: np.empty((B, T, d)) for name in ("x", "q", "k", "v", "z_merged", "h1", "f")}
    cache["attn"] = np.empty((B, N_HEADS, T, T))
    h2 = np.empty((B, T, d))
    lanes.each([functools.partial(_forward_rows, params, x_items[b], mask[b], _rows(cache, b),
                                  h2[b])
                for b in lanes.halves(B)])
    for name in ("q", "k", "v"):
        cache[name] = _split_heads(cache[name])
    return h2, cache


def _rows(arrays: dict[str, np.ndarray], b: slice) -> dict[str, np.ndarray]:
    return {name: a[b] for name, a in arrays.items()}


def _forward_rows(params, x_items, mask, c, h2) -> None:
    """`forward` of some rows, written into their slices c of the cache
    arrays (q, k and v with merged heads) and h2 of the states."""
    T, d = x_items.shape[1:]
    # Right-aligned position rows: with left-padded inputs the most recent
    # item always gets the last position embedding, for any input length.
    x = c["x"]
    np.add(x_items, params["att_pos"][-T:], out=x)
    for name in ("q", "k", "v"):
        np.matmul(x, params[f"att_W{name}"], out=c[name])
    q, k, v = (_split_heads(c[name]) for name in ("q", "k", "v"))

    scores = np.matmul(q, k.transpose(0, 1, 3, 2), out=c["attn"])
    scores /= np.sqrt(d // N_HEADS)
    causal = np.tril(np.ones((T, T), dtype=bool))
    attn = masked_softmax(scores, causal[None, None, :, :] & mask.astype(bool)[:, None, None, :])

    c["z_merged"][...] = _merge_heads(attn @ v)
    h1 = np.matmul(c["z_merged"], params["att_Wo"], out=c["h1"])
    h1 += params["att_bo"]
    h1 += x                           # the residual: x + (z_merged @ Wo + bo)

    f = np.matmul(h1, params["att_W1"], out=c["f"])
    f += params["att_b1"]
    np.maximum(f, 0.0, out=f)
    np.matmul(f, params["att_W2"], out=h2)
    np.add(h1, h2, out=h2)
    h2 += params["att_b2"]


def backward(params: dict[str, np.ndarray], cache: dict, dH: np.ndarray):
    """Backprop dL/dH (B, T, d) through the block.

    Returns (weight gradients including att_pos, dL/dx_items).  The input
    gradients work row by row and go to the two lanes in halves; then each
    weight gradient, a sum over all rows, is taken whole, three products
    on each lane.
    """
    x = cache["x"]
    B, T, d = x.shape
    g = {name: np.empty((B, T, d)) for name in ("dpre", "dh1", "dq", "dk", "dv", "dx")}
    parts = lanes.halves(B)
    # the lanes share one BLOCK_BYTES budget for their (rows, heads, T, T)
    # blocks, allocated here so the peak does not depend on their timing
    rows = max(1, BLOCK_BYTES // (N_HEADS * T * T * 8) // len(parts))
    scratch = [np.empty((2, min(rows, b.stop - b.start), N_HEADS, T, T)) for b in parts]
    lanes.each([functools.partial(_backward_rows, params, _rows(cache, b), dH[b], _rows(g, b),
                                  rows, s)
                for b, s in zip(parts, scratch)])
    grads = {}
    for part in lanes.each([functools.partial(_feed_forward_grads, cache, dH, g),
                            functools.partial(_attention_grads, params, cache, g)]):
        grads.update(part)
    return grads, g["dx"]


def _backward_rows(params, c, dH, g, rows, scratch) -> None:
    """`backward`'s input gradients of some rows, written into their slices
    g of the gradient arrays (heads merged).  The (rows, heads, T, T) work
    goes a block of ``rows`` rows at a time through the two scratch arrays;
    each row's products and sums are those of one block over the batch."""
    d = dH.shape[-1]
    dpre = np.matmul(dH, params["att_W2"].T, out=g["dpre"])
    dpre *= c["f"] > 0.0              # f = max(pre, 0) is positive where pre is
    dh1 = np.matmul(dpre, params["att_W1"].T, out=g["dh1"])
    dh1 += dH                         # dH + dpre @ W1.T

    # output projection + residual, then attention in blocks of whole rows
    dz = _split_heads(dh1 @ params["att_Wo"].T)
    attn, q, k, v = c["attn"], c["q"], c["k"], c["v"]
    dq, dk, dv = (_split_heads(g[name]) for name in ("dq", "dk", "dv"))
    for start in range(0, len(attn), rows):
        b = slice(start, start + rows)
        a = attn[b]
        n = len(a)
        dattn = np.matmul(dz[b], v[b].transpose(0, 1, 3, 2), out=scratch[0, :n])
        np.matmul(a.transpose(0, 1, 3, 2), dz[b], out=dv[b])
        # softmax rows: dS = A * (dA - sum(dA * A)); all-zero rows stay zero
        row_dot = np.sum(np.multiply(dattn, a, out=scratch[1, :n]), axis=-1, keepdims=True)
        dscores = dattn
        dscores -= row_dot
        dscores *= a
        np.matmul(dscores, k[b], out=dq[b])
        np.matmul(dscores.transpose(0, 1, 3, 2), q[b], out=dk[b])
    del dz
    dq /= np.sqrt(d // N_HEADS)
    dk /= np.sqrt(d // N_HEADS)

    dx = np.matmul(g["dq"], params["att_Wq"].T, out=g["dx"])
    dx += g["dk"] @ params["att_Wk"].T
    dx += g["dv"] @ params["att_Wv"].T
    dx += dh1


def _feed_forward_grads(cache, dH, g) -> dict[str, np.ndarray]:
    """Gradients of the feed-forward and output projection weights."""
    d = dH.shape[-1]
    return {"att_W2": cache["f"].reshape(-1, d).T @ dH.reshape(-1, d),
            "att_b2": dH.sum(axis=(0, 1)),
            "att_W1": cache["h1"].reshape(-1, d).T @ g["dpre"].reshape(-1, d),
            "att_b1": g["dpre"].sum(axis=(0, 1)),
            "att_Wo": cache["z_merged"].reshape(-1, d).T @ g["dh1"].reshape(-1, d),
            "att_bo": g["dh1"].sum(axis=(0, 1))}


def _attention_grads(params, cache, g) -> dict[str, np.ndarray]:
    """Gradients of the query, key and value projections and the positions."""
    x = cache["x"]
    T, d = x.shape[1:]
    grads = {f"att_W{name}": x.reshape(-1, d).T @ g[f"d{name}"].reshape(-1, d)
             for name in ("q", "k", "v")}
    grads["att_pos"] = np.zeros_like(params["att_pos"])
    grads["att_pos"][-T:] = g["dx"].sum(axis=0)
    return grads
