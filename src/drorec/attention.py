"""Causal self-attention scorer (one block, two heads) with manual backward.

The block is deliberately minimal for desk-scale models: learned
positional embeddings, multi-head causal attention with key-pad masking,
residual connections and a two-layer relu feed-forward.  No layer norm
and no dropout, which keeps the hand-written backward pass tractable and
the forward pass fully deterministic.
"""

from __future__ import annotations

import numpy as np

from .nn import masked_softmax, uniform_init

N_HEADS = 2


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
    embeddings.  Returns per-position states (B, T, d) and a cache.
    """
    B, T, d = x_items.shape
    dh = d // N_HEADS
    # Right-aligned position rows: with left-padded inputs the most recent
    # item always gets the last position embedding, for any input length.
    pos = params["att_pos"][-T:]
    x = x_items + pos[None, :, :]

    q = _split_heads(x @ params["att_Wq"])
    k = _split_heads(x @ params["att_Wk"])
    v = _split_heads(x @ params["att_Wv"])

    scores = q @ k.transpose(0, 1, 3, 2)
    scores /= np.sqrt(dh)
    causal = np.tril(np.ones((T, T), dtype=bool))
    allowed = causal[None, None, :, :] & mask.astype(bool)[:, None, None, :]
    attn = masked_softmax(scores, allowed)

    z = attn @ v
    z_merged = _merge_heads(z)
    o = z_merged @ params["att_Wo"] + params["att_bo"]
    h1 = x + o

    pre = h1 @ params["att_W1"]
    pre += params["att_b1"]
    f = np.maximum(pre, 0.0)
    h2 = f @ params["att_W2"]
    np.add(h1, h2, out=h2)
    h2 += params["att_b2"]

    cache = {"x": x, "q": q, "k": k, "v": v, "attn": attn, "z_merged": z_merged,
             "h1": h1, "pre": pre, "f": f, "allowed": allowed}
    return h2, cache


def backward(params: dict[str, np.ndarray], cache: dict, dH: np.ndarray):
    """Backprop dL/dH (B, T, d) through the block.

    Returns (weight gradients including att_pos, dL/dx_items).
    """
    x = cache["x"]
    B, T, d = x.shape
    dh = d // N_HEADS

    grads = {}

    # feed-forward + residual
    f, pre, h1 = cache["f"], cache["pre"], cache["h1"]
    grads["att_W2"] = f.reshape(-1, d).T @ dH.reshape(-1, d)
    grads["att_b2"] = dH.sum(axis=(0, 1))
    df = dH @ params["att_W2"].T
    dpre = df * (pre > 0.0)
    grads["att_W1"] = h1.reshape(-1, d).T @ dpre.reshape(-1, d)
    grads["att_b1"] = dpre.sum(axis=(0, 1))
    dh1 = dH + dpre @ params["att_W1"].T

    # output projection + residual
    do = dh1
    z_merged = cache["z_merged"]
    grads["att_Wo"] = z_merged.reshape(-1, d).T @ do.reshape(-1, d)
    grads["att_bo"] = do.sum(axis=(0, 1))
    dz = _split_heads(do @ params["att_Wo"].T)
    dx = dh1.copy()

    # attention
    attn, q, k, v = cache["attn"], cache["q"], cache["k"], cache["v"]
    dattn = dz @ v.transpose(0, 1, 3, 2)
    dv = attn.transpose(0, 1, 3, 2) @ dz
    # softmax rows: dS = A * (dA - sum(dA * A)); all-zero rows stay zero
    row_dot = np.sum(dattn * attn, axis=-1, keepdims=True)
    dscores = dattn
    dscores -= row_dot
    dscores *= attn
    dq = dscores @ k
    dq /= np.sqrt(dh)
    dk = dscores.transpose(0, 1, 3, 2) @ q
    dk /= np.sqrt(dh)

    dq_m, dk_m, dv_m = _merge_heads(dq), _merge_heads(dk), _merge_heads(dv)
    grads["att_Wq"] = x.reshape(-1, d).T @ dq_m.reshape(-1, d)
    grads["att_Wk"] = x.reshape(-1, d).T @ dk_m.reshape(-1, d)
    grads["att_Wv"] = x.reshape(-1, d).T @ dv_m.reshape(-1, d)
    dxa = dq_m @ params["att_Wq"].T
    dxa += dk_m @ params["att_Wk"].T
    dxa += dv_m @ params["att_Wv"].T
    dx += dxa

    grads["att_pos"] = np.zeros_like(params["att_pos"])
    grads["att_pos"][-T:] = dx.sum(axis=0)
    return grads, dx
