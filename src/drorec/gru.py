"""Single-layer gated recurrent scorer: forward pass and manual backward.

Pad positions (mask 0) carry the previous hidden state through unchanged,
so with left-padding the state stays at its zero init until the first
real item.  The backward pass mirrors the forward step by step and is
verified against finite differences in the test suite.
"""

from __future__ import annotations

import numpy as np

from .nn import sigmoid, uniform_init

WEIGHT_NAMES = ("gru_Wz", "gru_Uz", "gru_bz",
                "gru_Wr", "gru_Ur", "gru_br",
                "gru_Wn", "gru_Un", "gru_bn")


def init_weights(rng: np.random.Generator, dim: int) -> dict[str, np.ndarray]:
    w = {}
    for gate in ("z", "r", "n"):
        w[f"gru_W{gate}"] = uniform_init(rng, (dim, dim))
        w[f"gru_U{gate}"] = uniform_init(rng, (dim, dim))
        w[f"gru_b{gate}"] = np.zeros(dim)
    return w


def forward(params: dict[str, np.ndarray], x: np.ndarray, mask: np.ndarray):
    """Run the recurrence over x (B, T, d) with mask (B, T) in {0,1}.

    Returns per-position hidden states (B, T, d) and a cache for backward.
    """
    B, T, d = x.shape
    Wz, Uz, bz = params["gru_Wz"], params["gru_Uz"], params["gru_bz"]
    Wr, Ur, br = params["gru_Wr"], params["gru_Ur"], params["gru_br"]
    Wn, Un, bn = params["gru_Wn"], params["gru_Un"], params["gru_bn"]

    h = np.zeros((B, d))
    H = np.zeros((B, T, d))
    zs, rs, ns, h_prevs = [], [], [], []
    for t in range(T):
        xt = x[:, t, :]
        z = sigmoid(xt @ Wz + h @ Uz + bz)
        r = sigmoid(xt @ Wr + h @ Ur + br)
        n = np.tanh(xt @ Wn + (r * h) @ Un + bn)
        h_cand = (1.0 - z) * n + z * h
        m = mask[:, t:t + 1]
        h_new = m * h_cand + (1.0 - m) * h
        zs.append(z); rs.append(r); ns.append(n); h_prevs.append(h)
        h = h_new
        H[:, t, :] = h
    cache = {"x": x, "mask": mask, "z": zs, "r": rs, "n": ns, "h_prev": h_prevs}
    return H, cache


def backward(params: dict[str, np.ndarray], cache: dict, dH: np.ndarray):
    """Backprop dL/dH (B, T, d) through the recurrence.

    Returns (weight gradients, dL/dx).
    """
    x, mask = cache["x"], cache["mask"]
    B, T, d = x.shape
    Wz, Uz = params["gru_Wz"], params["gru_Uz"]
    Wr, Ur = params["gru_Wr"], params["gru_Ur"]
    Wn, Un = params["gru_Wn"], params["gru_Un"]

    grads = {name: np.zeros_like(params[name]) for name in WEIGHT_NAMES}
    dx = np.zeros_like(x)
    dh_carry = np.zeros((B, d))
    for t in range(T - 1, -1, -1):
        z, r, n, h_prev = cache["z"][t], cache["r"][t], cache["n"][t], cache["h_prev"][t]
        xt = x[:, t, :]
        m = mask[:, t:t + 1]
        dh = dH[:, t, :] + dh_carry
        d_cand = m * dh
        dh_prev = (1.0 - m) * dh

        dz = d_cand * (h_prev - n)
        dn = d_cand * (1.0 - z)
        dh_prev = dh_prev + d_cand * z

        dn_pre = dn * (1.0 - n * n)
        d_rh = dn_pre @ Un.T
        dr = d_rh * h_prev
        dh_prev = dh_prev + d_rh * r

        dz_pre = dz * z * (1.0 - z)
        dr_pre = dr * r * (1.0 - r)

        grads["gru_Wz"] += xt.T @ dz_pre
        grads["gru_Uz"] += h_prev.T @ dz_pre
        grads["gru_bz"] += dz_pre.sum(axis=0)
        grads["gru_Wr"] += xt.T @ dr_pre
        grads["gru_Ur"] += h_prev.T @ dr_pre
        grads["gru_br"] += dr_pre.sum(axis=0)
        grads["gru_Wn"] += xt.T @ dn_pre
        grads["gru_Un"] += (r * h_prev).T @ dn_pre
        grads["gru_bn"] += dn_pre.sum(axis=0)

        dx[:, t, :] = dz_pre @ Wz.T + dr_pre @ Wr.T + dn_pre @ Wn.T
        # h_prev feeds the z/r preactivations directly; its route through
        # the candidate's (r * h) @ Un product was handled via d_rh above.
        dh_carry = dh_prev + dz_pre @ Uz.T + dr_pre @ Ur.T

    return grads, dx
