"""Small numerical building blocks shared by the scorers.

Everything operates on plain numpy arrays; parameters live in flat
``{name: ndarray}`` dicts so checkpoints, Adam state and gradient checks
can treat every architecture uniformly.
"""

from __future__ import annotations

import ctypes
import platform

import numpy as np

INIT_SCALE = 0.1          # half-width of the uniform weight init
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999        # the fits with no beta2 setting: simulators, policy refit
ADAM_EPS = 1e-8
# glibc malloc: blocks below MMAP_THRESHOLD come from the heap, and the heap
# top is returned to the OS only past TRIM_THRESHOLD free bytes; these are
# the ceilings glibc's own dynamic thresholds reach on 64-bit
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8   # mallopt parameters, <malloc.h>


def keep_freed_memory() -> None:
    """Keep freed numpy buffers in the process heap for the next allocation.

    Without it glibc hands the per-step temporaries of a training step back
    to the OS and page-faults fresh pages in on the next step.  Every thread
    allocates from the one heap, so the temporaries the lane thread
    (`lanes.each`) frees serve the calling thread too, instead of staying in
    an arena of their own.  Does nothing outside glibc.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    mallopt(_M_ARENA_MAX, 1)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, both from
    # e = e^-|x| <= 1, so neither overflows; whole-array passes only
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.maximum(x >= 0, e) / (1.0 + e)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def masked_softmax(scores: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the entries where ``allowed`` is True,
    written over ``scores`` and returned.

    Rows with no allowed entry come back all-zero instead of NaN, which
    is what a fully-padded attention query needs.
    """
    e = scores
    np.copyto(e, -np.inf, where=~allowed)
    row_max = np.max(e, axis=-1, keepdims=True)
    row_max[~np.isfinite(row_max)] = 0.0
    e -= row_max
    np.exp(e, out=e)                  # disallowed entries become exactly 0
    denom = np.sum(e, axis=-1, keepdims=True)
    denom[denom == 0.0] = 1.0         # all-zero rows stay all-zero
    e /= denom
    return e


def scatter_add_rows(index: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """Zeros (n_rows, d) plus each row of ``values`` added at its ``index``.

    Same result as ``np.add.at`` on zeros, bit for bit: ``bincount``
    also adds the contributions to each entry in input order.
    """
    d = values.shape[-1]
    flat = (index.reshape(-1, 1) * d + np.arange(d)).ravel()
    sums = np.bincount(flat, weights=values.reshape(-1), minlength=n_rows * d)
    return sums.reshape(n_rows, d)


def log_sigmoid(x: np.ndarray) -> np.ndarray:
    # log sigma(x) = -log(1 + e^{-x}), stable on both tails
    return -np.logaddexp(0.0, -x)


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)


class Adam:
    """Standard Adam with bias correction over a named-parameter dict."""

    def __init__(self, param_names, lr: float, beta2: float):
        self.lr = lr
        self.beta2 = beta2
        self.t = 0
        self.m = {k: None for k in param_names}
        self.v = {k: None for k in param_names}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for k, g in grads.items():
            p = params[k]
            if g.shape != p.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape} for {k!r}")
            if self.m[k] is None:
                self.m[k] = np.zeros_like(p)
                self.v[k] = np.zeros_like(p)
            self.m[k] = ADAM_BETA1 * self.m[k] + (1.0 - ADAM_BETA1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[k] / b1t
            v_hat = self.v[k] / b2t
            p -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def save_params(path, params: dict[str, np.ndarray], **meta) -> None:
    """Write named tensors (plus scalar metadata) to an npz checkpoint."""
    arrays = dict(params)
    for k, v in meta.items():
        arrays[f"__meta__{k}"] = np.asarray(v)
    np.savez(path, **arrays)


def load_params(path, format_version: int) -> tuple[dict[str, np.ndarray], dict]:
    """Bit-exact inverse of save_params; returns (params, metadata).

    A checkpoint whose ``format_version`` metadata is missing or differs
    from ``format_version`` raises ValueError.
    """
    with np.load(path, allow_pickle=False) as data:
        params, meta = {}, {}
        for k in data.files:
            if k.startswith("__meta__"):
                meta[k[len("__meta__"):]] = data[k][()]
            else:
                params[k] = data[k]
    found = meta.get("format_version", "(unrecorded)")
    if found != format_version:
        raise ValueError(f"{path}: checkpoint format {found}, expected {format_version}")
    return params, meta


def finite_difference_grad(loss_fn, params: dict[str, np.ndarray], name: str,
                           index: tuple[int, ...], h: float = 1e-5) -> float:
    """Central finite difference of ``loss_fn(params)`` in one coordinate."""
    orig = params[name][index]
    params[name][index] = orig + h
    up = loss_fn(params)
    params[name][index] = orig - h
    down = loss_fn(params)
    params[name][index] = orig
    return (up - down) / (2.0 * h)


def check_gradients(loss_fn, grad_fn, params: dict[str, np.ndarray],
                    n_coords: int = 100, seed: int = 0, h: float = 1e-5,
                    floor: float = 1e-6) -> float:
    """Max relative error of analytic vs finite-difference gradients.

    Samples coordinates uniformly across all parameter tensors.  The
    denominator is floored so coordinates whose true gradient is below
    the finite-difference noise level compare absolutely instead.
    """
    rng = np.random.default_rng(seed)
    grads = grad_fn(params)
    names = sorted(grads.keys())
    sizes = np.array([params[n].size for n in names])
    worst = 0.0
    for _ in range(n_coords):
        which = rng.choice(len(names), p=sizes / sizes.sum())
        name = names[which]
        flat = int(rng.integers(params[name].size))
        index = np.unravel_index(flat, params[name].shape)
        numeric = finite_difference_grad(loss_fn, params, name, index, h=h)
        analytic = grads[name][index]
        denom = max(abs(numeric), abs(analytic), floor)
        worst = max(worst, abs(numeric - analytic) / denom)
    return worst
