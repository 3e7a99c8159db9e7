"""Sequential scorer with shared encoder and two prediction heads.

The main head produces the recommendation score P used by the BCE
objective; the dro head produces the score y fed into the surrogate
risk.  Both are linear layers over the same encoder state, so the two
paths differ only in their final layer.
"""

from __future__ import annotations

import numpy as np

from . import attention, gru
from .data import Catalog
from .nn import (Adam, load_params, log_sigmoid, save_params, scatter_add_rows,
                 sigmoid, uniform_init)

ARCHS = ("recurrent", "attention")
HEADS = ("main", "dro")


class EmptySequenceError(ValueError):
    """All-pad input sequence."""


class FrozenModelError(RuntimeError):
    """Attempted to mutate a frozen model."""


class SeqModel:
    """Trainable next-item scorer over a fixed catalog.

    Parameters are a flat dict of named float64 arrays: item embeddings
    (row 0 is the pad item and stays zero), architecture weights and the
    two head layers.  ``fingerprint`` names the catalog the item indices
    refer to (``Catalog.fingerprint``); checkpoints carry it.
    """

    def __init__(self, n_items: int, dim: int, max_len: int, arch: str, seed: int = 0,
                 align_heads: bool = False, fingerprint: str = ""):
        if arch not in ARCHS:
            raise ValueError(f"unknown architecture {arch!r}")
        self.n_items = n_items
        self.dim = dim
        self.max_len = max_len
        self.arch = arch
        self.fingerprint = fingerprint
        self.frozen = False

        rng = np.random.default_rng(seed)
        params = {"emb": uniform_init(rng, (n_items + 1, dim))}
        params["emb"][0] = 0.0
        if arch == "recurrent":
            params.update(gru.init_weights(rng, dim))
        else:
            params.update(attention.init_weights(rng, dim, max_len))
        for head in HEADS:
            params[f"W_{head}"] = uniform_init(rng, (dim, dim))
            params[f"b_{head}"] = np.zeros(dim)
        if align_heads:
            # start both heads from the same layer so that suppression
            # learned by the dro head moves the shared embeddings in a
            # direction the main head also sees; the heads still train
            # independently from step one onward
            params["W_dro"] = params["W_main"].copy()
            params["b_dro"] = params["b_main"].copy()
        self.params = params

    # ------------------------------------------------------------------
    # forward / backward

    def forward_states(self, seqs: np.ndarray, params: dict | None = None):
        """Per-position encoder states for left-padded index sequences.

        seqs is (B, T) with 0 as pad; position p's state encodes the
        prefix up to and including the item at p.
        """
        p = self.params if params is None else params
        x = p["emb"][seqs]
        mask = (seqs > 0).astype(np.float64)
        if self.arch == "recurrent":
            return gru.forward(p, x, mask)
        return attention.forward(p, x, mask)

    def backward_states(self, cache: dict, dH: np.ndarray, seqs: np.ndarray,
                        params: dict | None = None) -> dict[str, np.ndarray]:
        """Gradients of all encoder-side parameters given dL/dstates."""
        p = self.params if params is None else params
        if self.arch == "recurrent":
            grads, dx = gru.backward(p, cache, dH)
        else:
            grads, dx = attention.backward(p, cache, dH)
        demb = scatter_add_rows(seqs, dx, len(p["emb"]))
        demb[0] = 0.0
        grads["emb"] = demb
        return grads

    def encode(self, seq, params: dict | None = None) -> np.ndarray:
        """State of the last (most recent) position of one padded sequence."""
        arr = np.asarray(seq, dtype=np.int64).reshape(1, -1)
        if not np.any(arr > 0):
            raise EmptySequenceError("cannot encode an all-pad sequence")
        H, _ = self.forward_states(arr, params)
        return H[0, -1]

    # ------------------------------------------------------------------
    # heads and scoring

    def head_out(self, states: np.ndarray, which: str = "main",
                 params: dict | None = None) -> np.ndarray:
        if which not in HEADS:
            raise ValueError(f"unknown head {which!r}")
        p = self.params if params is None else params
        return states @ p[f"W_{which}"] + p[f"b_{which}"]

    def score(self, state: np.ndarray, item_index: int, which: str = "main",
              params: dict | None = None) -> float:
        """Dot-product logit of one item against the head-transformed state."""
        if item_index <= 0 or item_index > self.n_items:
            raise ValueError(f"item index {item_index} outside catalog 1..{self.n_items}")
        p = self.params if params is None else params
        g = self.head_out(state, which, p)
        return float(p["emb"][item_index] @ g)

    def all_logits(self, states: np.ndarray, which: str = "main",
                   params: dict | None = None) -> np.ndarray:
        """Logits for every catalog item (pad excluded), shape (..., n_items)."""
        p = self.params if params is None else params
        g = self.head_out(states, which, p)
        return g @ p["emb"][1:].T

    # ------------------------------------------------------------------
    # training-facing objectives

    def bce_loss(self, batch, params: dict | None = None) -> float:
        """BCE over (prefix, positive, negative) triples.

        The prefixes are padded index sequences; the loss sums
        -log sigma(r+) - log(1 - sigma(r-)) over the batch.
        """
        if len(batch) == 0:
            raise ValueError("empty batch")
        p = self.params if params is None else params
        prefixes = np.stack([np.asarray(b[0], dtype=np.int64) for b in batch])
        pos = np.array([b[1] for b in batch], dtype=np.int64)
        neg = np.array([b[2] for b in batch], dtype=np.int64)
        H, _ = self.forward_states(prefixes, p)
        state = H[:, -1, :]
        g = self.head_out(state, "main", p)
        r_pos = np.sum(g * p["emb"][pos], axis=1)
        r_neg = np.sum(g * p["emb"][neg], axis=1)
        return float(-np.sum(log_sigmoid(r_pos) + log_sigmoid(-r_neg)))

    def bce_gradients(self, batch, params: dict | None = None) -> dict[str, np.ndarray]:
        """Analytic gradients of bce_loss; finite-difference checked in tests."""
        if len(batch) == 0:
            raise ValueError("empty batch")
        p = self.params if params is None else params
        prefixes = np.stack([np.asarray(b[0], dtype=np.int64) for b in batch])
        pos = np.array([b[1] for b in batch], dtype=np.int64)
        neg = np.array([b[2] for b in batch], dtype=np.int64)
        H, cache = self.forward_states(prefixes, p)
        state = H[:, -1, :]
        g = self.head_out(state, "main", p)
        r_pos = np.sum(g * p["emb"][pos], axis=1)
        r_neg = np.sum(g * p["emb"][neg], axis=1)

        dr_pos = sigmoid(r_pos) - 1.0
        dr_neg = sigmoid(r_neg)
        dg = dr_pos[:, None] * p["emb"][pos] + dr_neg[:, None] * p["emb"][neg]
        demb = scatter_add_rows(np.concatenate([pos, neg]),
                                np.concatenate([dr_pos[:, None] * g, dr_neg[:, None] * g]),
                                len(p["emb"]))

        grads = {f"W_{h}": np.zeros_like(p[f"W_{h}"]) for h in HEADS}
        grads.update({f"b_{h}": np.zeros_like(p[f"b_{h}"]) for h in HEADS})
        grads["W_main"] = state.T @ dg
        grads["b_main"] = dg.sum(axis=0)

        dstate = dg @ p["W_main"].T
        dH = np.zeros_like(H)
        dH[:, -1, :] = dstate
        enc_grads = self.backward_states(cache, dH, prefixes, p)
        enc_grads["emb"] += demb
        enc_grads["emb"][0] = 0.0
        for k, v in grads.items():
            enc_grads[k] = enc_grads.get(k, 0.0) + v
        return enc_grads

    # ------------------------------------------------------------------
    # lifecycle

    def realign_heads(self) -> None:
        """Copy the main head into the dro head.

        Used at the start of robust fine-tuning so the dro head scores
        agree with the already-trained main head before the robust term
        starts shaping them.
        """
        if self.frozen:
            raise FrozenModelError("cannot mutate a frozen model")
        self.params["W_dro"][:] = self.params["W_main"]
        self.params["b_dro"][:] = self.params["b_main"]

    def make_optimizer(self, lr: float, beta2: float = 0.999) -> Adam:
        return Adam(self.params.keys(), lr=lr, beta2=beta2)

    def freeze(self) -> "SeqModel":
        self.frozen = True
        for v in self.params.values():
            v.setflags(write=False)
        return self

    def save(self, path) -> None:
        save_params(path, self.params, arch=self.arch, n_items=self.n_items,
                    dim=self.dim, max_len=self.max_len, catalog=self.fingerprint)

    @classmethod
    def restore(cls, params: dict, *, arch, n_items, dim, max_len,
                fingerprint) -> "SeqModel":
        """A model around saved parameters, without initialising new ones."""
        model = cls.__new__(cls)
        model.n_items = int(n_items)
        model.dim = int(dim)
        model.max_len = int(max_len)
        model.arch = str(arch)
        model.fingerprint = str(fingerprint)
        model.frozen = False
        model.params = params
        return model

    @classmethod
    def load(cls, path, catalog: Catalog | None = None) -> "SeqModel":
        """Read a checkpoint; with ``catalog``, first check it was trained on it."""
        params, meta = load_params(path)
        fingerprint = str(meta.get("catalog", ""))
        if catalog is not None:
            catalog.check_fingerprint(fingerprint, path)
        return cls.restore(params, arch=meta["arch"], n_items=meta["n_items"],
                           dim=meta["dim"], max_len=meta["max_len"],
                           fingerprint=fingerprint)
