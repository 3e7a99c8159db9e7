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
from .nn import Adam, load_params, save_params, scatter_add_rows, uniform_init

ARCHS = ("recurrent", "attention")
HEADS = ("main", "dro")
FORMAT_VERSION = 1


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
                 fingerprint: str = ""):
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
        real = seqs > 0                 # pad entries add only to row 0, zeroed below
        demb = scatter_add_rows(seqs[real], dx[real], len(p["emb"]))
        demb[0] = 0.0
        grads["emb"] = demb
        return grads

    # ------------------------------------------------------------------
    # heads and scoring

    def head_out(self, states: np.ndarray, which: str = "main",
                 params: dict | None = None) -> np.ndarray:
        if which not in HEADS:
            raise ValueError(f"unknown head {which!r}")
        p = self.params if params is None else params
        return states @ p[f"W_{which}"] + p[f"b_{which}"]

    def all_logits(self, states: np.ndarray, which: str = "main",
                   params: dict | None = None) -> np.ndarray:
        """Logits for every catalog item (pad excluded), shape (..., n_items)."""
        p = self.params if params is None else params
        g = self.head_out(states, which, p)
        return g @ p["emb"][1:].T

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

    def make_optimizer(self, lr: float, beta2: float) -> Adam:
        return Adam(self.params.keys(), lr=lr, beta2=beta2)

    def freeze(self) -> "SeqModel":
        self.frozen = True
        for v in self.params.values():
            v.setflags(write=False)
        return self

    def save(self, path) -> None:
        save_params(path, self.params, format_version=FORMAT_VERSION,
                    arch=self.arch, n_items=self.n_items,
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
        params, meta = load_params(path, FORMAT_VERSION)
        fingerprint = str(meta["catalog"])
        if catalog is not None:
            catalog.check_fingerprint(fingerprint, path)
        return cls.restore(params, arch=meta["arch"], n_items=meta["n_items"],
                           dim=meta["dim"], max_len=meta["max_len"],
                           fingerprint=fingerprint)
