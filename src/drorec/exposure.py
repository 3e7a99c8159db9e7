"""Mixture exposure simulator and the nominal exposure distribution q0.

The simulator is a frozen mixture of an attention scorer, a recurrent
scorer and a popularity model, all fit on system exposure data.  At
inference it consumes a user *interaction* prefix and emits

    mu0(S, v) = softmax(e . F1)[v] + softmax(e . F2)[v] + beta * softmax(f)[v]
    q0(S, v)  = mu0(S, v) / sum_i mu0(S, i)

so sum_v mu0 = 2 + beta exactly and q0 is a probability vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lanes
from .data import Catalog, EventLog, sequences_to_matrix
from .model import SeqModel
from .nn import ADAM_BETA2, load_params, save_params, softmax

FORMAT_VERSION = 2
# sequences per encoder pass over a user matrix (q0_blocks, step_q0); whole
# (rows, T) blocks give the same bits as the full matrix
Q0_BLOCK_ROWS = 64


class LeakageError(ValueError):
    """Simulator training input overlaps the evaluation partition."""


@dataclass
class PopularityTable:
    """Per-item exposure counts and max-normalized popularity scores."""

    counts: np.ndarray  # (n_items,) ints
    scores: np.ndarray  # (n_items,) in [0, 1]

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "PopularityTable":
        """Scores are counts / max count, all zero without any count."""
        top = counts.max(initial=0)
        scores = counts / top if top > 0 else np.zeros(len(counts))
        return cls(counts=counts, scores=scores)


def popularity_from(log: EventLog) -> PopularityTable:
    """Count the log's exposures per item into a popularity table."""
    return PopularityTable.from_counts(log.exposure_counts())


def check_no_leakage(log: EventLog, forbidden: EventLog) -> None:
    shared = log.shared_events(forbidden)
    if shared:
        raise LeakageError(f"{shared} training events also appear in the evaluation partition")


def train_exposure_component(mat: np.ndarray, catalog: Catalog, arch: str, *,
                             dim: int, epochs: int, lr: float, batch_size: int,
                             seed: int) -> SeqModel:
    """Fit one frozen mixture component on next-exposed-item prediction
    over the (n_users, max_len) matrix of exposure sequences."""
    from .dro import train_model  # local import to avoid a cycle

    model = SeqModel(catalog.n_items, dim, mat.shape[1], arch, seed=seed,
                     fingerprint=catalog.fingerprint)
    train_model(model, mat, method="none", epochs=epochs, lr=lr,
                batch_size=batch_size, seed=seed, beta2=ADAM_BETA2)
    return model.freeze()


def _by_blocks(seqs: np.ndarray, compute) -> np.ndarray:
    """``compute(block)`` of each block of at most Q0_BLOCK_ROWS rows of seqs, stacked."""
    out = None
    for start in range(0, max(len(seqs), 1), Q0_BLOCK_ROWS):
        part = compute(seqs[start:start + Q0_BLOCK_ROWS])
        if out is None:
            out = np.empty((len(seqs),) + part.shape[1:], dtype=part.dtype)
        out[start:start + len(part)] = part
    return out


@dataclass(kw_only=True)
class ExposureSimulator:
    component_a: SeqModel      # attention scorer
    component_b: SeqModel      # recurrent scorer
    popularity: PopularityTable
    beta: float

    def __post_init__(self):
        self.component_a.freeze()
        self.component_b.freeze()
        self._pop_softmax = softmax(self.popularity.scores)

    def _main_heads(self, seqs: np.ndarray) -> np.ndarray:
        """Both components' main-head outputs at every position, (B, T, 2, dim)."""
        return np.stack([m.head_out(m.forward_states(seqs)[0], "main")
                         for m in (self.component_a, self.component_b)], axis=-2)

    def _mixture(self, heads: np.ndarray, normalize: bool = True) -> np.ndarray:
        """mu0, or q0 with ``normalize``, of `_main_heads` rows, in one buffer."""
        for k, model in enumerate((self.component_a, self.component_b)):
            p = heads[..., k, :] @ model.params["emb"][1:].T    # the component's logits
            p -= p.max(axis=-1, keepdims=True)
            np.exp(p, out=p)
            p /= p.sum(axis=-1, keepdims=True)
            mu = np.add(mu, p, out=mu) if k else p
        mu += self.beta * self._pop_softmax
        if normalize:
            mu /= mu.sum(axis=-1, keepdims=True)
        return mu

    def mu0_all_positions(self, seqs: np.ndarray) -> np.ndarray:
        """(B, T, n_items) mu0 of the prefix ending at every position of the
        (B, T) left-padded seqs; meaningless at pad positions."""
        return self._mixture(self._main_heads(seqs), normalize=False)

    def q0_all_positions(self, seqs: np.ndarray) -> np.ndarray:
        return self._mixture(self._main_heads(seqs))

    def q0_blocks(self, seqs: np.ndarray, take) -> np.ndarray:
        """``take(q0_all_positions(seqs), seqs)``, one block at a time, bit for
        bit when take works row by row, as slicing and per-row gathers do."""
        return _by_blocks(seqs, lambda block: take(self.q0_all_positions(block), block))

    def step_q0(self, seqs: np.ndarray) -> "StepQ0":
        """The q0 of every training step of seqs: of each prefix but the whole row."""
        return StepQ0(self, _by_blocks(seqs, lambda block: self._main_heads(block)[:, :-1]))

    # ------------------------------------------------------------------

    def save(self, path) -> None:
        arrays = {}
        for prefix, comp in (("a__", self.component_a), ("b__", self.component_b)):
            for k, v in comp.params.items():
                arrays[prefix + k] = v
        arrays["pop_counts"] = self.popularity.counts
        save_params(path, arrays,
                    format_version=FORMAT_VERSION, beta=self.beta,
                    a_arch=self.component_a.arch, b_arch=self.component_b.arch,
                    n_items=self.component_a.n_items,
                    dim=self.component_a.dim,
                    a_max_len=self.component_a.max_len,
                    b_max_len=self.component_b.max_len,
                    catalog=self.component_a.fingerprint)

    @classmethod
    def load(cls, path, catalog: Catalog | None = None) -> "ExposureSimulator":
        """Read a checkpoint; with ``catalog``, first check it was trained on it."""
        arrays, meta = load_params(path, FORMAT_VERSION)
        fingerprint = str(meta["catalog"])
        if catalog is not None:
            catalog.check_fingerprint(fingerprint, path)
        comps = {}
        for c in ("a", "b"):
            params = {k[3:]: v.copy() for k, v in arrays.items() if k.startswith(f"{c}__")}
            comps[c] = SeqModel.restore(params, arch=meta[f"{c}_arch"],
                                        n_items=meta["n_items"], dim=meta["dim"],
                                        max_len=meta[f"{c}_max_len"],
                                        fingerprint=fingerprint)
        return cls(component_a=comps["a"], component_b=comps["b"],
                   popularity=PopularityTable.from_counts(arrays["pop_counts"]),
                   beta=float(meta["beta"]))


@dataclass
class StepQ0:
    """Indexes like a (rows, steps, n_items) q0 array without holding one:
    an index that keeps rows and steps gives a StepQ0, one that picks out
    steps (a boolean mask) their q0, `q0_all_positions` up to BLAS rounding."""

    sim: ExposureSimulator
    heads: np.ndarray   # `_main_heads` at every step, (rows, steps, 2, dim)

    def __getitem__(self, index):
        heads = self.heads[index]
        return StepQ0(self.sim, heads) if heads.ndim == 4 else self.sim._mixture(heads)


def build_simulators(parts: list[tuple[EventLog, EventLog, int]], *, dim: int,
                     max_len: int, beta: float, epochs: int, lr: float,
                     batch_size: int) -> list[ExposureSimulator]:
    """One frozen mixture per (log, forbidden, seed) part, in order: both
    components trained on one exposure matrix built from the exposures of
    ``log``, none of which may be in ``forbidden``.

    Every part is checked before any component is fit.  The attention fits
    and the recurrent fits are one `lanes.each`, and each component is fit
    with its own seed, so the results do not depend on the lane count.
    """
    checked = []
    for log, forbidden, seed in parts:
        popularity = popularity_from(log)
        if not popularity.counts.any():
            raise ValueError("no exposure events to train on")
        check_no_leakage(log, forbidden)
        # each user's exposures in time order, users without one left out
        mat = sequences_to_matrix([s for s in log.item_sequences(clicks=False) if s], max_len)
        checked.append((mat, log.catalog, seed, popularity))
    fit = dict(dim=dim, epochs=epochs, lr=lr, batch_size=batch_size)

    def fits(arch, seed_offset):
        return lambda: [train_exposure_component(mat, catalog, arch, seed=seed + seed_offset, **fit)
                        for mat, catalog, seed, _ in checked]

    comps_a, comps_b = lanes.each([fits("attention", 0), fits("recurrent", 1)])
    return [ExposureSimulator(component_a=a, component_b=b, popularity=popularity, beta=beta)
            for a, b, (_, _, _, popularity) in zip(comps_a, comps_b, checked)]

