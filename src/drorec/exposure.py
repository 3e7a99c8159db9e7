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

from .data import Catalog, Event, sequences_to_matrix, truncate_pad
from .model import SeqModel
from .nn import load_params, save_params, softmax

FORMAT_VERSION = 2


class LeakageError(ValueError):
    """Simulator training input overlaps the evaluation partition."""


@dataclass
class PopularityTable:
    """Per-item exposure counts and max-normalized popularity scores."""

    counts: np.ndarray  # (n_items,) ints
    scores: np.ndarray  # (n_items,) in [0, 1]

    @property
    def degenerate(self) -> bool:
        return self.counts.max(initial=0) == 0

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "PopularityTable":
        """Scores are counts / max count, all zero without any count."""
        top = counts.max(initial=0)
        scores = counts / top if top > 0 else np.zeros(len(counts))
        return cls(counts=counts, scores=scores)


def popularity_from(events: list[Event], catalog: Catalog) -> PopularityTable:
    """Count exposures per item into a popularity table."""
    counts = np.zeros(catalog.n_items, dtype=np.int64)
    for e in events:
        counts[catalog.item_index(e.item) - 1] += 1
    return PopularityTable.from_counts(counts)


def exposure_sequences(events: list[Event], catalog: Catalog) -> list[list[int]]:
    """Per-user chronological exposure index sequences from an event subset."""
    per_user: dict[str, list[Event]] = {}
    for e in events:
        per_user.setdefault(e.user, []).append(e)
    seqs = []
    for user in catalog.user_ids:
        evs = sorted(per_user.get(user, []), key=lambda e: e.timestamp)
        if evs:
            seqs.append([catalog.item_index(e.item) for e in evs])
    return seqs


def check_no_leakage(events: list[Event], forbidden: list[Event]) -> None:
    bad = set(events) & set(forbidden)
    if bad:
        raise LeakageError(
            f"{len(bad)} training events also appear in the evaluation partition"
        )


def train_exposure_component(events: list[Event], catalog: Catalog, arch: str, *,
                             forbidden: list[Event] | None = None,
                             dim: int = 64, max_len: int = 200,
                             epochs: int = 10, lr: float = 0.005,
                             batch_size: int = 128, seed: int = 0) -> SeqModel:
    """Fit one frozen mixture component on next-exposed-item prediction."""
    from .dro import train_model  # local import to avoid a cycle

    if not events:
        raise ValueError("no exposure events to train on")
    if forbidden is not None:
        check_no_leakage(events, forbidden)
    seqs = exposure_sequences(events, catalog)
    mat = sequences_to_matrix(seqs, max_len)
    model = SeqModel(catalog.n_items, dim, max_len, arch, seed=seed,
                     fingerprint=catalog.fingerprint)
    train_model(model, mat, method="none", epochs=epochs, lr=lr,
                batch_size=batch_size, seed=seed)
    return model.freeze()


@dataclass
class ExposureSimulator:
    component_a: SeqModel      # attention scorer
    component_b: SeqModel      # recurrent scorer
    popularity: PopularityTable
    beta: float = 0.3
    prefix_len: int = 50       # interaction-prefix length at inference

    def __post_init__(self):
        self.component_a.freeze()
        self.component_b.freeze()
        self._pop_softmax = softmax(self.popularity.scores)

    @property
    def n_items(self) -> int:
        return self.component_a.n_items

    def _component_probs(self, model: SeqModel, seqs: np.ndarray) -> np.ndarray:
        H, _ = model.forward_states(seqs)
        return softmax(model.all_logits(H, "main"), axis=-1)

    def mu0_all_positions(self, seqs: np.ndarray) -> np.ndarray:
        """mu0 vectors for the prefix ending at every position of seqs.

        seqs is (B, T) left-padded interaction indices; output is
        (B, T, n_items).  Entries at pad positions are meaningless.
        """
        pa = self._component_probs(self.component_a, seqs)
        pb = self._component_probs(self.component_b, seqs)
        return pa + pb + self.beta * self._pop_softmax

    def mu0_vector(self, prefix) -> np.ndarray:
        """mu0 over the catalog for one interaction prefix (list of indices)."""
        arr = np.asarray(truncate_pad(list(prefix), self.prefix_len), dtype=np.int64)
        if not np.any(arr > 0):
            raise ValueError("empty interaction prefix")
        return self.mu0_all_positions(arr.reshape(1, -1))[0, -1]

    def mixture_score(self, prefix, item_index: int) -> float:
        if item_index <= 0 or item_index > self.n_items:
            raise ValueError(f"item index {item_index} outside catalog")
        return float(self.mu0_vector(prefix)[item_index - 1])

    def exposure_distribution(self, prefix) -> np.ndarray:
        """The nominal distribution q0 over the catalog for one prefix."""
        mu = self.mu0_vector(prefix)
        return mu / mu.sum()

    def q0_all_positions(self, seqs: np.ndarray) -> np.ndarray:
        mu = self.mu0_all_positions(seqs)
        return mu / mu.sum(axis=-1, keepdims=True)

    # ------------------------------------------------------------------

    def save(self, path) -> None:
        arrays = {}
        for prefix, comp in (("a__", self.component_a), ("b__", self.component_b)):
            for k, v in comp.params.items():
                arrays[prefix + k] = v
        arrays["pop_counts"] = self.popularity.counts
        save_params(path, arrays,
                    format_version=FORMAT_VERSION, beta=self.beta,
                    prefix_len=self.prefix_len,
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
                   beta=float(meta["beta"]),
                   prefix_len=int(meta["prefix_len"]))


def build_simulator(events: list[Event], catalog: Catalog, *,
                    forbidden: list[Event] | None = None,
                    dim: int = 64, max_len: int = 200, prefix_len: int = 50,
                    beta: float = 0.3, epochs: int = 10, lr: float = 0.005,
                    batch_size: int = 128, seed: int = 0) -> ExposureSimulator:
    """Train both components and assemble the frozen mixture simulator."""
    comp_a = train_exposure_component(events, catalog, "attention",
                                      forbidden=forbidden, dim=dim, max_len=max_len,
                                      epochs=epochs, lr=lr, batch_size=batch_size,
                                      seed=seed)
    comp_b = train_exposure_component(events, catalog, "recurrent",
                                      forbidden=forbidden, dim=dim, max_len=max_len,
                                      epochs=epochs, lr=lr, batch_size=batch_size,
                                      seed=seed + 1)
    pop = popularity_from(events, catalog)
    return ExposureSimulator(component_a=comp_a, component_b=comp_b,
                             popularity=pop, beta=beta, prefix_len=prefix_len)
