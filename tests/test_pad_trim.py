"""batch_objective drops all-pad leading columns before the encoder runs.

The reference runs the same batch with k more leading pad columns through
an encoder that cannot trim them (it pads its own input by k columns), so
it computes exactly what the untrimmed objective did.  The recurrent
encoder must agree bit for bit; attention may differ only in the order of
floating-point sums.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drorec.dro import batch_objective
from drorec.model import SeqModel

N_ITEMS, DIM, K_MAX = 7, 4, 4
METHODS = ("none", "dro", "ips_c")


class WideEncoder(SeqModel):
    """Runs its encoder on ``k`` extra leading pad columns and records the
    width of each batch it is given."""

    def _wide(self, seqs):
        return np.pad(seqs, ((0, 0), (self.k, 0)))

    def forward_states(self, seqs):
        self.widths.append(seqs.shape[1])
        H, cache = super().forward_states(self._wide(seqs))
        return H[:, self.k:], cache

    def backward_states(self, cache, dH, seqs):
        dH = np.pad(dH, ((0, 0), (self.k, 0), (0, 0)))
        return super().backward_states(cache, dH, self._wide(seqs))


def _batch(lengths, T, seed):
    """Left-padded rows of the given lengths, with per-step negatives, q0
    and propensities.  A row of length T keeps the batch from being trimmed."""
    rng = np.random.default_rng(seed)
    seqs = np.zeros((len(lengths), T), dtype=np.int64)
    for row, m in enumerate(lengths):
        seqs[row, T - m:] = rng.integers(1, N_ITEMS + 1, size=m)
    negs = rng.integers(1, N_ITEMS + 1, size=(len(lengths), T - 1))
    q0 = rng.dirichlet(np.ones(N_ITEMS), size=(len(lengths), T - 1))
    prop = rng.uniform(0.05, 1.0, size=(len(lengths), T - 1))
    return seqs, negs, q0, prop


def _encoder(params, arch, T, k):
    model = WideEncoder.restore(params, arch=arch, n_items=N_ITEMS, dim=DIM,
                                max_len=T + K_MAX, fingerprint="")
    model.k, model.widths = k, []
    return model


def _both(arch, method, lengths, T, k, seed):
    """(trimmed, untrimmed) outputs for the batch given k leading pad columns,
    and the widths the trimming encoder was given."""
    seqs, negs, q0, prop = _batch(lengths, T, seed)
    base = SeqModel(N_ITEMS, DIM, T + K_MAX, arch, seed=seed)
    if method == "dro":
        base.add_dro_head()
    params = base.params
    model, wide = _encoder(params, arch, T, 0), _encoder(params, arch, T, k)
    kwargs = dict(method=method, a=0.7 if method == "dro" else 0.0,
                  clip=0.5 if method == "ips_c" else None)

    def lead(x, fill):
        return np.pad(x, ((0, 0), (k, 0)) + ((0, 0),) * (x.ndim - 2),
                      constant_values=fill)

    trimmed = batch_objective(model, lead(seqs, 0), lead(negs, 1),
                              q0_steps=lead(q0, 0.0), prop_steps=lead(prop, 1.0),
                              **kwargs)
    untrimmed = batch_objective(wide, seqs, negs, q0_steps=q0, prop_steps=prop,
                                **kwargs)
    return trimmed, untrimmed, model.widths


def _assert_same(arch, trimmed, untrimmed):
    assert trimmed["n_steps"] == untrimmed["n_steps"]
    pairs = [(np.array(trimmed[k]), np.array(untrimmed[k]))
             for k in ("loss_rec", "loss_dro", "loss_joint")]
    assert trimmed["grads"].keys() == untrimmed["grads"].keys()
    pairs += [(trimmed["grads"][k], untrimmed["grads"][k]) for k in trimmed["grads"]]
    for got, want in pairs:
        if arch == "recurrent":
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("arch", ["recurrent", "attention"])
def test_leading_pad_columns_change_nothing(arch, method):
    trimmed, untrimmed, widths = _both(arch, method, [6, 2, 4, 3], T=6, k=3, seed=5)
    assert widths == [6]
    assert trimmed["loss_dro"] > 0.0 or method != "dro"
    _assert_same(arch, trimmed, untrimmed)


@settings(max_examples=40, deadline=None)
@given(arch=st.sampled_from(["recurrent", "attention"]),
       method=st.sampled_from(METHODS),
       T=st.integers(2, 6),
       rest=st.lists(st.integers(0, 6), min_size=0, max_size=4),
       k=st.integers(1, K_MAX),
       seed=st.integers(0, 2**16))
def test_leading_pad_columns_property(arch, method, T, rest, k, seed):
    lengths = [T] + [min(m, T) for m in rest]
    trimmed, untrimmed, widths = _both(arch, method, lengths, T, k, seed)
    assert widths == [T]
    _assert_same(arch, trimmed, untrimmed)
