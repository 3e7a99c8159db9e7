"""Scorer lifecycle: heads, persistence, freezing, padding."""

import numpy as np
import pytest

from drorec import attention, gru
from drorec.data import Catalog, CatalogMismatchError
from drorec.model import FrozenModelError, SeqModel
from drorec.nn import scatter_add_rows, sigmoid


@pytest.mark.parametrize("arch", ["recurrent", "attention"])
def test_save_load_bit_exact(tmp_path, arch):
    model = SeqModel(7, 6, 5, arch, seed=11)
    path = tmp_path / "model.npz"
    model.save(path)
    loaded = SeqModel.load(path)
    assert loaded.arch == arch
    assert loaded.n_items == 7 and loaded.dim == 6 and loaded.max_len == 5
    for k, v in model.params.items():
        assert np.array_equal(loaded.params[k], v)
    seqs = np.array([[0, 0, 1, 2, 3], [4, 5, 6, 7, 1]])
    np.testing.assert_array_equal(loaded.forward_states(seqs)[0],
                                  model.forward_states(seqs)[0])


def test_checkpoint_checked_against_catalog(tmp_path):
    catalog = Catalog(["u0"], [f"i{j}" for j in range(7)])
    model = SeqModel(7, 6, 5, "recurrent", fingerprint=catalog.fingerprint)
    path = tmp_path / "model.npz"
    model.save(path)
    assert SeqModel.load(path, catalog).fingerprint == catalog.fingerprint
    other = Catalog(["u0"], [f"i{j}" for j in (1, 0, 2, 3, 4, 5, 6)])
    with pytest.raises(CatalogMismatchError, match=other.fingerprint):
        SeqModel.load(path, other)
    SeqModel(7, 6, 5, "recurrent").save(path)        # no catalog recorded
    with pytest.raises(CatalogMismatchError, match="unrecorded"):
        SeqModel.load(path, catalog)


def _last_states(model, seqs):
    H, _ = model.forward_states(np.asarray(seqs))
    return H[:, -1, :]


def test_heads_are_independent_layers():
    model = SeqModel(5, 4, 3, "attention", seed=2)
    states = _last_states(model, [[0, 1, 2]])
    with pytest.raises(ValueError, match="no 'dro' head"):
        model.all_logits(states, "dro")             # a new model has the main head only
    model.add_dro_head()
    main = model.all_logits(states, "main")
    np.testing.assert_array_equal(model.all_logits(states, "dro"), main)
    model.params["W_dro"] += 1.0
    np.testing.assert_array_equal(model.all_logits(states, "main"), main)  # main path untouched
    assert not np.array_equal(model.all_logits(states, "dro"), main)
    with pytest.raises(ValueError):
        model.all_logits(states, "other")


def test_add_dro_head_copies_current_main_head():
    model = SeqModel(5, 4, 3, "attention", seed=2)
    assert not {"W_dro", "b_dro"} & model.params.keys()
    model.params["W_main"] += 0.5
    model.params["b_main"] += 0.25
    model.add_dro_head()
    for layer in ("W", "b"):
        dro, main = model.params[f"{layer}_dro"], model.params[f"{layer}_main"]
        np.testing.assert_array_equal(dro, main)
        assert not np.shares_memory(dro, main)      # a copy, not the main head itself
    frozen = SeqModel(5, 4, 3, "attention", seed=2).freeze()
    with pytest.raises(FrozenModelError):
        frozen.add_dro_head()
    assert not {"W_dro", "b_dro"} & frozen.params.keys()


def test_score_range_and_probability():
    model = SeqModel(5, 4, 3, "recurrent", seed=3)
    logits = model.all_logits(_last_states(model, [[0, 1, 2], [3, 4, 5]]), "main")
    assert logits.shape == (2, 5)
    probs = sigmoid(logits)
    assert np.all((probs > 0.0) & (probs < 1.0))


def test_pad_embedding_stays_zero():
    model = SeqModel(5, 4, 3, "attention", seed=4)
    assert np.all(model.params["emb"][0] == 0.0)


def test_frozen_model_rejects_training():
    from drorec.dro import train_model
    model = SeqModel(5, 4, 4, "recurrent", seed=5)
    model.freeze()
    seqs = np.array([[0, 1, 2, 3]])
    with pytest.raises(RuntimeError):
        train_model(model, seqs, epochs=1, lr=0.005, batch_size=128, seed=0,
                    beta2=0.999)


def test_all_logits_matches_score():
    # every item's logit is its embedding against the head-transformed state
    model = SeqModel(6, 4, 4, "attention", seed=6)
    state = _last_states(model, [[0, 0, 2, 4]])[0]
    logits = model.all_logits(state, "main")
    assert logits.shape == (6,)
    g = state @ model.params["W_main"] + model.params["b_main"]
    for v in range(1, 7):
        assert logits[v - 1] == pytest.approx(float(model.params["emb"][v] @ g))


def test_left_padding_equivalent_to_short_prefix():
    # a prefix padded to max_len must encode like the same items alone
    model = SeqModel(6, 4, 8, "attention", seed=7)
    a = _last_states(model, [[0, 0, 0, 0, 0, 1, 2, 3]])
    b = _last_states(model, [[0, 1, 2, 3]])
    np.testing.assert_allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("arch", ["recurrent", "attention"])
def test_embedding_scatter_skips_pad_bit_for_bit(arch):
    """Pad entries add only to row 0, which backward_states zeroes, so
    leaving them out of the scatter changes no bit of any other row."""
    model = SeqModel(9, 6, 7, arch, seed=5)
    rng = np.random.default_rng(1)
    seqs = rng.integers(1, 10, size=(4, 7))
    seqs[0] = 0                       # all pad
    seqs[1, :3] = 0
    seqs[2, :6] = 0
    H, cache = model.forward_states(seqs)
    dH = rng.standard_normal(H.shape)
    grads = model.backward_states(cache, dH, seqs)
    _, cache = model.forward_states(seqs)      # the backward pass consumed the first cache
    encoder = {"recurrent": gru, "attention": attention}[arch]
    _, dx = encoder.backward(model.params, cache, dH, model.params["emb"][seqs])
    full = scatter_add_rows(seqs, dx, len(model.params["emb"]))
    full[0] = 0.0
    assert np.array_equal(grads["emb"], full)


def _arrays(value):
    """The arrays in a cache value: an array, or a list of per-step arrays."""
    return value if isinstance(value, list) else [value]


@pytest.mark.parametrize("arch", ["recurrent", "attention"])
def test_forward_cache_holds_no_copy_of_the_input(arch):
    """`backward_states` gathers the embedded input again, so the cache
    holds only the encoder's own arrays: per-step gates and states (four
    (B, T, d) arrays) and the mask in the recurrent one; projections,
    attention output, residual and relu output (six) and the attention
    weights in the attention one.  A cache that kept the input, or the
    input plus positions, would hold one more (B, T, d) array."""
    B, T, d = 6, 9, 4
    model = SeqModel(11, d, T, arch, seed=2)
    seqs = np.random.default_rng(3).integers(1, 12, size=(B, T))
    _, cache = model.forward_states(seqs)
    bases = {}
    for value in cache.values():
        for a in _arrays(value):
            base = a if a.base is None else a.base
            bases[id(base)] = base.nbytes
    array = B * T * d * 8
    if arch == "recurrent":
        assert sum(bases.values()) == 4 * array + B * T * 8
    else:
        assert sum(bases.values()) == 6 * array + B * attention.N_HEADS * T * T * 8
