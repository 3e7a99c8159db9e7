"""Scorer lifecycle: heads, persistence, freezing, padding."""

import numpy as np
import pytest

from drorec import attention, gru
from drorec.data import Catalog, CatalogMismatchError
from drorec.model import SeqModel
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
    main = model.all_logits(states, "main")
    dro = model.all_logits(states, "dro")
    assert not np.array_equal(main, dro)
    model.params["W_dro"] += 1.0
    np.testing.assert_array_equal(model.all_logits(states, "main"), main)  # main path untouched
    assert not np.array_equal(model.all_logits(states, "dro"), dro)
    with pytest.raises(ValueError):
        model.all_logits(states, "other")


def test_realign_heads_copies_current_main_head():
    model = SeqModel(5, 4, 3, "attention", seed=2)
    model.params["W_main"] += 0.5
    assert not np.array_equal(model.params["W_dro"], model.params["W_main"])
    model.realign_heads()
    np.testing.assert_array_equal(model.params["W_dro"], model.params["W_main"])
    np.testing.assert_array_equal(model.params["b_dro"], model.params["b_main"])
    model.freeze()
    with pytest.raises(RuntimeError):
        model.realign_heads()


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
    _, dx = {"recurrent": gru, "attention": attention}[arch].backward(model.params, cache, dH)
    full = scatter_add_rows(seqs, dx, len(model.params["emb"]))
    full[0] = 0.0
    assert np.array_equal(grads["emb"], full)
