"""Scorer lifecycle: heads, persistence, freezing, empty input."""

import numpy as np
import pytest

from drorec.data import Catalog, CatalogMismatchError
from drorec.model import EmptySequenceError, SeqModel
from drorec.nn import sigmoid


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
    seq = [0, 0, 1, 2, 3]
    np.testing.assert_array_equal(loaded.encode(seq), model.encode(seq))


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


def test_encode_rejects_all_pad():
    model = SeqModel(4, 3, 4, "recurrent", seed=0)
    with pytest.raises(EmptySequenceError):
        model.encode([0, 0, 0, 0])


def test_heads_are_independent_layers():
    model = SeqModel(5, 4, 3, "attention", seed=2)
    state = model.encode([0, 1, 2])
    main = model.score(state, 3, "main")
    dro = model.score(state, 3, "dro")
    assert main != dro
    model.params["W_dro"] += 1.0
    assert model.score(state, 3, "main") == main       # main path untouched
    assert model.score(state, 3, "dro") != dro
    with pytest.raises(ValueError):
        model.score(state, 3, "other")


def test_aligned_heads_start_identical():
    model = SeqModel(5, 4, 3, "attention", seed=2, align_heads=True)
    np.testing.assert_array_equal(model.params["W_dro"], model.params["W_main"])
    model.params["W_dro"] += 1.0       # still separate arrays afterwards
    assert not np.array_equal(model.params["W_dro"], model.params["W_main"])


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
    state = model.encode([0, 1, 2])
    logit = model.score(state, 2, "main")
    prob = sigmoid(np.array([logit]))[0]
    assert 0.0 < prob < 1.0
    with pytest.raises(ValueError):
        model.score(state, 0)
    with pytest.raises(ValueError):
        model.score(state, 6)


def test_pad_embedding_stays_zero():
    model = SeqModel(5, 4, 3, "attention", seed=4)
    assert np.all(model.params["emb"][0] == 0.0)


def test_frozen_model_rejects_training():
    from drorec.dro import train_model
    model = SeqModel(5, 4, 4, "recurrent", seed=5)
    model.freeze()
    seqs = np.array([[0, 1, 2, 3]])
    with pytest.raises(RuntimeError):
        train_model(model, seqs, epochs=1)


def test_all_logits_matches_score():
    model = SeqModel(6, 4, 4, "attention", seed=6)
    state = model.encode([0, 0, 2, 4])
    logits = model.all_logits(state, "main")
    assert logits.shape == (6,)
    for v in range(1, 7):
        assert logits[v - 1] == pytest.approx(model.score(state, v, "main"))


def test_left_padding_equivalent_to_short_prefix():
    # a prefix padded to max_len must encode like the same items alone
    model = SeqModel(6, 4, 8, "attention", seed=7)
    a = model.encode([0, 0, 0, 0, 0, 1, 2, 3])
    b = model.encode([0, 1, 2, 3])
    np.testing.assert_allclose(a, b, atol=1e-12)
