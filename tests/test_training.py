"""Training-loop behavior: determinism, logging, divergence guard."""

import json

import numpy as np
import pytest

from drorec.dro import NonFiniteLossError, train_model
from drorec.model import SeqModel

# the optimizer settings these tests were written against
OPT = dict(lr=0.005, beta2=0.999)


def _seqs(seed=0, n=16, t=6, n_items=9):
    rng = np.random.default_rng(seed)
    seqs = np.zeros((n, t), dtype=np.int64)
    for i in range(n):
        m = rng.integers(2, t + 1)
        seqs[i, t - m:] = rng.integers(1, n_items + 1, size=m)
    return seqs


def test_training_deterministic():
    seqs = _seqs()
    m1 = SeqModel(9, 6, 6, "recurrent", seed=3)
    m2 = SeqModel(9, 6, 6, "recurrent", seed=3)
    train_model(m1, seqs, epochs=2, seed=7, batch_size=8, **OPT)
    train_model(m2, seqs, epochs=2, seed=7, batch_size=8, **OPT)
    for k in m1.params:
        assert np.array_equal(m1.params[k], m2.params[k])


def test_training_log_jsonl(tmp_path):
    seqs = _seqs()
    model = SeqModel(9, 6, 6, "attention", seed=0)
    path = tmp_path / "log.jsonl"
    records = train_model(model, seqs, epochs=3, seed=0, batch_size=8,
                          log_path=path, **OPT)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    for i, line in enumerate(lines):
        rec = json.loads(line)
        assert rec["epoch"] == i
        assert np.isfinite(rec["loss_rec"])
        assert rec["loss_dro"] == 0.0                 # vanilla training
        assert rec["loss_joint"] == rec["loss_rec"]
        assert rec["seconds"] >= 0.0
    assert [r["loss_rec"] for r in records] == [
        json.loads(line)["loss_rec"] for line in lines]


def test_loss_decreases():
    seqs = _seqs(n=32)
    model = SeqModel(9, 8, 6, "recurrent", seed=1)
    records = train_model(model, seqs, epochs=8, seed=1, batch_size=16, **OPT)
    assert records[-1]["loss_rec"] < records[0]["loss_rec"]


def test_dro_training_finite_for_moderate_a():
    seqs = _seqs(n=12)
    rng = np.random.default_rng(0)
    q0 = rng.dirichlet(np.ones(9), size=(12, 5))
    for a in (0.01, 0.1, 1.0, 10.0):
        model = SeqModel(9, 6, 6, "attention", seed=2)
        records = train_model(model, seqs, method="dro", a=a, q0_steps=q0,
                              epochs=2, seed=2, batch_size=6, **OPT)
        for rec in records:
            assert np.isfinite(rec["loss_joint"])


def test_missing_inputs_rejected():
    seqs = _seqs()
    model = SeqModel(9, 6, 6, "recurrent", seed=0)
    fit = dict(epochs=10, batch_size=128, seed=0, **OPT)
    with pytest.raises(ValueError):
        train_model(model, seqs, method="dro", a=1.0, **fit)         # no q0
    with pytest.raises(ValueError):
        train_model(model, seqs, method="ips", **fit)                # no propensities
    with pytest.raises(ValueError):
        train_model(model, seqs, method="ips_c",
                    prop_steps=np.ones((16, 5)), **fit)              # no clip
    with pytest.raises(ValueError):
        train_model(model, seqs, method="dropout", **fit)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_divergence_raises():
    seqs = _seqs()
    model = SeqModel(9, 6, 6, "recurrent", seed=0)
    model.params["emb"][1:] = np.nan   # corrupt parameters poison the loss
    with pytest.raises(NonFiniteLossError):
        train_model(model, seqs, epochs=1, seed=0, batch_size=128, **OPT)
