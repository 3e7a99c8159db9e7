"""Ranking metrics, SNIPS estimator and the debiasedness check."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drorec.evaluation import (MetricsReport, coverage, debiasedness_check,
                               evaluate_model, floor_propensities, metric_values,
                               snips_evaluate, target_ranks)
from drorec.model import SeqModel

SNIPS_TOL = 1e-12    # acceptance criterion 4's tolerance


@st.composite
def _snips_case(draw):
    """Per-user metric values in [0, 1] and positive propensities."""
    n = draw(st.integers(1, 50))
    c = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    rho = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    return c, rho


@settings(max_examples=200)
@given(_snips_case(), st.floats(0.0, 1.0), st.floats(1e-3, 1e3), st.randoms())
def test_snips_invariances_property(case, k, scale, random):
    c, rho = case
    value = snips_evaluate(c, rho, k)
    assert abs(snips_evaluate(c, scale * rho, k) - value) <= SNIPS_TOL
    perm = np.array(random.sample(range(len(c)), len(c)))
    assert abs(snips_evaluate(c[perm], rho[perm], k) - value) <= SNIPS_TOL
    assert snips_evaluate(c, rho, 0.0) == float(c.mean())


def test_metric_c_values():
    ranks = np.array([1, 3, 10, 11])
    np.testing.assert_array_equal(metric_values(ranks, 10, "recall"), [1.0, 1.0, 1.0, 0.0])
    np.testing.assert_allclose(metric_values(ranks, 10, "ndcg"),
                               [1.0, 1.0 / np.log2(4.0), 1.0 / np.log2(11.0), 0.0],
                               rtol=1e-15)
    with pytest.raises(ValueError):
        metric_values(ranks, 10, "mrr")


def test_metric_values_matches_scalar():
    ranks = np.random.default_rng(4).integers(1, 40, size=200)
    for k in (1, 5, 20):
        for kind, c in (("recall", lambda r: 1.0),
                        ("ndcg", lambda r: 1.0 / np.log2(r + 1.0))):
            expected = [c(r) if r <= k else 0.0 for r in ranks]
            np.testing.assert_array_equal(metric_values(ranks, k, kind), expected)


def test_rank_items_deterministic_ties():
    model = SeqModel(5, 4, 3, "recurrent", seed=0)
    model.params["emb"][1:] = 0.0  # all items tie at logit 0
    H, _ = model.forward_states(np.array([[0, 0, 1]] * 5))
    ranks = target_ranks(model.all_logits(H[:, -1, :], "main"), np.arange(1, 6))
    assert ranks.tolist() == [1, 2, 3, 4, 5]


def test_target_ranks_agree_with_full_ranking():
    model = SeqModel(12, 6, 4, "attention", seed=3)
    rng = np.random.default_rng(0)
    seqs = rng.integers(1, 13, size=(8, 4))
    targets = rng.integers(1, 13, size=8)
    H, _ = model.forward_states(seqs)
    logits = model.all_logits(H[:, -1, :], "main")
    logits[:, ::3] = 0.0        # ties, which rank the lower item index first
    ranks = target_ranks(logits, targets)
    for i in range(8):
        ranking = np.lexsort((np.arange(1, 13), -logits[i])) + 1
        assert ranking[ranks[i] - 1] == targets[i]


def test_k_above_the_model_catalog_rejected():
    """A top-13 list of a 12-item model would be its top 12 under @13."""
    model = SeqModel(12, 6, 4, "attention", seed=3)
    rng = np.random.default_rng(0)
    seqs = rng.integers(1, 13, size=(8, 4))
    targets = rng.integers(1, 13, size=8)
    kwargs = dict(snips_k=0.1, seed=0, config_hash="", revision="")
    report = evaluate_model(model, seqs, targets, np.full(8, 0.5), k_list=(3, 12), **kwargs)
    assert report.coverage[12] == 1.0
    with pytest.raises(ValueError, match="12 items"):
        evaluate_model(model, seqs, targets, np.full(8, 0.5), k_list=(3, 13), **kwargs)


def test_no_pairs_rejected():
    """With no held-out pair every metric would be the NaN of an empty mean."""
    model = SeqModel(12, 6, 4, "attention", seed=3)
    with pytest.raises(ValueError, match="no held-out"):
        evaluate_model(model, np.zeros((0, 4), dtype=np.int64), np.zeros(0, dtype=np.int64),
                       np.zeros(0), k_list=(3,), snips_k=0.1, seed=0, config_hash="",
                       revision="")


def test_coverage():
    rankings = [np.array([1, 2, 3]), np.array([3, 4, 5])]
    assert coverage(rankings, 2, 10) == pytest.approx(0.4)  # {1,2,3,4}
    assert coverage(rankings, 3, 5) == pytest.approx(1.0)
    # disjoint top-k lists covering the catalog hit the upper bound
    disjoint = [np.array([1, 2]), np.array([3, 4])]
    assert coverage(disjoint, 2, 4) == 1.0


def test_snips_k0_is_plain_mean():
    rng = np.random.default_rng(1)
    c = rng.random(50)
    rho = rng.uniform(0.01, 1.0, 50)
    assert snips_evaluate(c, rho, 0.0) == float(np.mean(c))


def test_snips_frozen_value():
    # weights 1/rho: [2, 8]; (2*1 + 8*0) / 10 = 0.2
    assert snips_evaluate(np.array([1.0, 0.0]),
                          np.array([0.5, 0.125]), 1.0) == pytest.approx(0.2)


def test_snips_rescaling_invariance():
    rng = np.random.default_rng(2)
    c = rng.random(30)
    rho = rng.uniform(0.01, 0.5, 30)
    base = snips_evaluate(c, rho, 0.3)
    for scale in (0.5, 2.0, 7.3):
        assert snips_evaluate(c, rho * scale, 0.3) == pytest.approx(base, rel=1e-12)


def test_snips_validates_inputs():
    with pytest.raises(ValueError):
        snips_evaluate(np.ones(2), np.array([0.5, 0.0]), 0.1)
    with pytest.raises(ValueError):
        snips_evaluate(np.ones(2), np.ones(2), 1.5)


def test_floor_propensities():
    rho, n = floor_propensities(np.array([0.5, 1e-9, 1e-6]))
    assert n == 1
    assert rho.min() == pytest.approx(1e-6)


def test_debiasedness_identity():
    rng = np.random.default_rng(3)
    c = rng.random((5, 8))
    rho = rng.uniform(0.2, 0.9, 8)
    rep = debiasedness_check(c, rho, k=1.0, trials=4000, seed=0)
    # k = 1: E[sum c/rho * O] = sum c exactly
    assert rep.exact == pytest.approx(float(c.sum()))
    assert rep.rel_deviation < 0.05


def test_metrics_report_serialization():
    rep = MetricsReport(values={"ndcg@10": {"naive": 0.1, "snips": 0.12}},
                        coverage={10: 0.5}, n_users=7, snips_k=0.1, seed=3)
    payload = json.loads(rep.to_json())
    assert payload["values"]["ndcg@10"]["snips"] == 0.12
    assert payload["coverage"]["10"] == 0.5
    csv_text = rep.to_csv()
    assert "ndcg,10,snips,0.12" in csv_text
