"""q0 built in row blocks against q0_all_positions over the whole matrix.

Every caller that needs q0 over a user matrix goes through
`ExposureSimulator.q0_blocks`; the results must equal the whole-matrix
computation bit for bit, since trained models and metrics rely on them.
"""

import numpy as np
import pytest

from drorec import baselines, exposure, pipeline
from drorec.config import ExperimentConfig
from drorec.data import sequences_to_matrix

BLOCK = 4   # small, so each caller's matrix spans several blocks and a partial one


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = tmp_path_factory.mktemp("q0run")
    cfg = ExperimentConfig(
        out_dir=str(out), n_users=100, n_items=25, latent_dim=4, slate_size=5,
        rounds=4, embedding_dim=8, expo_dim=8, lr=0.01, epochs=2,
        warmup_epochs=1, expo_epochs=1, batch_size=16, max_click_len=10,
        max_expo_len=24, k_list=(3, 5), seed=0, method="dro", a=0.5)
    log, _ = pipeline.simulate(cfg, out)
    data = pipeline.prepare(cfg, log)
    expo_sim, eval_sim = pipeline.train_exposure(cfg, out, data)
    return cfg, out, data, expo_sim, eval_sim


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(exposure, "Q0_BLOCK_ROWS", BLOCK)


def _partial(n_rows):
    assert n_rows > BLOCK and n_rows % BLOCK != 0
    return n_rows


def test_blocks_match_whole_matrix_at_shipped_block_size(run):
    _, _, data, sim, _ = run
    rng = np.random.default_rng(0)
    n = 2 * exposure.Q0_BLOCK_ROWS + 5
    prefixes = [rng.integers(1, data.log.catalog.n_items + 1,
                             size=rng.integers(1, 11)).tolist() for _ in range(n)]
    seqs = sequences_to_matrix(prefixes, 10)
    whole = sim.q0_all_positions(seqs)
    assert np.array_equal(sim.q0_blocks(seqs, lambda q0, _: q0[:, :-1]), whole[:, :-1])
    assert np.array_equal(sim.q0_blocks(seqs, lambda q0, _: q0[:, -1]), whole[:, -1])


def test_train_precompute_matches_whole_matrix(run, small_blocks, monkeypatch, tmp_path):
    cfg, _, data, sim, _ = run
    _partial(len(data.train_seqs))
    seen = {}
    monkeypatch.setattr(pipeline, "robust_finetune",
                        lambda model, config, d, q0_steps, log_path:
                        seen.setdefault("q0", q0_steps))
    pipeline.train_backbone(cfg, tmp_path, data, sim)
    whole = sim.q0_all_positions(data.train_seqs)[:, :-1, :]
    assert np.array_equal(seen["q0"], whole)


def test_for_steps_matches_whole_matrix(run, small_blocks):
    _, _, data, sim, _ = run
    seqs = data.train_seqs
    _partial(len(seqs))
    q0 = sim.q0_all_positions(seqs)
    B, T = seqs.shape
    targets = seqs[:, 1:]
    rho = q0[np.arange(B)[:, None], np.arange(T - 1)[None, :],
             np.clip(targets - 1, 0, None)]
    valid = (seqs[:, :-1] > 0) & (targets > 0)
    expected = np.where(valid, rho, 1.0)
    assert np.array_equal(baselines.PropensityProvider(sim).for_steps(seqs), expected)


def test_median_exposure_clip_matches_whole_matrix(run, small_blocks):
    cfg, _, data, sim, _ = run
    seqs = data.train_seqs
    rng = np.random.default_rng(cfg.seed)
    n = min(baselines.CLIP_PREFIXES, seqs.shape[0])
    _partial(n)
    pick = rng.choice(seqs.shape[0], size=n, replace=False)
    q0 = sim.q0_all_positions(seqs[pick])[:, -1, :]
    expected = float(np.median(q0.mean(axis=0)))
    assert baselines.median_exposure_clip(sim, seqs, seed=cfg.seed) == expected


def test_evaluate_rho_matches_whole_matrix(run, small_blocks, monkeypatch):
    cfg, out, data, _, eval_sim = run
    _partial(len(data.test_targets))
    seen = {}
    real = pipeline.evaluate_model

    def capture(model, prefixes, targets, rho, **kwargs):
        seen["rho"] = rho
        return real(model, prefixes, targets, rho, **kwargs)

    monkeypatch.setattr(pipeline, "evaluate_model", capture)
    model = pipeline._new_model(cfg, data)
    pipeline.evaluate(cfg, out, data, model, eval_sim)
    q0 = eval_sim.q0_all_positions(data.test_prefix_mat)[:, -1, :]
    expected = q0[np.arange(len(data.test_targets)), data.test_targets - 1]
    assert np.array_equal(seen["rho"], expected)
