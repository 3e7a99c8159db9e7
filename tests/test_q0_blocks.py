"""q0 built in row blocks against q0_all_positions over the whole matrix.

Every caller that needs q0 over a user matrix goes through
`ExposureSimulator.q0_blocks` or, for the robust phase's per-step q0,
`ExposureSimulator.step_q0`.  The former must equal the whole-matrix
computation bit for bit, since propensities and metrics rely on it; the
latter agrees with it to a relative 1e-14 (see its parity test), and its
memory must not grow with users x length x catalog.
"""

import dataclasses
import shutil
import tracemalloc

import numpy as np
import pytest

from drorec import baselines, exposure, pipeline
from drorec.config import ExperimentConfig
from drorec.data import sequences_to_matrix
from drorec.dro import _valid_steps

BLOCK = 4   # small, so each caller's matrix spans several blocks and a partial one


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = tmp_path_factory.mktemp("q0run")
    cfg = ExperimentConfig(
        out_dir=str(out), n_users=100, n_items=25, latent_dim=4, slate_size=5,
        rounds=4, embedding_dim=8, expo_dim=8, lr=0.01, epochs=2,
        warmup_epochs=1, expo_epochs=1, batch_size=16, max_click_len=10,
        max_expo_len=24, k_list=(3, 5), seed=0, method="dro", a=0.5)
    pipeline.simulate(cfg, out)
    expo_sim, eval_sim = pipeline.train_exposure(cfg, out)
    data = pipeline.prepare(cfg, pipeline.load_log(out))
    return cfg, out, data, expo_sim, eval_sim


def _copy(run, tmp_path):
    """A copy of the fixture's run directory, for a stage to write into."""
    return shutil.copytree(run[1], tmp_path / "run")


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
    assert np.array_equal(sim.q0_blocks(seqs, lambda q0, _: q0), whole)
    assert np.array_equal(sim.q0_blocks(seqs, lambda q0, _: q0[:, -1]), whole[:, -1])


@pytest.mark.parametrize("backbone", ["attention", "recurrent"])
def test_step_q0_matches_whole_matrix_at_valid_steps(run, small_blocks, monkeypatch,
                                                     tmp_path, backbone):
    """The per-step q0 each backbone's train stage hands the robust phase,
    indexed as `train_model` and `batch_objective` index it, against the
    whole-matrix q0 at a batch's valid steps.

    Not `np.array_equal`: OpenBLAS dgemm gives a row different bits
    depending on where that row sits in the call, and a batch's q0 rows
    are products over its gathered valid steps, where `q0_all_positions`
    multiplies (T, d) slices.  Neither 50-row chunks nor single gathered
    rows reproduce the slice products bit for bit.  The bit-exact
    alternative, a whole (B, T, n_items) q0 block for every batch, computes
    the q0 of the whole training matrix again in every robust epoch.
    """
    cfg, _, data, sim, _ = run
    _partial(len(data.train_seqs))
    seen = {}
    monkeypatch.setattr(pipeline, "robust_finetune",
                        lambda model, config, d, q0_steps, log_path:
                        seen.setdefault("q0", q0_steps))
    pipeline.train_backbone(dataclasses.replace(cfg, backbone=backbone),
                            _copy(run, tmp_path))

    # a batch whose leading column is pad in every row, as batch_objective trims
    idx = np.flatnonzero(data.train_seqs[:, 0] == 0)[::-1][:2 * BLOCK + 1]
    seqs = data.train_seqs[idx]
    first = int(np.argmax(seqs.any(axis=0)))
    assert first > 0
    valid = _valid_steps(seqs[:, first:])
    got = seen["q0"][idx][:, first:][valid]
    expected = sim.q0_all_positions(seqs)[:, :-1][:, first:][valid]
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)
    assert np.abs(got.sum(axis=1) - 1.0).max() < 1e-9   # criterion 1's tolerance


def test_robust_phase_memory_does_not_grow_with_users_x_length_x_catalog(tmp_path):
    """Traced peak of the robust phase, per-step q0 included, on N and 2N
    training rows: what the extra rows add must stay well below one
    N x (T-1) x n_items float64 tensor, the size of a q0 held per step."""
    cfg = ExperimentConfig(
        out_dir=str(tmp_path), n_users=60, n_items=200, latent_dim=4, slate_size=5,
        rounds=4, embedding_dim=8, expo_dim=4, epochs=2, warmup_epochs=1,
        expo_epochs=1, batch_size=16, max_click_len=20, max_expo_len=24,
        seed=0, method="dro", a=0.5)
    pipeline.simulate(cfg, tmp_path)
    data = pipeline.prepare(cfg, pipeline.load_log(tmp_path))
    sim = pipeline.fit_simulator(cfg, data)
    n, T, n_items = 8 * cfg.batch_size, cfg.max_click_len, data.log.catalog.n_items
    # full-length rows, so every batch has the same number of valid steps
    rows = np.random.default_rng(0).integers(1, n_items + 1, size=(2 * n, T))

    peaks = []
    for size in (n, 2 * n):
        sized = dataclasses.replace(data, train_seqs=rows[:size])
        model = pipeline._new_model(cfg, sized)
        tracemalloc.start()
        try:
            pipeline.robust_finetune(model, cfg, sized, sim.step_q0(sized.train_seqs))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    tensor = n * (T - 1) * n_items * 8
    assert peaks[1] - peaks[0] < tensor / 4, (peaks, tensor)


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


def test_evaluate_rho_matches_whole_matrix(run, small_blocks, monkeypatch, tmp_path):
    cfg, _, data, _, eval_sim = run
    _partial(len(data.test_targets))
    seen = {}
    real = pipeline.evaluate_model

    def capture(model, prefixes, targets, rho, **kwargs):
        seen["rho"] = rho
        return real(model, prefixes, targets, rho, **kwargs)

    monkeypatch.setattr(pipeline, "evaluate_model", capture)
    out = _copy(run, tmp_path)
    pipeline._new_model(cfg, data).save(out / pipeline.MODEL_FILE)
    pipeline.evaluate(cfg, out)
    q0 = eval_sim.q0_all_positions(data.test_prefix_mat)[:, -1, :]
    expected = q0[np.arange(len(data.test_targets)), data.test_targets - 1]
    assert np.array_equal(seen["rho"], expected)
