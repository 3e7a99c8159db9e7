"""Acceptance study: exact property suites plus the synthetic-world
directional experiments (debiasing, coverage, simulator quality,
overestimation penalty, and robustness-weight sanity).

Each criterion prints one PASS/FAIL line; `conftest.py` repeats them in
the terminal summary, so they are visible under pytest's output capture
too.  The multi-seed study behind criteria 6-10 runs once in a session
fixture, through the pipeline's own warm-start and robust fine-tune.
Its seeds, and those of criterion 8, are independent and run in a few
worker processes with one BLAS thread each, so the figures do not
depend on how many cores the machine has.
Every test here is marked ``slow``; ``pytest -m "not slow"`` skips them.
"""

import contextlib
import copy
import dataclasses
import multiprocessing
import os
import sys
import time
from collections import Counter

import numpy as np
import pytest

from drorec import pipeline
from drorec.config import ExperimentConfig
from drorec.data import sequences_to_matrix
from drorec.dro import batch_objective, dro_term, train_model
from drorec.evaluation import coverage, debiasedness_check, snips_evaluate
from drorec.exposure import build_simulators
from drorec.model import SeqModel
from drorec.nn import check_gradients, keep_freed_memory, sigmoid, softmax
from drorec.synthworld import (LoggingPolicy, generate_world, oracle_evaluate,
                               run_feedback_loop)

pytestmark = pytest.mark.slow

A_SMALL = (0.1, 1.0)
A_LARGE = (100.0, 1000.0)
SEEDS = (0, 1, 2, 3, 4)

# Worker processes for the per-seed runs: a few, so memory stays small
# (about 460 MB each).  Each gets one BLAS thread, since the workers
# already share the CPUs, and starts with the CLI's allocator policy
# (`keep_freed_memory`): freed numpy temporaries stay in its heap rather
# than going back to the OS and being faulted in again on every training
# step, which costs over a quarter of the step time.
WORKERS = min(3, len(SEEDS))
# far above the 6-12 minutes the study takes on one or two cores: this
# only ends a hang
MAP_TIMEOUT_S = 3600.0
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@contextlib.contextmanager
def _environ(values: dict):
    saved = {k: os.environ.get(k) for k in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def _map_seeds(fn, label: str) -> dict:
    """{seed: fn(seed)} over SEEDS, computed in fresh worker processes.

    Leaving the pool, also on an error or a timeout, terminates its
    workers, so a worker that hangs or dies cannot stall the test run.
    """
    deadline = time.monotonic() + MAP_TIMEOUT_S
    results = {}
    ctx = multiprocessing.get_context("spawn")
    with _environ(WORKER_ENV), ctx.Pool(WORKERS, initializer=keep_freed_memory) as pool:
        pending = {seed: pool.apply_async(fn, (seed,)) for seed in SEEDS}
        for seed, res in pending.items():
            results[seed] = res.get(timeout=max(0.0, deadline - time.monotonic()))
            print(f"{label} seed {seed} done", file=sys.__stdout__, flush=True)
    return results


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"CRITERION {num} ({label}): {'PASS' if ok else 'FAIL'} — {detail}"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. exposure-distribution exactness


def test_criterion_1_exposure_distribution_exactness():
    t0 = time.perf_counter()
    world = generate_world(60, 40, 4, seed=0)
    policy = LoggingPolicy(kind="model", slate_size=6, rounds=6)
    log = run_feedback_loop(world, policy, seed=0)
    cfg = ExperimentConfig(n_users=60, n_items=40, latent_dim=4,
                           slate_size=6, rounds=6)
    data = pipeline.prepare(cfg, log)
    sim = build_simulators([(data.expo_part, data.eval_part, 0)],
                           dim=8, max_len=40, beta=cfg.beta,
                           epochs=1, lr=cfg.lr, batch_size=128)[0]

    rng = np.random.default_rng(123)
    prefixes = []
    for _ in range(1000):
        m = int(rng.integers(1, 11))
        prefixes.append(list(rng.integers(1, 41, size=m)))
    mat = sequences_to_matrix(prefixes, 12)
    mu0 = sim.mu0_all_positions(mat)[:, -1, :]
    q0 = mu0 / mu0.sum(axis=1, keepdims=True)

    mu_err = float(np.abs(mu0.sum(axis=1) - (2.0 + cfg.beta)).max())
    q_err = float(np.abs(q0.sum(axis=1) - 1.0).max())
    dt = time.perf_counter() - t0
    _verdict(1, "exposure exactness",
             mu_err < 1e-9 and q_err < 1e-9 and dt < 10.0,
             f"max |sum mu0 - (2+beta)| = {mu_err:.2e}, "
             f"max |sum q0 - 1| = {q_err:.2e} over 1000 prefixes; "
             f"{dt:.1f}s (budget 10s)")


# ---------------------------------------------------------------------------
# 2. robust-loss dual properties


def _kl(q: np.ndarray, q0: np.ndarray) -> float:
    return float(np.sum(q * np.log(q / q0)))


def _kl_project(p: np.ndarray, q0: np.ndarray, eta: float) -> np.ndarray:
    """Bregman (KL) projection of p onto {q : KL(q||q0) <= eta}.

    The projection interpolates in the exponential family:
    q(mu) ~ p^(1/(1+mu)) * q0^(mu/(1+mu)) with multiplier mu >= 0.
    """
    p = p / p.sum()
    if _kl(p, q0) <= eta:
        return p
    logp, logq0 = np.log(p), np.log(q0)

    def q_of(mu):
        t = 1.0 / (1.0 + mu)
        logq = t * logp + (1.0 - t) * logq0
        q = np.exp(logq - logq.max())
        return q / q.sum()

    hi = 1.0
    while _kl(q_of(hi), q0) > eta:
        hi *= 2.0
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _kl(q_of(mid), q0) > eta:
            lo = mid
        else:
            hi = mid
    return q_of(hi)


def _pg_maximize(q0: np.ndarray, risks: np.ndarray, eta: float,
                 iters: int = 100, step: float = 1.0) -> np.ndarray:
    """Projected (mirror-ascent) maximizer of E_q[risks] s.t. KL(q||q0)<=eta."""
    q = q0.copy()
    for _ in range(iters):
        q = _kl_project(q * np.exp(step * risks), q0, eta)
    return q


def test_criterion_2_dro_dual_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    bound_err = 0.0
    mean_gap_min = np.inf
    eq_err = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 21))
        q0 = rng.dirichlet(np.ones(n))
        risks = rng.uniform(0.0, 1.0, size=n)
        val = dro_term(q0, risks)[0]
        bound_err = max(bound_err, risks.min() - val, val - risks.max())
        mean_gap_min = min(mean_gap_min, val - float(q0 @ risks))
        const = float(rng.uniform())
        cval = dro_term(q0, np.full(n, const))[0]
        eq_err = max(eq_err, abs(cval - const))
    ok_bounds = bound_err <= 1e-10 and mean_gap_min >= -1e-10 and eq_err <= 1e-10

    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        q0 = rng.dirichlet(np.ones(n))
        risks = rng.uniform(0.0, 1.0, size=n)
        qstar = q0 * np.exp(risks)
        qstar /= qstar.sum()
        eta = _kl(qstar, q0)
        q = _pg_maximize(q0, risks, eta)
        worst = max(worst, abs(float(q @ risks) - float(qstar @ risks)))
    dt = time.perf_counter() - t0
    _verdict(2, "robust dual", ok_bounds and worst < 1e-4 and dt < 60.0,
             f"bound violation {bound_err:.1e}, min gap {mean_gap_min:.1e}, "
             f"constant-risk error {eq_err:.1e}; projected-gradient "
             f"maximizer worst gap {worst:.2e} over 200 instances; "
             f"{dt:.1f}s (budget 60s)")


# ---------------------------------------------------------------------------
# 3. gradient integrity


def test_criterion_3_gradient_integrity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    seqs = np.array([[0, 1, 3, 2], [0, 0, 4, 5], [1, 2, 3, 4]])
    negs = np.array([[2, 5, 6], [1, 2, 3], [5, 6, 1]])
    q0 = rng.dirichlet(np.ones(6), size=(3, 3))
    worst = 0.0
    for arch in ("recurrent", "attention"):
        model = SeqModel(6, 8, 4, arch, seed=1)

        def joint_loss_fn(p):
            out = batch_objective(model, seqs, negs, method="dro", a=0.7,
                                  q0_steps=q0)
            return out["loss_joint"]

        def joint_grad_fn(p):
            return batch_objective(model, seqs, negs, method="dro", a=0.7,
                                   q0_steps=q0)["grads"]

        def bce_loss_fn(p):
            return batch_objective(model, seqs, negs, method="none")["loss_joint"]

        def bce_grad_fn(p):
            return batch_objective(model, seqs, negs, method="none")["grads"]

        worst = max(worst, check_gradients(joint_loss_fn, joint_grad_fn,
                                           model.params, n_coords=120, seed=2))
        worst = max(worst, check_gradients(bce_loss_fn, bce_grad_fn,
                                           model.params, n_coords=120, seed=3))
    dt = time.perf_counter() - t0
    _verdict(3, "gradient integrity", worst < 1e-4 and dt < 60.0,
             f"max relative error {worst:.2e} across encoder/head/BCE/joint "
             f"checks on both backbones; {dt:.1f}s (budget 60s)")


# ---------------------------------------------------------------------------
# 4. SNIPS correctness


def test_criterion_4_snips_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    c = rng.random(40)
    rho = rng.uniform(0.05, 1.0, size=40)
    exact_mean = snips_evaluate(c, rho, 0.0) == float(c.mean())
    rescale = abs(snips_evaluate(c, rho, 0.7)
                  - snips_evaluate(c, 3.7 * rho, 0.7)) < 1e-12

    c_matrix = (rng.random((20, 30)) < 0.2) * rng.random((20, 30))
    rho_items = rng.uniform(0.05, 0.9, size=30)
    rep = debiasedness_check(c_matrix, rho_items, k=1.0, trials=10_000,
                             seed=0, se_points=(1000,))
    se_ratio = rep.se_by_trials[1000] / rep.se_by_trials[10_000]
    dt = time.perf_counter() - t0
    ok = (exact_mean and rescale and rep.rel_deviation < 0.02
          and se_ratio >= 3.0 and dt < 60.0)
    _verdict(4, "SNIPS", ok,
             f"k=0 equals mean: {exact_mean}; rescale-invariant: {rescale}; "
             f"MC deviation {rep.rel_deviation:.4f} (<0.02); "
             f"SE shrink 1k->10k = {se_ratio:.2f}x (>=3); "
             f"{dt:.1f}s (budget 60s)")


# ---------------------------------------------------------------------------
# 5. reduction tests


def test_criterion_5_reductions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    n_items, T = 12, 8
    seqs = np.zeros((30, T), dtype=np.int64)
    for i in range(30):
        m = int(rng.integers(2, T + 1))
        seqs[i, T - m:] = rng.integers(1, n_items + 1, size=m)
    ones = np.ones((30, T - 1))

    def fresh():
        return SeqModel(n_items, 8, T, "attention", seed=4)

    vanilla = fresh()
    fit = dict(epochs=3, seed=9, lr=0.005, batch_size=128, beta2=0.999)
    train_model(vanilla, seqs, method="none", **fit)

    exact = {}
    runs = {
        "dro a=0": dict(method="dro", a=0.0),
        "ips rho=1": dict(method="ips", prop_steps=ones),
        "ips_c rho=1": dict(method="ips_c", prop_steps=ones, clip=1.0),
        "relmf rho=1": dict(method="relmf", prop_steps=ones),
    }
    for label, kwargs in runs.items():
        m = fresh()
        train_model(m, seqs, **fit, **kwargs)
        exact[label] = all(np.array_equal(m.params[k], vanilla.params[k])
                           for k in vanilla.params)
    dt = time.perf_counter() - t0
    _verdict(5, "reductions", all(exact.values()) and dt < 120.0,
             "bit-for-bit vs vanilla: "
             + ", ".join(f"{k}: {v}" for k, v in exact.items())
             + f"; {dt:.1f}s (budget 120s)")


# ---------------------------------------------------------------------------
# 6-10. synthetic-world study


@pytest.fixture(scope="session")
def study():
    """5-seed feedback-loop study: one world + simulator per seed, a
    shared plain warm-up phase, then one robust fine-tune per weight a.

    All weights branch off the same warmed-up model, so within a seed
    the arms differ only through the robust term — a paired comparison.
    """
    return _map_seeds(_study_seed, "study")


def _study_seed(seed: int) -> dict:
    """One seed of the study: {a: its figures} for every weight a."""
    cfg = ExperimentConfig(seed=seed)
    world = generate_world(cfg.n_users, cfg.n_items, cfg.latent_dim, seed)
    policy = LoggingPolicy(kind=cfg.policy, slate_size=cfg.slate_size,
                           rounds=cfg.rounds)
    log = run_feedback_loop(world, policy, seed=seed)
    data = pipeline.prepare(cfg, log)
    cat = log.catalog

    prefixes, uids, henc_rows = [], [], []
    for u, (s, shown) in enumerate(zip(log.item_sequences(clicks=True),
                                       log.item_sequences(clicks=False))):
        if len(s) < 2:
            continue
        prefixes.append(s[:-1])
        uids.append(u)
        expo = Counter(shown)
        clicked = set(s)
        henc_rows.append([i for i, n in expo.items() if n >= 3 and i not in clicked])
    pre_mat = sequences_to_matrix(prefixes, cfg.max_click_len)

    sim = pipeline.fit_simulator(cfg, data)
    q0 = sim.step_q0(data.train_seqs)
    base = pipeline.warm_start(cfg, data)

    row = {}
    for a in (0.0,) + A_SMALL + A_LARGE:
        model = copy.deepcopy(base)
        pipeline.robust_finetune(model, dataclasses.replace(cfg, a=a), data, q0)
        H, _ = model.forward_states(pre_mat)
        states = H[:, -1, :]
        logits = model.all_logits(states, "main")
        order = np.argsort(-logits, axis=1, kind="stable") + 1
        y_dro = sigmoid(model.all_logits(states, "dro"))
        henc_scores = [y_dro[i, v - 1]
                       for i, row_items in enumerate(henc_rows)
                       for v in row_items]
        row[a] = {
            "ndcg10": oracle_evaluate(model, world, prefixes, uids, 10, "ndcg"),
            "ndcg20": oracle_evaluate(model, world, prefixes, uids, 20, "ndcg"),
            "cov20": coverage(order, 20, cat.n_items),
            "y_henc": float(np.mean(henc_scores)),
        }
    return row


def _simulator_recalls(cfg, data, sim):
    """Held-out next-exposure Recall@10 of the mixture vs each component.

    Teacher-forced: each held-out exposure position is predicted from
    the full exposure history before it.  A set-based recall is
    degenerate here — the popular slate core puts the same items in
    every scorer's top-10 — whereas next-exposure prediction rewards
    modeling the within-slate ordering, which only the sequential
    components can condition on.
    """
    first = data.expo_part.item_sequences(clicks=False)
    later = data.eval_part.item_sequences(clicks=False)
    # users in order of their first exposure, ties in catalog order
    by_time = np.argsort(data.expo_part.time, kind="stable")
    users = [u for u in dict.fromkeys(data.expo_part.user[by_time].tolist())
             if later[u]]
    seqs = [first[u] + later[u] for u in users]
    mat = sequences_to_matrix([s[:cfg.max_expo_len] for s in seqs], cfg.max_expo_len)
    pad = np.array([max(0, cfg.max_expo_len - len(s)) for s in seqs])
    cuts = np.array([min(len(first[u]), cfg.max_expo_len) for u in users])

    Ha, _ = sim.component_a.forward_states(mat)
    Hb, _ = sim.component_b.forward_states(mat)
    pop = sim._pop_softmax
    hits: dict[str, list[float]] = {n: [] for n in
                                    ("mixture", "attention", "recurrent",
                                     "popularity")}
    for i in range(len(users)):
        # held-out region: positions pad+cut-1 .. T-2 each predict the
        # exposure at the next position
        t0 = pad[i] + cuts[i]
        sl = slice(t0 - 1, mat.shape[1] - 1)
        pa = softmax(sim.component_a.all_logits(Ha[i, sl], "main"), axis=-1)
        pb = softmax(sim.component_b.all_logits(Hb[i, sl], "main"), axis=-1)
        nxt = mat[i, t0:]
        for name, s in (("mixture", pa + pb + cfg.beta * pop),
                        ("attention", pa), ("recurrent", pb),
                        ("popularity", np.broadcast_to(pop, pa.shape))):
            top = np.argsort(-s, axis=1, kind="stable")[:, :10] + 1
            hits[name].append(float(np.mean([v in set(row)
                                             for v, row in zip(nxt, top)])))
    return {name: float(np.mean(vals)) for name, vals in hits.items()}


def test_criterion_6_directional_debiasing(study):
    details, ok = [], True
    for a in A_SMALL:
        wins = sum(study[s][a]["ndcg10"] > study[s][0.0]["ndcg10"]
                   for s in SEEDS)
        mean_dro = np.mean([study[s][a]["ndcg10"] for s in SEEDS])
        mean_van = np.mean([study[s][0.0]["ndcg10"] for s in SEEDS])
        ok = ok and mean_dro > mean_van and wins >= 4
        details.append(f"a={a:g}: mean {mean_dro:.5f} vs vanilla "
                       f"{mean_van:.5f}, wins {wins}/5")
    _verdict(6, "directional debiasing", ok, "; ".join(details))


def test_criterion_7_directional_coverage(study):
    # the robust model under comparison is the shipped default weight
    a = ExperimentConfig().a
    wins = sum(study[s][a]["cov20"] >= study[s][0.0]["cov20"] for s in SEEDS)
    _verdict(7, "directional coverage", wins >= 4,
             f"coverage@20 (a={a:g}) >= vanilla on {wins}/5 seeds")


def test_criterion_8_simulator_quality():
    # mixture vs each single trained component (attention-only and
    # recurrent-only scorers).  The log comes from the popularity-skewed
    # sampling policy: its stochastic slates give the scorers genuinely
    # different rankings, whereas the near-deterministic model-policy
    # slates make every scorer produce the same top-10.
    t0 = time.perf_counter()
    wins = {"attention": 0, "recurrent": 0}
    mixes = []
    for rec in _map_seeds(_simulator_seed, "simulator").values():
        mixes.append(rec["mixture"])
        for single in wins:
            wins[single] += rec["mixture"] > rec[single]
    dt = time.perf_counter() - t0
    ok = all(w >= 4 for w in wins.values()) and dt < 600.0
    _verdict(8, "simulator quality", ok,
             f"held-out exposure Recall@10 (mixture mean {np.mean(mixes):.4f}); "
             + "; ".join(f"mixture > {k} on {w}/5 seeds"
                         for k, w in wins.items())
             + f"; {dt:.0f}s (budget 600s)")


def _simulator_seed(seed: int) -> dict:
    """Held-out recalls of one seed's simulator on a popularity-policy log."""
    cfg = ExperimentConfig(seed=seed)
    world = generate_world(cfg.n_users, cfg.n_items, cfg.latent_dim, seed)
    policy = LoggingPolicy(kind="popularity", slate_size=cfg.slate_size,
                           rounds=cfg.rounds)
    log = run_feedback_loop(world, policy, seed=seed)
    data = pipeline.prepare(cfg, log)
    return _simulator_recalls(cfg, data, pipeline.fit_simulator(cfg, data))


def test_criterion_9_overestimation_penalty(study):
    y_dro = np.mean([study[s][1.0]["y_henc"] for s in SEEDS])
    y_van = np.mean([study[s][0.0]["y_henc"] for s in SEEDS])
    _verdict(9, "overestimation penalty", y_dro < y_van,
             f"mean robust-head score on high-exposure-never-clicked items: "
             f"{y_dro:.4f} (a=1) vs {y_van:.4f} (a=0)")


def test_criterion_10_hyperparameter_sanity(study):
    # per-seed comparison of the two weight sets: mean NDCG@20 over
    # a in {100, 1000} must fall below mean NDCG@20 over a in {0.1, 1}
    gaps = []
    for s in SEEDS:
        big = np.mean([study[s][a]["ndcg20"] for a in A_LARGE])
        small = np.mean([study[s][a]["ndcg20"] for a in A_SMALL])
        gaps.append(big - small)
    wins = sum(g < 0 for g in gaps)
    big_mean = np.mean([study[s][a]["ndcg20"] for s in SEEDS for a in A_LARGE])
    small_mean = np.mean([study[s][a]["ndcg20"] for s in SEEDS for a in A_SMALL])
    _verdict(10, "hyperparameter sanity", wins >= 4,
             f"NDCG@20 at a in {{100, 1000}} below a in {{0.1, 1}} on "
             f"{wins}/5 seeds (per-seed gaps "
             + ", ".join(f"{g:+.5f}" for g in gaps)
             + f"; means {big_mean:.5f} vs {small_mean:.5f})")
