"""The benchmark's own checks: they pass on real outputs, reject broken
ones, and the oracle NDCG agrees with brute-force enumeration."""

from __future__ import annotations

import json
import math
import shutil

import numpy as np
import pytest

import checks
from drorec import pipeline
from drorec.config import ExperimentConfig
from drorec.data import sequences_to_matrix
from drorec.model import SeqModel
from drorec.synthworld import GroundTruthWorld

TINY = dict(n_users=40, n_items=40, rounds=10, slate_size=5, policy="uniform",
            method="dro", epochs=2, warmup_epochs=1, expo_epochs=1,
            embedding_dim=8, expo_dim=8, max_click_len=10, max_expo_len=20,
            batch_size=16, seed=3)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    cfg = ExperimentConfig(out_dir=str(out), **TINY)
    pipeline.simulate(cfg, out)
    # the stages after simulate read events.tsv, as the CLI does
    data = pipeline.prepare(cfg, pipeline.load_log(out))
    expo_sim, eval_sim = pipeline.train_exposure(cfg, out, data)
    model = pipeline.train_backbone(cfg, out, data, expo_sim)
    pipeline.evaluate(cfg, out, data, model, eval_sim)
    return cfg, out, checks.read_events(out / "events.tsv")


@pytest.fixture
def copy_of(tiny_run, tmp_path):
    _, out, _ = tiny_run
    dest = tmp_path / "run"
    shutil.copytree(out, dest)
    return dest


def test_checks_pass_on_real_outputs(tiny_run):
    cfg, out, ev = tiny_run
    checks.check_events(ev, cfg.n_users, cfg.rounds, cfg.slate_size)
    checks.check_pop_counts(ev, out, cfg.expo_fraction)
    checks.check_q0(ev, out, cfg.beta, cfg.max_click_len, cfg.seed)
    checks.check_model(out)
    checks.check_metrics(ev, out, cfg)
    checks.check_oracle(checks.oracle_scores(ev, out, cfg.max_click_len))


def test_events_check_rejects_a_dropped_exposure_line(tiny_run, copy_of):
    cfg, _, _ = tiny_run
    lines = (copy_of / "events.tsv").read_text().splitlines(keepends=True)
    drop = next(i for i, line in enumerate(lines) if line.rstrip().endswith("exposure"))
    (copy_of / "events.tsv").write_text("".join(lines[:drop] + lines[drop + 1:]))
    with pytest.raises(checks.CheckFailed, match="exposures"):
        checks.check_events(checks.read_events(copy_of / "events.tsv"),
                            cfg.n_users, cfg.rounds, cfg.slate_size)


def test_pop_counts_check_rejects_swapped_simulators(tiny_run, copy_of):
    cfg, _, ev = tiny_run
    (copy_of / "expo_sim.npz").rename(copy_of / "tmp.npz")
    (copy_of / "eval_sim.npz").rename(copy_of / "expo_sim.npz")
    (copy_of / "tmp.npz").rename(copy_of / "eval_sim.npz")
    with pytest.raises(checks.CheckFailed, match="pop_counts"):
        checks.check_pop_counts(ev, copy_of, cfg.expo_fraction)


def test_model_check_rejects_shuffled_embedding_rows(copy_of):
    with np.load(copy_of / "model.npz") as ckpt:
        arrays = {k: ckpt[k] for k in ckpt.files}
    arrays["emb"] = np.roll(arrays["emb"], 1, axis=0)
    np.savez(copy_of / "model.npz", **arrays)
    with pytest.raises(checks.CheckFailed, match="row 0"):
        checks.check_model(copy_of)


def test_model_check_rejects_dro_loss_outside_unit_interval(copy_of):
    log = copy_of / "train_log.jsonl"
    record = json.loads(log.read_text().splitlines()[0])
    record["loss_dro"] = 1.5
    log.write_text(json.dumps(record) + "\n")
    with pytest.raises(checks.CheckFailed, match="loss_dro"):
        checks.check_model(copy_of)


@pytest.mark.parametrize("path", [("values", "ndcg@10", "snips"),
                                  ("values", "recall@5", "naive"),
                                  ("coverage", "20")])
def test_metrics_check_rejects_a_perturbed_value(tiny_run, copy_of, path):
    cfg, _, ev = tiny_run
    report = json.loads((copy_of / "metrics.json").read_text())
    node = report
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += 1e-6
    (copy_of / "metrics.json").write_text(json.dumps(report))
    with pytest.raises(checks.CheckFailed):
        checks.check_metrics(ev, copy_of, cfg)


def test_oracle_matches_brute_force_enumeration(tiny_run):
    cfg, out, ev = tiny_run
    world = GroundTruthWorld.load(out / "world.npz")
    model = SeqModel.load(out / "model.npz")
    users = [u for u in ev.users if ev.clicks[u]]
    histories = [ev.click_indices(u) for u in users]
    H, _ = model.forward_states(sequences_to_matrix(histories, cfg.max_click_len))
    logits = model.all_logits(H[:, -1, :], "main")
    total = expected_rank = 0.0
    for row, (user, history) in enumerate(zip(users, histories)):
        world_item = [int(item[1:]) for item in ev.items]
        pi = world.next_click_distribution(int(user[1:]), world_item[history[-1] - 1])
        for target in range(len(ev.items)):          # every possible next click
            score = logits[row, target]
            rank = 1 + sum(1 for other in range(len(ev.items))
                           if logits[row, other] > score
                           or (logits[row, other] == score and other < target))
            p = pi[world_item[target]]
            expected_rank += p * (rank - 1) / (len(ev.items) - 1)
            if rank <= checks.ORACLE_K:
                total += p / math.log2(rank + 1)
    scores = checks.oracle_scores(ev, out, cfg.max_click_len)
    assert scores["ndcg10"] == pytest.approx(total / len(users), rel=1e-12, abs=1e-15)
    assert scores["rank_pct"] == pytest.approx(expected_rank / len(users), rel=1e-12)
    ideal = scores["rank_pct_ideal"]
    assert scores["rank_gain"] == pytest.approx((0.5 - expected_rank / len(users)) / (0.5 - ideal))
    assert scores["ndcg10"] <= scores["ndcg10_ideal"]
    assert scores["rank_pct"] >= scores["rank_pct_ideal"]
