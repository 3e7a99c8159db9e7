"""End-to-end CLI pipeline on a miniature configuration."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from drorec.cli import main
from drorec.config import ExperimentConfig, save_config
from drorec.pipeline import load_log


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = ExperimentConfig(
        out_dir=str(out / "exp"), n_users=40, n_items=25, latent_dim=4,
        slate_size=5, rounds=4, embedding_dim=8, expo_dim=8, lr=0.01, epochs=2,
        warmup_epochs=1,
        expo_epochs=1, batch_size=16, max_click_len=10, max_expo_len=24,
        k_list=(3, 5), seed=0, method="dro", a=0.5)
    path = out / "config.txt"
    save_config(cfg, path)
    return cfg, path


def test_full_pipeline(tiny_config, capsys):
    cfg, path = tiny_config
    from pathlib import Path
    out = Path(cfg.out_dir)

    assert main(["simulate", "--config", str(path)]) == 0
    assert (out / "events.tsv").exists()
    assert (out / "world.npz").exists()

    assert main(["train-exposure", "--config", str(path)]) == 0
    assert (out / "expo_sim.npz").exists()
    assert (out / "eval_sim.npz").exists()

    assert main(["train", "--config", str(path)]) == 0
    assert (out / "model.npz").exists()
    assert (out / "train_log.jsonl").exists()

    assert main(["evaluate", "--config", str(path)]) == 0
    payload = json.loads((out / "metrics.json").read_text())
    for key in ("recall@3", "recall@5", "ndcg@3", "ndcg@5"):
        assert key in payload["values"]
        for variant in ("naive", "snips"):
            assert 0.0 <= payload["values"][key][variant] <= 1.0
    assert payload["snips_k"] == cfg.snips_k
    assert (out / "metrics.csv").exists()

    capsys.readouterr()
    assert main(["report", str(out), str(out),
                 "--table", str(out / "report.csv")]) == 0
    table = (out / "report.csv").read_text()
    assert "ndcg@5/snips" in table


def test_seed_override_changes_output(tiny_config, tmp_path):
    cfg, path = tiny_config
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["simulate", "--config", str(path), "--seed", "1",
                 "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(path), "--seed", "2",
                 "--out", str(out_b)]) == 0
    assert ((out_a / "events.tsv").read_text()
            != (out_b / "events.tsv").read_text())


def test_cli_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("version = 1\nbogus_key = 3\n")
    assert main(["simulate", "--config", str(bad)]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_cli_reports_missing_files(tmp_path, capsys):
    cfg = ExperimentConfig(out_dir=str(tmp_path / "nope"))
    path = tmp_path / "c.txt"
    save_config(cfg, path)
    assert main(["evaluate", "--config", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_evaluation_deterministic(tiny_config):
    cfg, path = tiny_config
    from pathlib import Path
    out = Path(cfg.out_dir)
    first = (out / "metrics.json").read_text()
    assert main(["evaluate", "--config", str(path)]) == 0
    assert (out / "metrics.json").read_text() == first


@pytest.fixture(scope="module")
def two_worlds(tmp_path_factory):
    """Two `dro` runs through train, on worlds logged by different policies."""
    root = tmp_path_factory.mktemp("worlds")
    runs = {}
    for policy in ("model", "popularity"):
        cfg = ExperimentConfig(
            out_dir=str(root / policy), n_users=40, n_items=25, latent_dim=4,
            slate_size=5, rounds=4, embedding_dim=8, expo_dim=8, lr=0.01,
            epochs=5, warmup_epochs=3, expo_epochs=1, batch_size=16,
            max_click_len=10, max_expo_len=24, k_list=(3, 5), seed=0,
            method="dro", a=0.5, policy=policy)
        path = root / f"{policy}.txt"
        save_config(cfg, path)
        for stage in ("simulate", "train-exposure", "train"):
            assert main([stage, "--config", str(path)]) == 0
        runs[policy] = (Path(cfg.out_dir), path)
    return runs


def test_dro_log_covers_both_phases(two_worlds):
    out, _ = two_worlds["model"]
    records = [json.loads(line)
               for line in (out / "train_log.jsonl").read_text().splitlines()]
    assert [r["epoch"] for r in records] == [0, 1, 2, 3, 4]
    assert [r["phase"] for r in records] == ["warmup"] * 3 + ["robust"] * 2
    assert all(0.0 <= r["loss_dro"] <= 1.0 for r in records)
    assert records[2]["loss_dro"] == 0.0 < records[3]["loss_dro"]


def test_checkpoint_from_another_catalog_rejected(two_worlds, capsys):
    (model_out, _), (pop_out, pop_cfg) = two_worlds["model"], two_worlds["popularity"]
    catalogs = [load_log(out).catalog for out in (model_out, pop_out)]
    assert catalogs[0].fingerprint != catalogs[1].fingerprint
    assert main(["evaluate", "--config", str(pop_cfg)]) == 0
    capsys.readouterr()

    shutil.copy(model_out / "model.npz", pop_out / "model.npz")
    assert main(["evaluate", "--config", str(pop_cfg)]) == 1
    assert "CatalogMismatchError" in capsys.readouterr().err

    shutil.copy(model_out / "expo_sim.npz", pop_out / "expo_sim.npz")
    assert main(["train", "--config", str(pop_cfg)]) == 1
    assert "CatalogMismatchError" in capsys.readouterr().err
