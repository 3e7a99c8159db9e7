"""End-to-end CLI pipeline on a miniature configuration."""

import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from drorec import cli, pipeline
from drorec.baselines import METHODS
from drorec.cli import main
from drorec.config import ExperimentConfig, load_config, save_config
from drorec.model import SeqModel
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


def test_library_stages_write_what_the_cli_writes(tiny_config, tmp_path):
    """The four stage functions on one run directory, the four commands on
    another: the same files, apart from the seconds each epoch took."""
    cfg, _ = tiny_config
    lib, cli_run = tmp_path / "lib", tmp_path / "cli"
    lib_cfg = dataclasses.replace(cfg, out_dir=str(lib))
    pipeline.simulate(lib_cfg, lib)
    pipeline.train_exposure(lib_cfg, lib)
    pipeline.train_backbone(lib_cfg, lib)
    pipeline.evaluate(lib_cfg, lib)
    config = tmp_path / "config.txt"
    save_config(dataclasses.replace(cfg, out_dir=str(cli_run)), config)
    for stage in ("simulate", "train-exposure", "train", "evaluate"):
        assert main([stage, "--config", str(config)]) == 0

    for name in (pipeline.EVENTS_FILE, pipeline.METRICS_JSON, pipeline.METRICS_CSV):
        assert (lib / name).read_bytes() == (cli_run / name).read_bytes(), name
    for name in (pipeline.WORLD_FILE, pipeline.EXPO_SIM_FILE, pipeline.EVAL_SIM_FILE,
                 pipeline.MODEL_FILE):
        with np.load(lib / name) as got, np.load(cli_run / name) as expected:
            assert got.files == expected.files, name
            for key in got.files:
                assert np.array_equal(got[key], expected[key]), (name, key)

    def epochs(run):
        return [{k: v for k, v in json.loads(line).items() if k != "seconds"}
                for line in (run / pipeline.TRAIN_LOG_FILE).read_text().splitlines()]

    assert epochs(lib) == epochs(cli_run)
    assert len(epochs(lib)) == cfg.epochs


def test_main_keeps_freed_memory_before_dispatch(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "keep_freed_memory", lambda: calls.append("policy"))
    monkeypatch.setattr(cli, "cmd_report", lambda args: calls.append("report") or 0)
    assert main(["report", "missing-run"]) == 0
    assert calls == ["policy", "report"]


def test_cli_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("version = 1\nbogus_key = 3\n")
    assert main(["simulate", "--config", str(bad)]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_cli_rejects_out_of_range_setting(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"version = 1\nout_dir = {tmp_path / 'run'}\na = -1\n")
    assert main(["simulate", "--config", str(bad)]) == 1
    assert "ConfigError" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_reports_missing_files(tmp_path, capsys):
    cfg = ExperimentConfig(out_dir=str(tmp_path / "nope"))
    path = tmp_path / "c.txt"
    save_config(cfg, path)
    assert main(["evaluate", "--config", str(path)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("option, error", [("--out", "FileExistsError"),
                                           ("--config", "IsADirectoryError")])
def test_cli_reports_os_errors(tmp_path, capsys, option, error):
    """An output location that is a file and a config file that is a directory."""
    (tmp_path / "file").touch()
    path = {"--out": tmp_path / "file", "--config": tmp_path}[option]
    assert main(["simulate", option, str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {error}: ")


@pytest.mark.parametrize("payload", ["{}", '{"values": {}}', "[1, 2]"])
def test_report_rejects_a_metrics_file_without_its_fields(tmp_path, capsys, payload):
    run = tmp_path / "run"
    run.mkdir()
    (run / "metrics.json").write_text(payload)
    assert main(["report", str(run), "--table", str(tmp_path / "report.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: ")
    assert str(run / "metrics.json") in err
    assert not (tmp_path / "report.csv").exists()


def test_evaluation_deterministic(tiny_config):
    cfg, path = tiny_config
    from pathlib import Path
    out = Path(cfg.out_dir)
    first = (out / "metrics.json").read_text()
    assert main(["evaluate", "--config", str(path)]) == 0
    assert (out / "metrics.json").read_text() == first


@pytest.mark.parametrize("method", METHODS)
def test_every_method_runs_through_the_cli(tiny_config, tmp_path, capsys, method):
    cfg, _ = tiny_config
    run = tmp_path / "run"
    config = tmp_path / "config.txt"
    save_config(dataclasses.replace(cfg, out_dir=str(run), method=method), config)
    for stage in ("simulate", "train-exposure", "train", "evaluate"):
        assert main([stage, "--config", str(config)]) == 0
    records = [json.loads(line) for line in (run / "train_log.jsonl").read_text().splitlines()]
    assert len(records) == cfg.epochs
    assert all(np.isfinite(r[k]) for r in records
               for k in ("loss_rec", "loss_dro", "loss_joint"))
    capsys.readouterr()
    assert main(["report", str(run), "--table", str(tmp_path / "report.csv")]) == 0
    assert "ndcg@5/snips" in (tmp_path / "report.csv").read_text()


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


def test_config_hash_ignores_out_dir(two_worlds, tmp_path):
    out, cfg_path = two_worlds["model"]
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    assert main(["evaluate", "--config", str(cfg_path)]) == 0
    assert main(["evaluate", "--config", str(cfg_path), "--out", str(copy)]) == 0

    def config_hash(run):
        return json.loads((run / "metrics.json").read_text())["config_hash"]

    assert config_hash(out) == config_hash(copy)
    changed = tmp_path / "changed.txt"
    save_config(dataclasses.replace(load_config(cfg_path), a=0.25), changed)
    assert main(["evaluate", "--config", str(changed), "--out", str(copy)]) == 0
    assert config_hash(copy) != config_hash(out)


@pytest.mark.parametrize("n_items, k_list, error", [
    (25, "3,26", "ConfigError"),        # k above n_items
    (100, "3,50", "ValueError"),        # k within n_items, above the model's catalog
])
def test_k_above_the_catalog_writes_no_metrics(two_worlds, tmp_path, capsys, n_items, k_list,
                                               error):
    out, cfg_path = two_worlds["model"]
    run = tmp_path / "run"
    shutil.copytree(out, run)
    (run / "metrics.json").unlink(missing_ok=True)
    config = tmp_path / "config.txt"
    config.write_text(cfg_path.read_text().replace("n_items = 25", f"n_items = {n_items}")
                      .replace("k_list = 3,5", f"k_list = {k_list}"))
    assert main(["evaluate", "--config", str(config), "--out", str(run)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {error}: ")
    assert not (run / "metrics.json").exists()


# ten users, two shown items a round for four rounds: few users click twice
SPARSE_CONFIG = """version = 1
n_users = 10
n_items = 20
rounds = 4
slate_size = 2
policy = uniform
epochs = 2
warmup_epochs = 1
expo_epochs = 1
embedding_dim = 8
expo_dim = 8
max_click_len = 10
max_expo_len = 20
batch_size = 16
k_list = 5
"""


@pytest.mark.parametrize("seed, failing, absent", [
    (1, "train", "model.npz"),          # no training user clicks twice
    (2, "evaluate", "metrics.json"),    # no test user clicks twice
])
def test_stage_without_sequences_exits_1(tmp_path, capsys, seed, failing, absent):
    config = tmp_path / "config.txt"
    config.write_text(SPARSE_CONFIG)
    run = tmp_path / "run"
    args = ["--config", str(config), "--seed", str(seed), "--out", str(run)]
    for stage in ("simulate", "train-exposure", "train", "evaluate"):
        code = main([stage, *args])
        if stage == failing:
            break
        assert code == 0, stage
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ValueError: ")
    assert not (run / absent).exists()


def test_unversioned_model_rejected(two_worlds, tmp_path, capsys):
    out, cfg_path = two_worlds["model"]
    run = tmp_path / "run"
    shutil.copytree(out, run)
    with np.load(run / "model.npz") as ckpt:
        arrays = {k: ckpt[k] for k in ckpt.files if k != "__meta__format_version"}
    np.savez(run / "model.npz", **arrays)
    with pytest.raises(ValueError, match="format"):
        SeqModel.load(run / "model.npz")
    assert main(["evaluate", "--config", str(cfg_path), "--out", str(run)]) == 1
    assert "format" in capsys.readouterr().err
