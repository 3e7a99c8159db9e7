"""Config file round-trip and validation."""

import dataclasses

import pytest

from drorec.config import (ConfigError, ExperimentConfig, load_config,
                           save_config)


def test_roundtrip(tmp_path):
    cfg = ExperimentConfig(seed=42, method="dro", a=0.5, k_list=(3, 7))
    path = tmp_path / "config.txt"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("version = 1\nlr = 0.01\nlearning_rate = 0.2\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("version = 1\nseed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(path)


def test_missing_version_rejected(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("seed = 1\n")
    with pytest.raises(ConfigError, match="version"):
        load_config(path)


def test_bad_value_rejected(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("version = 1\nepochs = soon\n")
    with pytest.raises(ConfigError, match="bad value"):
        load_config(path)


def test_comments_and_blank_lines_ok(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("# a comment\n\nversion = 1\nseed = 9\n")
    assert load_config(path).seed == 9


def test_invalid_enum_fields():
    with pytest.raises(ConfigError):
        ExperimentConfig(method="dr0")
    with pytest.raises(ConfigError):
        ExperimentConfig(backbone="transformer")
    with pytest.raises(ConfigError):
        ExperimentConfig(policy="random")
    with pytest.raises(ConfigError):
        ExperimentConfig(version=2)


def test_defaults_match_reference_settings():
    cfg = ExperimentConfig()
    assert cfg.n_users == 500 and cfg.n_items == 300
    assert cfg.beta == 0.3 and cfg.snips_k == 0.1
    assert cfg.max_click_len == 50 and cfg.max_expo_len == 200
    assert cfg.expo_fraction == 0.7


@pytest.mark.parametrize("key, value", [
    ("n_users", 0),
    ("n_items", 0),
    ("slate_size", 0),
    ("rounds", 0),
    ("rounds", -1),
    ("k_list", 0),
    ("k_list", "5,0"),
    ("k_list", -3),
    ("k_list", ""),
    ("k_list", "5,301"),           # n_items + 1 at the default 300 items
    ("a", -1.0),
    ("beta", -0.1),
    ("snips_k", 2.0),
    ("snips_k", -0.5),
    ("expo_fraction", 0.0),
    ("expo_fraction", 1.0),
    ("epochs", 0),
    ("expo_epochs", 0),
    ("batch_size", 0),
    ("lr", 0.0),
    ("lr", -0.01),
    ("latent_dim", 0),
    ("embedding_dim", -8),
    ("expo_dim", 0),
    ("max_click_len", 0),
    ("max_expo_len", 0),
])
def test_out_of_range_setting_rejected_at_load(tmp_path, key, value):
    path = tmp_path / "config.txt"
    path.write_text(f"version = 1\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=key):
        load_config(path)


def test_range_boundaries_accepted():
    ExperimentConfig(a=0.0, beta=0.0, snips_k=0.0)
    ExperimentConfig(snips_k=1.0, expo_fraction=0.5)
    ExperimentConfig(n_users=1, n_items=1, slate_size=1, rounds=1, k_list=(1,))
    ExperimentConfig(n_items=25, k_list=(3, 25))
