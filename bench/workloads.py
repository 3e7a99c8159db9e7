"""The benchmark's workloads: the drorec config fields each one changes.

Workload names and the one-line reason for each are declared in
BENCHMARK.json; this module holds only their configs.  Every workload keeps
the shipped defaults of `drorec.config.ExperimentConfig` except the fields
listed here.  World shape (300 items, slate 10, 20 rounds) and model shapes
(d=64, T=50; simulator d=32, T=200) stay at their defaults.  Epochs are cut
(120 by default, 80 of them warm-up, 4 simulator epochs) so that every run
of the four stages fits the benchmark's budget.  The two `dro` workloads
keep the 2:1 split of warm-up to robust epochs and use smaller batches than
the default 128, so that the model takes enough optimiser steps in the cut
epochs to learn what the quality guard measures.
"""

from __future__ import annotations

CONFIGS = {
    "dro-default": {"method": "dro", "backbone": "attention", "policy": "model",
                    "epochs": 30, "warmup_epochs": 20, "batch_size": 32,
                    "expo_epochs": 1},
    "ipsc-gru-pop": {"method": "ips_c", "backbone": "recurrent", "policy": "popularity",
                     "epochs": 30, "warmup_epochs": 0, "expo_epochs": 1},
    "dro-2x-users": {"method": "dro", "backbone": "attention", "policy": "model",
                     "n_users": 1000, "epochs": 12, "warmup_epochs": 8,
                     "batch_size": 32, "expo_epochs": 1},
}


def config_text(name: str, seed: int) -> str:
    """A drorec config file for workload `name`, seeded by the workload seed."""
    fields = {"version": 1, **CONFIGS[name], "seed": seed}
    return "".join(f"{k} = {v}\n" for k, v in fields.items())
