"""The CLI stages after simulate hold only what they read.

`train-exposure` builds the two exposure halves of the parsed log and
`train` and `evaluate` its click sequences; none of them keeps the log
itself once it has its inputs.  The check counts the live `EventLog`
objects while the stages' fits, training runs and evaluation run.  With
two lanes the simulator fits run on two threads, with one lane on one;
the check holds both ways.
"""

import gc

from drorec import cli, dro, evaluation, exposure, pipeline
from drorec.config import ExperimentConfig, save_config
from drorec.data import EventLog, split_exposure


def _logs():
    gc.collect()
    return [o for o in gc.get_objects() if isinstance(o, EventLog)]


def test_stages_hold_no_parsed_log(tmp_path, monkeypatch):
    out = tmp_path / "run"
    cfg = ExperimentConfig(
        out_dir=str(out), n_users=40, n_items=25, latent_dim=4, slate_size=5,
        rounds=4, embedding_dim=8, expo_dim=8, lr=0.01, epochs=2,
        warmup_epochs=1, expo_epochs=1, batch_size=16, max_click_len=10,
        max_expo_len=24, k_list=(3, 5), seed=0, method="dro", a=0.5)
    config = tmp_path / "config.txt"
    save_config(cfg, config)
    assert cli.main(["simulate", "--config", str(config)]) == 0

    # logs of earlier tests (a failed test's traceback, say) are not the stages'
    earlier = _logs()
    seen = []      # (stage, row counts of the logs the stages hold)
    stage = None

    def counting(fn):
        def wrapped(*args, **kwargs):
            held = [len(o.user) for o in _logs() if not any(o is e for e in earlier)]
            seen.append((stage, sorted(held)))
            return fn(*args, **kwargs)
        return wrapped

    for module, name in ((dro, "train_model"), (pipeline, "train_model"),
                         (exposure, "train_exposure_component"),
                         (evaluation, "evaluate_model"), (pipeline, "evaluate_model")):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    for stage in ("train-exposure", "train", "evaluate"):
        assert cli.main([stage, "--config", str(config)]) == 0

    log = pipeline.load_log(out)
    halves = sorted(len(part.user) for part in split_exposure(log, cfg.expo_fraction))
    assert {s for s, _ in seen} == {"train-exposure", "train", "evaluate"}
    for s, held in seen:
        if s == "train-exposure":
            assert held == halves and len(log.user) not in held, (s, held)
        else:
            assert held == [], (s, held)
