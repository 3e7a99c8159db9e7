"""The `simulate` stage's `events.tsv`: written in chunks of rows, replaced
only once complete, and within a memory bound counted in the log's own size.

The stage holds the world, the feedback loop's state and the finished log.
The text of the log is serialized `pipeline.WRITE_ROWS` rows at a time, so
it is never held whole, and the log's columns are built without index grids
over every (round, user, slot) entry.
"""

import tracemalloc

import pytest

from drorec import pipeline
from drorec.config import ExperimentConfig
from drorec.data import serialize_event_log
from drorec.synthworld import LoggingPolicy, generate_world, run_feedback_loop

CHUNK = 7    # rows per write in the chunking tests, fewer than one user's rows
# Traced peak of `pipeline.simulate` over the nbytes of the log's four
# columns, on 300-user worlds.  A stage that serializes the whole text at
# once and builds the log from index grids reads 5.96 (uniform) and 5.95
# (popularity) such logs; one that writes in chunks, from columns of the
# shown and clicked entries, reads 3.45 and 3.48.
PEAK_LOGS = 4.5


def _config(tmp_path, policy: str) -> ExperimentConfig:
    return ExperimentConfig(out_dir=str(tmp_path), n_users=30, n_items=20,
                            latent_dim=4, slate_size=4, rounds=3, policy=policy,
                            seed=3)


def _log(cfg: ExperimentConfig):
    """The log `pipeline.simulate` writes for cfg."""
    world = generate_world(cfg.n_users, cfg.n_items, cfg.latent_dim, cfg.seed)
    policy = LoggingPolicy(kind=cfg.policy, slate_size=cfg.slate_size, rounds=cfg.rounds)
    return run_feedback_loop(world, policy, seed=cfg.seed)


def _chunks(monkeypatch, fail_at: int = 0) -> list[int]:
    """Sets WRITE_ROWS to CHUNK; returns the row counts of the chunks
    serialized from then on.  Serializing chunk number fail_at raises."""
    calls = []

    def serialize(log):
        calls.append(len(log.user))
        if len(calls) == fail_at:
            raise OSError("disk full")
        return serialize_event_log(log)

    monkeypatch.setattr(pipeline, "WRITE_ROWS", CHUNK)
    monkeypatch.setattr(pipeline, "serialize_event_log", serialize)
    return calls


@pytest.mark.parametrize("policy", ["uniform", "popularity", "model"])
def test_chunked_events_equal_the_whole_log(tmp_path, monkeypatch, policy):
    chunks = _chunks(monkeypatch)
    cfg = _config(tmp_path, policy)
    pipeline.simulate(cfg, tmp_path)
    log = _log(cfg)
    n = len(log.user)
    assert chunks == [min(CHUNK, n - a) for a in range(0, n, CHUNK)]
    # some chunk boundary falls between two rows of one user
    assert any(log.user[a - 1] == log.user[a] for a in range(CHUNK, n, CHUNK))
    assert (tmp_path / pipeline.EVENTS_FILE).read_bytes() == serialize_event_log(log).encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == [pipeline.EVENTS_FILE,
                                                          pipeline.WORLD_FILE]


def test_cut_write_leaves_the_earlier_events(tmp_path, monkeypatch):
    pipeline.simulate(_config(tmp_path, "uniform"), tmp_path)
    before = (tmp_path / pipeline.EVENTS_FILE).read_bytes()
    names = sorted(p.name for p in tmp_path.iterdir())
    chunks = _chunks(monkeypatch, fail_at=2)
    with pytest.raises(OSError, match="disk full"):
        pipeline.simulate(_config(tmp_path, "popularity"), tmp_path)
    assert len(chunks) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    assert (tmp_path / pipeline.EVENTS_FILE).read_bytes() == before


@pytest.mark.parametrize("policy", ["uniform", "popularity"])
def test_simulate_peak_in_logs(tmp_path, policy):
    cfg = ExperimentConfig(out_dir=str(tmp_path), n_users=300, policy=policy, seed=0)
    log = _log(cfg)
    log_bytes = sum(c.nbytes for c in (log.user, log.item, log.time, log.click))
    del log
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        pipeline.simulate(cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_LOGS * log_bytes, f"{peak / log_bytes:.2f} logs"
