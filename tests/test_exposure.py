"""Mixture exposure simulator invariants on a tiny trained instance."""

import numpy as np
import pytest

from drorec.data import (CLICK, EXPOSURE, Catalog, CatalogMismatchError, Event,
                         EventLog)
from drorec.exposure import (ExposureSimulator, LeakageError, PopularityTable,
                             build_simulator, check_no_leakage,
                             popularity_from, train_exposure_component)
from drorec.model import SeqModel


def _toy_events(n_users=12, n_items=8, length=10, seed=0):
    rng = np.random.default_rng(seed)
    users = [f"u{i}" for i in range(n_users)]
    items = [f"i{j}" for j in range(n_items)]
    catalog = Catalog(users, items)
    events_by_user = {}
    for u in users:
        evs = []
        for t in range(length):
            # skewed exposure: low item ids are shown more often
            v = items[min(int(rng.exponential(2.0)), n_items - 1)]
            evs.append(Event(u, v, t, EXPOSURE))
            if rng.random() < 0.4:
                evs.append(Event(u, v, t, CLICK))
        events_by_user[u] = evs
    return EventLog(events_by_user, catalog)


@pytest.fixture(scope="module")
def sim_setup():
    log = _toy_events()
    events = log.exposure_events()
    sim = build_simulator(events, log.catalog, dim=8, max_len=12, prefix_len=6,
                          beta=0.3, epochs=2, lr=0.01, batch_size=8, seed=0)
    return log, sim


def test_popularity_table(sim_setup):
    log, _ = sim_setup
    pop = popularity_from(log.exposure_events(), log.catalog)
    assert pop.counts.sum() == len(log.exposure_events())
    assert pop.scores.max() == pytest.approx(1.0)
    assert np.all(pop.scores >= 0.0)
    assert not pop.degenerate
    empty = PopularityTable(counts=np.zeros(3, dtype=np.int64),
                            scores=np.zeros(3))
    assert empty.degenerate


def test_mixture_sums(sim_setup):
    log, sim = sim_setup
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = rng.integers(1, 7)
        prefix = rng.integers(1, log.catalog.n_items + 1, size=n).tolist()
        mu = sim.mu0_vector(prefix)
        assert mu.sum() == pytest.approx(2.0 + sim.beta, abs=1e-9)
        q0 = sim.exposure_distribution(prefix)
        assert q0.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(q0 > 0)


def test_mixture_score_bounds(sim_setup):
    log, sim = sim_setup
    score = sim.mixture_score([1, 2], 1)
    assert 0.0 < score < 2.0 + sim.beta
    with pytest.raises(ValueError):
        sim.mixture_score([1, 2], 0)
    with pytest.raises(ValueError):
        sim.mixture_score([1, 2], 99)
    with pytest.raises(ValueError):
        sim.mu0_vector([])


def test_simulator_components_frozen(sim_setup):
    _, sim = sim_setup
    assert sim.component_a.frozen and sim.component_b.frozen
    with pytest.raises(ValueError):
        sim.component_a.params["emb"][1, 0] = 99.0


def test_leakage_guard():
    log = _toy_events()
    events = log.exposure_events()
    with pytest.raises(LeakageError):
        check_no_leakage(events, events[:3])
    check_no_leakage(events[:5], events[5:])  # disjoint: no error
    with pytest.raises(LeakageError):
        train_exposure_component(events, log.catalog, "recurrent",
                                 forbidden=events[:1], dim=4, max_len=8,
                                 epochs=1, seed=0)


def test_simulator_save_load_bit_exact(tmp_path, sim_setup):
    log, sim = sim_setup
    path = tmp_path / "sim.npz"
    sim.save(path)
    loaded = ExposureSimulator.load(path)
    assert loaded.beta == sim.beta
    assert loaded.prefix_len == sim.prefix_len
    for k, v in sim.component_a.params.items():
        assert np.array_equal(loaded.component_a.params[k], v)
    prefix = [1, 3, 2]
    np.testing.assert_array_equal(loaded.mu0_vector(prefix), sim.mu0_vector(prefix))


def test_simulator_checkpoint_names_its_catalog(tmp_path, sim_setup):
    log, sim = sim_setup
    path = tmp_path / "sim.npz"
    sim.save(path)
    loaded = ExposureSimulator.load(path, log.catalog)
    assert loaded.component_b.fingerprint == log.catalog.fingerprint
    shuffled = Catalog(log.catalog.user_ids, log.catalog.item_ids[::-1])
    with pytest.raises(CatalogMismatchError):
        ExposureSimulator.load(path, shuffled)


def test_q0_all_positions_rows_normalized(sim_setup):
    log, sim = sim_setup
    seqs = np.array([[0, 0, 1, 2, 3, 4], [0, 1, 1, 2, 2, 3]])
    q0 = sim.q0_all_positions(seqs)
    np.testing.assert_allclose(q0.sum(axis=-1), 1.0, atol=1e-9)


def test_component_beats_uniform_on_heldout():
    # a trained component should rank the true next exposure better than
    # a uniform-random scorer on held-out exposure data
    log = _toy_events(n_users=30, length=16, seed=4)
    from drorec.data import split_exposure
    first, second = split_exposure(log, 0.7)
    comp = train_exposure_component(first, log.catalog, "recurrent",
                                    forbidden=second, dim=8, max_len=12,
                                    epochs=8, lr=0.01, batch_size=8, seed=0)
    from drorec.data import truncate_pad
    per_user = {}
    for e in second:
        per_user.setdefault(e.user, []).append(e)
    hits = trials = 0
    rng = np.random.default_rng(0)
    rand_hits = 0
    for u, evs in per_user.items():
        history = [log.catalog.item_index(e.item)
                   for e in first if e.user == u]
        target = log.catalog.item_index(sorted(evs, key=lambda e: e.timestamp)[0].item)
        state = comp.encode(truncate_pad(history, 12))
        logits = comp.all_logits(state, "main")
        top3 = np.argsort(-logits)[:3] + 1
        hits += int(target in top3)
        rand_hits += int(target in rng.choice(log.catalog.n_items, 3, replace=False) + 1)
        trials += 1
    assert hits / trials > rand_hits / trials
