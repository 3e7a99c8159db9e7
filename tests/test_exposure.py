"""Mixture exposure simulator invariants on a tiny trained instance."""

import io
import os
import threading
import time

import numpy as np
import pytest

from drorec import exposure, lanes
from drorec.data import (Catalog, CatalogMismatchError, EventLog,
                         parse_event_log, sequences_to_matrix, split_exposure)
from drorec.exposure import (ExposureSimulator, LeakageError, PopularityTable,
                             build_simulators, check_no_leakage,
                             popularity_from, train_exposure_component)
from drorec.model import SeqModel


def _toy_events(n_users=12, n_items=8, length=10, seed=0):
    rng = np.random.default_rng(seed)
    catalog = Catalog([f"u{i}" for i in range(n_users)], [f"i{j}" for j in range(n_items)])
    rows = []
    for u in range(n_users):
        for t in range(length):
            # skewed exposure: low item ids are shown more often
            v = min(int(rng.exponential(2.0)), n_items - 1) + 1
            rows.append((u, v, t, False))
            if rng.random() < 0.4:
                rows.append((u, v, t, True))
    user, item, time, click = zip(*rows)
    return EventLog(user, item, time, click, catalog)


@pytest.fixture(scope="module")
def sim_setup():
    log = _toy_events()
    sim = build_simulators([(log.rows(~log.click), log.rows(slice(0, 0)), 0)],
                           dim=8, max_len=12, beta=0.3, epochs=2, lr=0.01,
                           batch_size=8)[0]
    return log, sim


def _random_prefixes(log, n, seed):
    """n random interaction prefixes of 1-6 items as a (n, 6) padded matrix."""
    rng = np.random.default_rng(seed)
    prefixes = [rng.integers(1, log.catalog.n_items + 1, size=rng.integers(1, 7)).tolist()
                for _ in range(n)]
    return sequences_to_matrix(prefixes, 6)


def test_popularity_table(sim_setup):
    log, _ = sim_setup
    pop = popularity_from(log)
    assert pop.counts.sum() == np.count_nonzero(~log.click)
    assert pop.scores.max() == pytest.approx(1.0)
    assert np.all(pop.scores >= 0.0)
    empty = PopularityTable.from_counts(np.zeros(3, dtype=np.int64))
    assert not empty.scores.any()


def test_mixture_sums(sim_setup):
    log, sim = sim_setup
    mat = _random_prefixes(log, 50, seed=1)
    mu = sim.mu0_all_positions(mat)[:, -1, :]
    np.testing.assert_allclose(mu.sum(axis=1), 2.0 + sim.beta, rtol=0, atol=1e-9)
    q0 = sim.q0_all_positions(mat)[:, -1, :]
    np.testing.assert_allclose(q0.sum(axis=1), 1.0, rtol=0, atol=1e-9)
    assert np.all(q0 > 0)


def test_mixture_score_bounds(sim_setup):
    log, sim = sim_setup
    mu = sim.mu0_all_positions(_random_prefixes(log, 20, seed=2))[:, -1, :]
    assert np.all(mu > 0.0) and np.all(mu < 2.0 + sim.beta)


def test_simulator_components_frozen(sim_setup):
    _, sim = sim_setup
    assert sim.component_a.frozen and sim.component_b.frozen
    with pytest.raises(ValueError):
        sim.component_a.params["emb"][1, 0] = 99.0


def test_leakage_guard():
    log = _toy_events()
    exposures = log.rows(~log.click)
    with pytest.raises(LeakageError):
        check_no_leakage(exposures, exposures.rows(slice(0, 3)))
    check_no_leakage(exposures.rows(slice(0, 5)), exposures.rows(slice(5, None)))
    with pytest.raises(LeakageError):
        build_simulators([(exposures, exposures.rows(slice(0, 1)), 0)], dim=4,
                         max_len=8, beta=0.3, epochs=1, lr=0.01, batch_size=8)


def test_duplicate_line_across_the_exposure_cut_leaks():
    # seven exposures of u0, cut after ceil(0.7 * 7) = 5: the two equal
    # lines at t=4 fall on either side, so one event sits in both parts
    shown = (("i0", 0), ("i1", 1), ("i2", 2), ("i3", 3), ("i4", 4), ("i4", 4), ("i5", 5))
    text = "".join(f"u0\t{item}\t{t}\texposure\n" for item, t in shown)
    fit = dict(dim=4, max_len=8, beta=0.3, epochs=1, lr=0.01, batch_size=8)
    first, second = split_exposure(parse_event_log(io.StringIO(text)), 0.7)
    with pytest.raises(LeakageError, match="^1 training events"):
        build_simulators([(first, second, 0)], **fit)
    with pytest.raises(LeakageError):
        build_simulators([(second, first, 0)], **fit)
    disjoint = text.replace("i4\t4", "i6\t4", 1)
    first, second = split_exposure(parse_event_log(io.StringIO(disjoint)), 0.7)
    assert build_simulators([(first, second, 0)], **fit)[0].popularity.counts.sum() == 5
    assert build_simulators([(second, first, 0)], **fit)[0].popularity.counts.sum() == 2


def test_simulator_save_load_bit_exact(tmp_path, sim_setup):
    log, sim = sim_setup
    path = tmp_path / "sim.npz"
    sim.save(path)
    loaded = ExposureSimulator.load(path)
    assert loaded.beta == sim.beta
    for k, v in sim.component_a.params.items():
        assert np.array_equal(loaded.component_a.params[k], v)
    mat = sequences_to_matrix([[1, 3, 2]], 6)
    np.testing.assert_array_equal(loaded.mu0_all_positions(mat),
                                  sim.mu0_all_positions(mat))


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
    first, second = split_exposure(log, 0.7)
    mat = sequences_to_matrix([s for s in first.item_sequences(clicks=False) if s], 12)
    comp = train_exposure_component(mat, log.catalog, "recurrent", dim=8,
                                    epochs=8, lr=0.01, batch_size=8, seed=0)
    hits = trials = 0
    rng = np.random.default_rng(0)
    rand_hits = 0
    for history, held_out in zip(first.item_sequences(clicks=False),
                                 second.item_sequences(clicks=False)):
        if not held_out:
            continue
        target = held_out[0]
        H, _ = comp.forward_states(sequences_to_matrix([history], 12))
        logits = comp.all_logits(H[0, -1], "main")
        top3 = np.argsort(-logits)[:3] + 1
        hits += int(target in top3)
        rand_hits += int(target in rng.choice(log.catalog.n_items, 3, replace=False) + 1)
        trials += 1
    assert hits / trials > rand_hits / trials


# ---------------------------------------------------------------------------
# fitting the components on one or two lanes

FIT = dict(dim=4, max_len=8, beta=0.3, epochs=1, lr=0.01, batch_size=8)


def _parts():
    """The two (log, forbidden, seed) parts of a train-exposure run."""
    first, second = split_exposure(_toy_events(), 0.7)
    return [(first, second, 0), (second, first, 1000)]


@pytest.fixture
def lane_count(monkeypatch):
    def use(n):
        monkeypatch.setattr(lanes, "count", lambda: n)
    return use


def test_two_lanes_fit_the_arrays_of_one(lane_count, monkeypatch):
    threads = {}
    real = exposure.train_exposure_component

    def recording(mat, catalog, arch, **kwargs):
        threads[arch] = threading.current_thread()
        return real(mat, catalog, arch, **kwargs)

    monkeypatch.setattr(exposure, "train_exposure_component", recording)
    runs = []
    for n in (1, 2):
        lane_count(n)
        runs.append(build_simulators(_parts(), **FIT))
        assert (threads["recurrent"] is threading.main_thread()) == (n == 1)
        assert threads["attention"] is threading.main_thread()
    for one, two in zip(*runs):
        assert np.array_equal(one.popularity.counts, two.popularity.counts)
        for comp in ("component_a", "component_b"):
            a, b = getattr(one, comp).params, getattr(two, comp).params
            assert a.keys() == b.keys()
            for name in a:
                assert np.array_equal(a[name], b[name]), (comp, name)


class _LaneFailure(RuntimeError):
    pass


def test_recurrent_lane_error_reaches_the_caller(lane_count, monkeypatch):
    """The first recurrent fit fails on the lane: the attention fits on this
    thread still all finish before the error reaches the caller, and the
    lanes are free again."""
    fitted = []

    def failing(mat, catalog, arch, **kwargs):
        if arch == "recurrent":
            raise _LaneFailure(arch)
        time.sleep(0.05)
        fitted.append((arch, threading.current_thread()))

    monkeypatch.setattr(exposure, "train_exposure_component", failing)
    lane_count(2)
    with pytest.raises(_LaneFailure, match="recurrent"):
        build_simulators(_parts(), **FIT)
    assert fitted == [("attention", threading.main_thread())] * 2
    second = lanes.each([threading.current_thread, threading.current_thread])[1]
    assert second is not threading.main_thread()
    assert [t for t in threading.enumerate() if t is not threading.main_thread()] == [second]


@pytest.mark.parametrize("leaky", [0, 1])
def test_leakage_in_any_part_stops_every_fit(lane_count, monkeypatch, leaky):
    started = []
    monkeypatch.setattr(exposure, "train_exposure_component",
                        lambda mat, catalog, arch, **kwargs: started.append(arch))
    lane_count(2)
    parts = _parts()
    log, _, seed = parts[leaky]
    parts[leaky] = (log, log.rows(slice(0, 1)), seed)
    with pytest.raises(LeakageError):
        build_simulators(parts, **FIT)
    assert started == []


@pytest.mark.parametrize("env, cpus, expected", [
    ({}, 2, 1),                                            # BLAS not pinned
    ({"OPENBLAS_NUM_THREADS": "2"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),                  # one usable CPU
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
    ({"OMP_NUM_THREADS": "1"}, 4, 2),
    ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 2, 1),   # first one wins
])
def test_lane_rule(monkeypatch, env, cpus, expected):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    assert lanes.count() == expected
