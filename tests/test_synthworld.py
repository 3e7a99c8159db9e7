"""Ground-truth world generation and the feedback-loop logger."""

import numpy as np
import pytest

from drorec.data import (CLICK, EXPOSURE, EventLog, parse_event_log,
                         serialize_event_log, truncate_pad)
from drorec.synthworld import (EXPLORE_EPS, NOISE, POLICY_MAX_LEN, POP_BONUS,
                               GroundTruthWorld, LoggingPolicy,
                               _fit_policy_model, generate_world,
                               oracle_evaluate, run_feedback_loop,
                               true_preference_ranking_value)


@pytest.fixture(scope="module")
def small_world():
    return generate_world(30, 20, 4, seed=0)


def test_world_deterministic(small_world):
    again = generate_world(30, 20, 4, seed=0)
    np.testing.assert_array_equal(again.user_vecs, small_world.user_vecs)
    other = generate_world(30, 20, 4, seed=1)
    assert not np.array_equal(other.user_vecs, small_world.user_vecs)


def test_click_probs_in_unit_interval(small_world):
    pi = small_world.click_probs(0)
    assert pi.shape == (20,)
    assert np.all((pi > 0) & (pi < 1))
    pi_drift = small_world.click_probs(0, last_click=3)
    assert not np.array_equal(pi, pi_drift)  # drift term matters


def test_next_click_distribution_normalized(small_world):
    dist = small_world.next_click_distribution(2, 5)
    assert dist.sum() == pytest.approx(1.0)


def test_world_save_load(tmp_path, small_world):
    path = tmp_path / "world.npz"
    small_world.save(path)
    loaded = GroundTruthWorld.load(path)
    np.testing.assert_array_equal(loaded.item_vecs, small_world.item_vecs)
    assert loaded.pref_scale == small_world.pref_scale


def test_world_validates_sizes():
    with pytest.raises(ValueError):
        generate_world(1, 20, 4, seed=0)


@pytest.mark.parametrize("kind", ["uniform", "popularity", "model"])
def test_feedback_loop_produces_valid_log(small_world, kind):
    policy = LoggingPolicy(kind=kind, slate_size=4, rounds=3)
    log = run_feedback_loop(small_world, policy, seed=0)
    # the log must survive its own integrity checks
    reparsed = parse_event_log(iter(serialize_event_log(log).splitlines(True)))
    assert reparsed.catalog.n_users == 30
    n_expo = np.count_nonzero(~log.click)
    assert n_expo == 30 * 4 * 3
    # clicks are a subset of exposures per user
    for clicked, shown in zip(log.item_sequences(clicks=True),
                              log.item_sequences(clicks=False)):
        assert set(clicked) <= set(shown)


def test_feedback_loop_deterministic(small_world):
    policy = LoggingPolicy(kind="model", slate_size=4, rounds=3)
    a = run_feedback_loop(small_world, policy, seed=5)
    b = run_feedback_loop(small_world, policy, seed=5)
    assert serialize_event_log(a) == serialize_event_log(b)


def _reference_feedback_loop(world, policy, seed):
    """The feedback loop written plainly: set difference for the explore
    pool, one scalar draw per slot and click probabilities recomputed at
    every user-round, writing the TSV lines of the log itself.
    ``serialize_event_log`` of ``run_feedback_loop`` must be its text."""
    rng = np.random.default_rng(seed)
    n_users, n_items = world.n_users, world.n_items
    m = policy.slate_size
    user_ids = [f"u{u:04d}" for u in range(n_users)]
    item_ids = [f"i{v:04d}" for v in range(n_items)]
    click_counts = np.zeros(n_items)
    expo_counts = np.zeros(n_items)
    click_seqs = [[] for _ in range(n_users)]
    lines_by_user = {u: [] for u in user_ids}
    scorer = None
    for rnd in range(policy.rounds):
        if (policy.kind == "model" and rnd > 0
                and sum(len(s) > 1 for s in click_seqs) >= 10):
            scorer = _fit_policy_model(world, click_seqs, seed + rnd)
        pop = np.log1p(expo_counts)
        model_scores = None
        if scorer is not None:
            max_len = min(POLICY_MAX_LEN, max(2, max(len(s) for s in click_seqs)))
            prefixes = np.stack([np.asarray(truncate_pad(s, max_len), dtype=np.int64)
                                 for s in click_seqs])
            H, _ = scorer.forward_states(prefixes)
            model_scores = scorer.all_logits(H[:, -1, :], "main")
        for u in range(n_users):
            if policy.kind == "uniform":
                slate = rng.choice(n_items, size=m, replace=False)
            elif policy.kind == "popularity":
                weights = click_counts + 1.0
                slate = rng.choice(n_items, size=m, replace=False,
                                   p=weights / weights.sum())
            else:
                noise = rng.gumbel(0.0, NOISE, size=n_items)
                if model_scores is not None and click_seqs[u]:
                    scores = model_scores[u] + POP_BONUS * pop + noise
                else:
                    scores = POP_BONUS * pop + noise
                n_explore = int(round(EXPLORE_EPS * m))
                top = np.argsort(-scores, kind="stable")[:m - n_explore]
                slate = top
                if n_explore:
                    rest = np.setdiff1d(np.arange(n_items), top)
                    slate = np.concatenate(
                        [top, rng.choice(rest, size=n_explore, replace=False)])
            last = click_seqs[u][-1] - 1 if click_seqs[u] else None
            pi = world.click_probs(u, last)
            uid = user_ids[u]
            for slot, v in enumerate(slate):
                t = rnd * m + slot
                lines_by_user[uid].append(f"{uid}\t{item_ids[v]}\t{t}\t{EXPOSURE}\n")
                expo_counts[v] += 1.0
                if rng.random() < pi[v]:
                    lines_by_user[uid].append(f"{uid}\t{item_ids[v]}\t{t}\t{CLICK}\n")
                    click_seqs[u].append(v + 1)
                    click_counts[v] += 1.0
                    last = v
                    pi = world.click_probs(u, last)
    return "".join(line for u in user_ids for line in lines_by_user[u])


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("slate_size", [1, 4, 10])
@pytest.mark.parametrize("kind", ["uniform", "popularity", "model"])
def test_feedback_loop_matches_reference(small_world, kind, slate_size, seed):
    # slate size 1 has no explore slot; 4 and 10 have one and three
    policy = LoggingPolicy(kind=kind, slate_size=slate_size, rounds=4)
    got = serialize_event_log(run_feedback_loop(small_world, policy, seed=seed))
    want = _reference_feedback_loop(small_world, policy, seed)
    assert got == want


def exposure_gini(log: EventLog) -> float:
    """Gini coefficient of per-item exposure counts (0 = even, 1 = skewed)."""
    x = np.sort(log.exposure_counts())
    n = len(x)
    total = x.sum()
    if total == 0:
        return 0.0
    cum = np.cumsum(x)
    return float((n + 1 - 2 * np.sum(cum) / total) / n)


def test_skewed_policies_concentrate_exposure(small_world):
    uniform = run_feedback_loop(small_world, LoggingPolicy(kind="uniform",
                                                           slate_size=4,
                                                           rounds=5), seed=0)
    model = run_feedback_loop(small_world, LoggingPolicy(kind="model",
                                                         slate_size=4,
                                                         rounds=5), seed=0)
    assert exposure_gini(model) > exposure_gini(uniform)


def test_unknown_policy_kind():
    with pytest.raises(ValueError):
        LoggingPolicy(kind="greedy", slate_size=10, rounds=20)


def test_oracle_evaluate_deterministic_and_bounded(small_world):
    from drorec.model import SeqModel
    model = SeqModel(20, 4, 6, "recurrent", seed=0)
    prefixes = [[1, 2], [3], [4, 5, 6]]
    users = [0, 1, 2]
    v1 = oracle_evaluate(model, small_world, prefixes, users, 5, "ndcg")
    v2 = oracle_evaluate(model, small_world, prefixes, users, 5, "ndcg")
    assert v1 == v2
    assert 0.0 <= v1 <= 1.0


def test_true_preference_ranker_is_best(small_world):
    # the oracle value of the true-preference ranking upper-bounds a
    # random model's oracle value
    from drorec.model import SeqModel
    model = SeqModel(20, 4, 6, "recurrent", seed=1)
    prefixes = [[1, 2, 3]] * 10
    users = list(range(10))
    ub = true_preference_ranking_value(small_world, prefixes, users, 5, "ndcg")
    got = oracle_evaluate(model, small_world, prefixes, users, 5, "ndcg")
    assert ub >= got
