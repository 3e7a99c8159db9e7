"""Synthetic feedback-loop world with known ground-truth preferences.

Click probabilities come from user/item latent factors plus a small
sequential drift term keyed on the user's last click.  Logging policies
expose fixed-size slates each round; the popularity-skewed and
model-based policies reinforce their own past choices, which is exactly
the biased feedback loop the debiasing machinery is meant to fight.
Because the true preference is known, the world supports oracle
evaluation that no logged dataset can provide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CLICK, EXPOSURE, Catalog, Event, EventLog, truncate_pad
from .evaluation import metric_values
from .model import SeqModel
from .nn import sigmoid

POLICY_KINDS = ("uniform", "popularity", "model")

# click logits: PREF_SCALE * <user, item> + DRIFT_SCALE * <drift of the
# last click, drift of the item> + BIAS
PREF_SCALE = 7.0
DRIFT_SCALE = 0.8
BIAS = -3.0

# the model policy: its selection scores, and the recurrent scorer
# refit on the click histories before every round after the first
POP_BONUS = 3.0        # weight of log(1 + exposures so far)
NOISE = 0.3            # Gumbel noise scale
EXPLORE_EPS = 0.3      # fraction of slate slots filled uniformly
POLICY_DIM = 16
POLICY_EPOCHS = 2
POLICY_LR = 0.01


@dataclass
class GroundTruthWorld:
    user_vecs: np.ndarray    # (n_users, dim)
    item_vecs: np.ndarray    # (n_items, dim)
    drift_vecs: np.ndarray   # (n_items, dim)
    pref_scale: float
    drift_scale: float
    bias: float
    seed: int

    @property
    def n_users(self) -> int:
        return self.user_vecs.shape[0]

    @property
    def n_items(self) -> int:
        return self.item_vecs.shape[0]

    def click_probs(self, user: int, last_click: int | None = None) -> np.ndarray:
        """True click probability for every item given the user's last click.

        Items are 0-based here; last_click None means no history yet.
        """
        logits = self.pref_scale * (self.item_vecs @ self.user_vecs[user])
        if last_click is not None:
            logits = logits + self.drift_scale * (self.drift_vecs @ self.drift_vecs[last_click])
        return sigmoid(logits + self.bias)

    def next_click_distribution(self, user: int, last_click: int | None = None) -> np.ndarray:
        pi = self.click_probs(user, last_click)
        return pi / pi.sum()

    def save(self, path) -> None:
        np.savez(path, user_vecs=self.user_vecs, item_vecs=self.item_vecs,
                 drift_vecs=self.drift_vecs,
                 scalars=np.array([self.pref_scale, self.drift_scale,
                                   self.bias, self.seed]))

    @classmethod
    def load(cls, path) -> "GroundTruthWorld":
        with np.load(path) as data:
            s = data["scalars"]
            return cls(user_vecs=data["user_vecs"], item_vecs=data["item_vecs"],
                       drift_vecs=data["drift_vecs"], pref_scale=float(s[0]),
                       drift_scale=float(s[1]), bias=float(s[2]), seed=int(s[3]))


def generate_world(n_users: int, n_items: int, latent_dim: int,
                   seed: int) -> GroundTruthWorld:
    """Deterministic world from a seed; latents are unit-variance gaussian."""
    if n_users < 2 or n_items < 2:
        raise ValueError("world needs at least 2 users and 2 items")
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(latent_dim)
    return GroundTruthWorld(
        user_vecs=rng.normal(0.0, scale, (n_users, latent_dim)),
        item_vecs=rng.normal(0.0, scale, (n_items, latent_dim)),
        drift_vecs=rng.normal(0.0, scale, (n_items, latent_dim)),
        pref_scale=PREF_SCALE, drift_scale=DRIFT_SCALE, bias=BIAS, seed=seed)


@dataclass
class LoggingPolicy:
    kind: str = "model"
    slate_size: int = 10
    rounds: int = 20

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")


def run_feedback_loop(world: GroundTruthWorld, policy: LoggingPolicy,
                      seed: int) -> EventLog:
    """Simulate rounds of expose-then-click under the given policy.

    Clicked items enter the user's history and, for the model-based
    policy, the scorer retrained between rounds, so later exposure
    depends on earlier system behavior.
    """
    rng = np.random.default_rng(seed)
    n_users, n_items = world.n_users, world.n_items
    m = policy.slate_size
    user_ids = [f"u{u:04d}" for u in range(n_users)]
    item_ids = [f"i{v:04d}" for v in range(n_items)]
    catalog = Catalog(list(user_ids), list(item_ids))

    click_counts = np.zeros(n_items)
    expo_counts = np.zeros(n_items)
    click_seqs: list[list[int]] = [[] for _ in range(n_users)]   # 1-based indices
    events_by_user: dict[str, list[Event]] = {u: [] for u in user_ids}
    scorer: SeqModel | None = None

    for rnd in range(policy.rounds):
        if (policy.kind == "model" and rnd > 0
                and sum(len(s) > 1 for s in click_seqs) >= 10):
            scorer = _fit_policy_model(world, click_seqs, seed + rnd)

        # the model policy reinforces what the system has already shown,
        # independent of whether anyone liked it
        pop = np.log1p(expo_counts)
        if scorer is not None:
            max_len = min(20, max(2, max(len(s) for s in click_seqs)))
            prefixes = np.stack([
                np.asarray(truncate_pad(s, max_len), dtype=np.int64)
                for s in click_seqs])
            H, _ = scorer.forward_states(prefixes)
            model_scores = scorer.all_logits(H[:, -1, :], "main")
        else:
            model_scores = None

        for u in range(n_users):
            if policy.kind == "uniform":
                slate = rng.choice(n_items, size=m, replace=False)
            elif policy.kind == "popularity":
                weights = click_counts + 1.0
                p = weights / weights.sum()
                slate = rng.choice(n_items, size=m, replace=False, p=p)
            else:
                noise = rng.gumbel(0.0, NOISE, size=n_items)
                if model_scores is not None and click_seqs[u]:
                    scores = model_scores[u] + POP_BONUS * pop + noise
                else:
                    scores = POP_BONUS * pop + noise
                n_explore = int(round(EXPLORE_EPS * m))
                top = np.argsort(-scores, kind="stable")[:m - n_explore]
                if n_explore:
                    rest = np.setdiff1d(np.arange(n_items), top)
                    slate = np.concatenate([top, rng.choice(rest, size=n_explore,
                                                            replace=False)])
                else:
                    slate = top

            last = click_seqs[u][-1] - 1 if click_seqs[u] else None
            pi = world.click_probs(u, last)
            uid = user_ids[u]
            for slot, v in enumerate(slate):
                t = rnd * m + slot
                events_by_user[uid].append(Event(uid, item_ids[v], t, EXPOSURE))
                expo_counts[v] += 1.0
                if rng.random() < pi[v]:
                    events_by_user[uid].append(Event(uid, item_ids[v], t, CLICK))
                    click_seqs[u].append(v + 1)
                    click_counts[v] += 1.0
                    last = v
                    pi = world.click_probs(u, last)

    return EventLog(events_by_user, catalog)


def _fit_policy_model(world, click_seqs, seed: int) -> SeqModel:
    from .data import sequences_to_matrix
    from .dro import train_model

    trainable = [s for s in click_seqs if len(s) > 1]
    max_len = min(20, max(len(s) for s in trainable))
    mat = sequences_to_matrix(trainable, max_len)
    model = SeqModel(world.n_items, POLICY_DIM, max_len, "recurrent", seed=seed)
    train_model(model, mat, method="none", epochs=POLICY_EPOCHS, lr=POLICY_LR,
                batch_size=256, seed=seed)
    return model.freeze()


def exposure_gini(log: EventLog) -> float:
    """Gini coefficient of per-item exposure counts (0 = even, 1 = skewed)."""
    counts = np.zeros(log.catalog.n_items)
    for e in log.exposure_events():
        counts[log.catalog.item_index(e.item) - 1] += 1
    x = np.sort(counts)
    n = len(x)
    total = x.sum()
    if total == 0:
        return 0.0
    cum = np.cumsum(x)
    return float((n + 1 - 2 * np.sum(cum) / total) / n)


def oracle_evaluate(model, world: GroundTruthWorld, prefixes: list[list[int]],
                    user_indices: list[int], k: int, kind: str) -> float:
    """Expected next-click metric under the true preference distribution.

    For each user the model's full-catalog ranking is scored against the
    exact distribution pi(. | last click) / sum pi, so the value is the
    zero-variance version of sampling true next clicks.  Deterministic
    given (model, world, prefixes).
    """
    from .data import sequences_to_matrix

    mat = sequences_to_matrix(prefixes, model.max_len)
    H, _ = model.forward_states(mat)
    logits = model.all_logits(H[:, -1, :], "main")
    order = np.argsort(-logits, axis=1, kind="stable")     # 0-based item ids
    total = 0.0
    for row, (u, prefix) in enumerate(zip(user_indices, prefixes)):
        last = prefix[-1] - 1 if prefix else None
        pi = world.next_click_distribution(u, last)
        ranks = np.empty(world.n_items)
        ranks[order[row]] = np.arange(1, world.n_items + 1)
        total += float(np.sum(pi * metric_values(ranks, k, kind)))
    return total / len(prefixes)


def true_preference_ranking_value(world: GroundTruthWorld, prefixes, user_indices,
                                  k: int, kind: str) -> float:
    """Oracle value of the ranker that sorts items by true preference."""
    total = 0.0
    for u, prefix in zip(user_indices, prefixes):
        last = prefix[-1] - 1 if prefix else None
        pi = world.next_click_distribution(u, last)
        order = np.argsort(-pi, kind="stable")
        ranks = np.empty(world.n_items)
        ranks[order] = np.arange(1, world.n_items + 1)
        total += float(np.sum(pi * metric_values(ranks, k, kind)))
    return total / len(prefixes)
