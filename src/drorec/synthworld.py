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

from .data import Catalog, EventLog, sequences_to_matrix, truncate_pad
from .dro import train_model
from .evaluation import metric_values
from .model import SeqModel
from .nn import ADAM_BETA2, sigmoid

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
POLICY_BATCH = 256
POLICY_MAX_LEN = 20    # length cap of the refit's sequences and of the prefixes it scores


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
    kind: str
    slate_size: int
    rounds: int

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
    click_counts = np.zeros(n_items)
    expo_counts = np.zeros(n_items)
    click_seqs: list[list[int]] = [[] for _ in range(n_users)]   # 1-based indices
    shown = np.empty((policy.rounds, n_users, m), dtype=np.int64)  # 0-based slate items
    clicked = np.zeros(shown.shape, dtype=bool)
    scorer: SeqModel | None = None

    # each user's click probabilities given their last click; they change only on a click
    pis = [world.click_probs(u) for u in range(n_users)]
    for rnd in range(policy.rounds):
        if (policy.kind == "model" and rnd > 0
                and sum(len(s) > 1 for s in click_seqs) >= 10):
            scorer = _fit_policy_model(world, click_seqs, seed + rnd)

        # the model policy reinforces what the system has already shown,
        # independent of whether anyone liked it
        pop_bonus = POP_BONUS * np.log1p(expo_counts)
        if scorer is not None:
            max_len = min(POLICY_MAX_LEN, max(2, max(len(s) for s in click_seqs)))
            prefixes = np.stack([
                np.asarray(truncate_pad(s, max_len), dtype=np.int64)
                for s in click_seqs])
            # hold only the logits: a name bound to the encoder's states or
            # forward cache would keep them alive until the log is written
            model_scores = scorer.all_logits(scorer.forward_states(prefixes)[0][:, -1, :],
                                             "main")
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
                    scores = model_scores[u] + pop_bonus + noise
                else:
                    scores = pop_bonus + noise
                n_explore = int(round(EXPLORE_EPS * m))
                top = np.argsort(-scores, kind="stable")[:m - n_explore]
                if n_explore:
                    rest = np.ones(n_items, dtype=bool)     # the sorted complement of top
                    rest[top] = False
                    explore = rng.choice(np.flatnonzero(rest), size=n_explore, replace=False)
                    slate = np.concatenate([top, explore])
                else:
                    slate = top

            # slate items are distinct and the counts are read next round; the
            # draws are the stream one scalar draw per slot would take
            shown[rnd, u] = slate
            expo_counts[slate] += 1.0
            draws = rng.random(len(slate))
            for slot, v in enumerate(slate):
                if draws[slot] < pis[u][v]:
                    clicked[rnd, u, slot] = True
                    click_seqs[u].append(v + 1)
                    click_counts[v] += 1.0
                    pis[u] = world.click_probs(u, v)

    # slot s of round r is shown at time r * m + s, and clicked then if it is:
    # every slate entry is an exposure row, then every clicked one a click row
    c_rounds, c_users, c_slots = np.nonzero(clicked)
    expo_users = np.broadcast_to(np.arange(n_users)[:, None], shown.shape)
    expo_times = np.broadcast_to(np.arange(policy.rounds * m).reshape(-1, 1, m), shown.shape)
    return EventLog(user=np.concatenate((expo_users.ravel(), c_users)),
                    item=np.concatenate((shown.ravel(), shown[c_rounds, c_users, c_slots])) + 1,
                    time=np.concatenate((expo_times.ravel(), c_rounds * m + c_slots)),
                    click=np.arange(shown.size + len(c_users)) >= shown.size,
                    catalog=Catalog([f"u{u:04d}" for u in range(n_users)],
                                    [f"i{v:04d}" for v in range(n_items)]))


def _fit_policy_model(world, click_seqs, seed: int) -> SeqModel:
    trainable = [s for s in click_seqs if len(s) > 1]
    max_len = min(POLICY_MAX_LEN, max(len(s) for s in trainable))
    mat = sequences_to_matrix(trainable, max_len)
    model = SeqModel(world.n_items, POLICY_DIM, max_len, "recurrent", seed=seed)
    train_model(model, mat, method="none", epochs=POLICY_EPOCHS, lr=POLICY_LR,
                batch_size=POLICY_BATCH, seed=seed, beta2=ADAM_BETA2)
    return model.freeze()


def oracle_evaluate(model, world: GroundTruthWorld, prefixes: list[list[int]],
                    user_indices: list[int], k: int, kind: str) -> float:
    """Expected next-click metric under the true preference distribution.

    For each user the model's full-catalog ranking is scored against the
    exact distribution pi(. | last click) / sum pi, so the value is the
    zero-variance version of sampling true next clicks.  Deterministic
    given (model, world, prefixes).
    """
    mat = sequences_to_matrix(prefixes, model.max_len)
    H, _ = model.forward_states(mat)
    logits = model.all_logits(H[:, -1, :], "main")
    order = np.argsort(-logits, axis=1, kind="stable")     # 0-based item ids
    return _expected_metric(world, prefixes, user_indices, k, kind,
                            lambda row, pi: order[row])


def true_preference_ranking_value(world: GroundTruthWorld, prefixes, user_indices,
                                  k: int, kind: str) -> float:
    """Oracle value of the ranker that sorts items by true preference."""
    return _expected_metric(world, prefixes, user_indices, k, kind,
                            lambda row, pi: np.argsort(-pi, kind="stable"))


def _expected_metric(world, prefixes, user_indices, k, kind, order_of) -> float:
    """Mean over users of E_pi[c(rank)], ranking by ``order_of(row, pi)``,
    the 0-based item ids of the row's ranking given its true distribution."""
    total = 0.0
    for row, (u, prefix) in enumerate(zip(user_indices, prefixes)):
        last = prefix[-1] - 1 if prefix else None
        pi = world.next_click_distribution(u, last)
        ranks = np.empty(world.n_items)
        ranks[order_of(row, pi)] = np.arange(1, world.n_items + 1)
        total += float(np.sum(pi * metric_values(ranks, k, kind)))
    return total / len(prefixes)
