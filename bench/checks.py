"""Output checks made apart from drorec, from the files a run leaves behind.

Each check recomputes what it can from `events.tsv` and `world.npz` with its
own code: the event-log structure, the simulators' popularity counts, the
test split, ranks with their tie-break, the SNIPS weighting, coverage and the
oracle NDCG.  Where a value needs a trained network (logits, q0), the check
loads the checkpoint through drorec's public API and tests a property the
method must have.  Nothing is compared with a stored copy of earlier output.
Every check raises `CheckFailed` with a reason when the output is wrong.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TOL = 1e-9
PROPENSITY_FLOOR = 1e-6
ORACLE_K = 10


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class EventFile:
    """events.tsv read without drorec: ids in first-appearance order."""

    users: list[str] = field(default_factory=list)
    items: list[str] = field(default_factory=list)
    exposures: dict[str, list[tuple[int, str]]] = field(default_factory=dict)
    clicks: dict[str, list[tuple[int, str]]] = field(default_factory=dict)
    index: dict[str, int] = field(default_factory=dict)   # item id -> 1-based

    def click_indices(self, user: str) -> list[int]:
        """The user's clicked items in time order, as catalog indices."""
        return [self.index[item] for _, item in sorted(self.clicks[user], key=lambda e: e[0])]


def read_events(path: Path) -> EventFile:
    ev = EventFile()
    seen_items: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            _require(len(parts) == 4, f"events.tsv line {lineno}: {len(parts)} columns")
            user, item, ts, kind = parts
            if user not in ev.exposures:
                ev.users.append(user)
                ev.exposures[user] = []
                ev.clicks[user] = []
            if item not in seen_items:
                seen_items.add(item)
                ev.items.append(item)
            _require(kind in ("exposure", "click"), f"events.tsv line {lineno}: kind {kind!r}")
            (ev.exposures if kind == "exposure" else ev.clicks)[user].append((int(ts), item))
    ev.index = {item: i + 1 for i, item in enumerate(ev.items)}
    return ev


def check_events(ev: EventFile, n_users: int, rounds: int, slate_size: int) -> None:
    """Every user has rounds x slate exposures, slate distinct items per
    round, and every click has an earlier-or-equal exposure of its item."""
    _require(len(ev.users) == n_users, f"{len(ev.users)} users in the log, expected {n_users}")
    for user in ev.users:
        expos = ev.exposures[user]
        _require(len(expos) == rounds * slate_size,
                 f"{user}: {len(expos)} exposures, expected {rounds * slate_size}")
        per_round: dict[int, list[str]] = {}
        first_seen: dict[str, int] = {}
        for ts, item in expos:
            per_round.setdefault(ts // slate_size, []).append(item)
            first_seen[item] = min(ts, first_seen.get(item, ts))
        for rnd in range(rounds):
            slate = per_round.get(rnd, [])
            _require(len(slate) == slate_size and len(set(slate)) == slate_size,
                     f"{user}: round {rnd} has {len(set(slate))} distinct items "
                     f"in {len(slate)} exposures, expected {slate_size}")
        for ts, item in ev.clicks[user]:
            _require(item in first_seen and first_seen[item] <= ts,
                     f"{user}: click on {item} at t={ts} without an earlier exposure")


def check_pop_counts(ev: EventFile, run_dir: Path, expo_fraction: float) -> None:
    """Each simulator's pop_counts is the exposure count over its partition:
    the first ceil(fraction * n) of each user's exposures, or the rest."""
    first = np.zeros(len(ev.items), dtype=np.int64)
    rest = np.zeros(len(ev.items), dtype=np.int64)
    for user in ev.users:
        expos = sorted(ev.exposures[user], key=lambda e: e[0])
        cut = math.ceil(expo_fraction * len(expos))
        for pos, (_, item) in enumerate(expos):
            (first if pos < cut else rest)[ev.index[item] - 1] += 1
    for name, expected in (("expo_sim.npz", first), ("eval_sim.npz", rest)):
        with np.load(run_dir / name) as ckpt:
            counts = ckpt["pop_counts"]
        _require(counts.shape == expected.shape and np.array_equal(counts, expected),
                 f"{name}: pop_counts differ from the exposure partition in "
                 f"{int(np.sum(counts != expected)) if counts.shape == expected.shape else 'shape'} items")


def _padded(seqs: list[list[int]], max_len: int) -> np.ndarray:
    mat = np.zeros((len(seqs), max_len), dtype=np.int64)
    for row, seq in enumerate(seqs):
        tail = seq[-max_len:]
        mat[row, max_len - len(tail):] = tail
    return mat


def check_q0(ev: EventFile, run_dir: Path, beta: float, prefix_len: int,
             seed: int, n_samples: int = 32) -> None:
    """sum mu0 = 2 + beta and sum q0 = 1 within TOL on sampled prefixes."""
    from drorec.exposure import ExposureSimulator

    rng = np.random.default_rng(seed)
    histories = [h for h in (ev.click_indices(u) for u in ev.users) if h]
    picks = rng.choice(len(histories), size=min(n_samples, len(histories)), replace=False)
    prefixes = [histories[i][:int(rng.integers(1, len(histories[i]) + 1))] for i in picks]
    mat = _padded(prefixes, prefix_len)
    for name in ("expo_sim.npz", "eval_sim.npz"):
        sim = ExposureSimulator.load(run_dir / name)
        mu0 = sim.mu0_all_positions(mat)[:, -1, :]
        q0 = sim.q0_all_positions(mat)[:, -1, :]
        err_mu = float(np.max(np.abs(mu0.sum(axis=1) - (2.0 + beta))))
        err_q = float(np.max(np.abs(q0.sum(axis=1) - 1.0)))
        _require(err_mu <= TOL, f"{name}: sum mu0 off 2 + beta by {err_mu:.3g}")
        _require(err_q <= TOL and bool(np.all(q0 >= 0.0)),
                 f"{name}: q0 is not a distribution (sum off by {err_q:.3g})")


def check_model(run_dir: Path) -> None:
    """model.npz is finite with a zero pad embedding; loss_dro lies in [0, 1]."""
    with np.load(run_dir / "model.npz") as ckpt:
        params = {k: ckpt[k] for k in ckpt.files if not k.startswith("__meta__")}
    _require("emb" in params, "model.npz has no embedding table")
    for name, value in params.items():
        _require(bool(np.all(np.isfinite(value))), f"model.npz: {name} is not finite")
    _require(not np.any(params["emb"][0]), "model.npz: embedding row 0 (pad) is not zero")
    lines = (run_dir / "train_log.jsonl").read_text().splitlines()
    _require(len(lines) > 0, "train_log.jsonl is empty")
    for lineno, line in enumerate(lines, start=1):
        loss = json.loads(line)["loss_dro"]
        _require(0.0 <= loss <= 1.0, f"train_log.jsonl line {lineno}: loss_dro {loss} outside [0, 1]")


def split_test_users(users: list[str], ratios: tuple[float, float, float],
                     seed: int) -> list[str]:
    """Test users of the seeded user split: the last floor(ratio * n) of a permutation."""
    n = len(users)
    n_test = int(math.floor(ratios[2] * n))
    perm = np.random.default_rng(seed).permutation(n)
    return sorted(users[i] for i in perm[n - n_test:])


def _order(logits: np.ndarray) -> np.ndarray:
    """0-based items by descending logit, ties by ascending index."""
    idx = np.broadcast_to(np.arange(logits.shape[1]), logits.shape)
    return np.lexsort((idx, -logits), axis=-1)


def _ranks(order: np.ndarray) -> np.ndarray:
    """1-based rank of every item, per row, from a row-wise item order."""
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.broadcast_to(np.arange(1, order.shape[1] + 1), order.shape),
                      axis=1)
    return ranks


def _last_logits(run_dir: Path, seqs: list[list[int]], max_len: int) -> np.ndarray:
    from drorec.model import SeqModel

    model = SeqModel.load(run_dir / "model.npz")
    H, _ = model.forward_states(_padded(seqs, max_len))
    return model.all_logits(H[:, -1, :], "main")


def check_metrics(ev: EventFile, run_dir: Path, cfg) -> None:
    """metrics.json matches ranks, SNIPS weights and coverage recomputed here."""
    from drorec.exposure import ExposureSimulator

    test_users = split_test_users(ev.users, (cfg.train_ratio, cfg.valid_ratio,
                                             cfg.test_ratio), cfg.seed)
    prefixes, targets = [], []
    for user in test_users:
        clicks = ev.click_indices(user)
        if len(clicks) >= 2:
            prefixes.append(clicks[:-1])
            targets.append(clicks[-1])
    targets = np.asarray(targets)
    logits = _last_logits(run_dir, prefixes, cfg.max_click_len)
    order = _order(logits)
    target_rank = _ranks(order)[np.arange(len(targets)), targets - 1]

    sim = ExposureSimulator.load(run_dir / "eval_sim.npz")
    q0 = sim.q0_all_positions(_padded(prefixes, cfg.max_click_len))[:, -1, :]
    rho = np.maximum(q0[np.arange(len(targets)), targets - 1], PROPENSITY_FLOOR)
    weights = rho ** (-cfg.snips_k)

    report = json.loads((run_dir / "metrics.json").read_text())
    _require(report["n_users"] == len(targets),
             f"metrics.json: n_users {report['n_users']}, expected {len(targets)}")
    for k in cfg.k_list:
        hit = target_rank <= k
        values = {"recall": hit.astype(float),
                  "ndcg": np.where(hit, 1.0 / np.log2(target_rank + 1.0), 0.0)}
        for kind, c in values.items():
            expected = {"naive": float(c.mean()),
                        "snips": float(np.sum(weights * c) / np.sum(weights))}
            for variant, value in expected.items():
                got = report["values"][f"{kind}@{k}"][variant]
                _require(abs(got - value) <= TOL * max(1.0, abs(value)),
                         f"metrics.json: {kind}@{k} {variant} = {got}, recomputed {value}")
        cov = len(np.unique(order[:, :k])) / logits.shape[1]
        got = report["coverage"][str(k)]
        _require(abs(got - cov) <= TOL, f"metrics.json: coverage@{k} = {got}, recomputed {cov}")


def _world_click_distribution(world, users: np.ndarray, last: np.ndarray) -> np.ndarray:
    """True next-click distribution per (user, last clicked item), 0-based."""
    pref, drift, bias = world["scalars"][:3]
    logits = (pref * world["user_vecs"][users] @ world["item_vecs"].T
              + drift * world["drift_vecs"][last] @ world["drift_vecs"].T + bias)
    pi = 1.0 / (1.0 + np.exp(-logits))
    return pi / pi.sum(axis=1, keepdims=True)


def oracle_scores(ev: EventFile, run_dir: Path, max_len: int) -> dict[str, float]:
    """The model's ranking for each user's next click, scored against the world.

    Every user with a click history is ranked from that history and scored
    against the world's true next-click distribution given the last click,
    so the scores carry no click-sampling noise.  `ndcg10` is the expected
    NDCG@10 and `rank_pct` the expected rank of the next click as a share of
    the catalog (0 first, 0.5 for a random ranking).  The `_ideal` entries
    are the same scores for the ranking by true preference, the best possible.
    `rank_gain` is the share of the possible improvement on a random ranking
    that the model makes: 0 for a random ranking, 1 for the ideal one.
    """
    users = [u for u in ev.users if ev.clicks[u]]
    histories = [ev.click_indices(u) for u in users]
    item_world = np.array([int(item[1:]) for item in ev.items])
    with np.load(run_dir / "world.npz") as world:
        pi = _world_click_distribution(
            world, np.array([int(u[1:]) for u in users]),
            item_world[[h[-1] - 1 for h in histories]])
    pi = pi[:, item_world]                     # world item order -> catalog order
    n_items = pi.shape[1]
    scores = {}
    for label, order in (("", _order(_last_logits(run_dir, histories, max_len))),
                         ("_ideal", np.argsort(-pi, axis=1, kind="stable"))):
        ranks = _ranks(order)
        gain = np.where(ranks <= ORACLE_K, 1.0 / np.log2(ranks + 1.0), 0.0)
        scores["ndcg10" + label] = float(np.mean(np.sum(pi * gain, axis=1)))
        scores["rank_pct" + label] = float(np.mean(np.sum(pi * (ranks - 1), axis=1))
                                           / (n_items - 1))
    scores["rank_gain"] = (0.5 - scores["rank_pct"]) / (0.5 - scores["rank_pct_ideal"])
    return scores


def check_oracle(scores: dict[str, float]) -> None:
    """No ranking beats the true-preference ranking on the true distribution."""
    _require(0.0 < scores["ndcg10"] <= scores["ndcg10_ideal"] + TOL,
             f"oracle NDCG@{ORACLE_K} {scores['ndcg10']} is not in "
             f"(0, ideal {scores['ndcg10_ideal']}]")
    _require(scores["rank_pct_ideal"] - TOL <= scores["rank_pct"] < 1.0,
             f"oracle rank share {scores['rank_pct']} is not in "
             f"[ideal {scores['rank_pct_ideal']}, 1)")


def same_scores(a: Path, b: Path) -> None:
    """Two metrics.json files report the same metric values and coverage."""
    ra, rb = (json.loads(p.read_text()) for p in (a, b))
    for key in ("values", "coverage", "n_users"):
        _require(ra[key] == rb[key], f"metrics.json {key} differ between {a.parent} and {b.parent}")


def same_file(a: Path, b: Path) -> None:
    """Two outputs hold the same bytes (npz files: the same arrays)."""
    _require(_equal(_file_content(a), _file_content(b)), f"{b} differs from {a}")


def _file_content(path: Path):
    if path.suffix == ".npz":
        with np.load(path) as data:
            return {k: data[k] for k in data.files}
    return path.read_bytes()


def _equal(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)
    return a == b
