"""Event logs, user sequences, catalog and dataset splits.

The on-disk format is a UTF-8 TSV with one event per line:
``user_id<TAB>item_id<TAB>timestamp<TAB>kind`` where kind is ``exposure``
or ``click``.  Lines starting with ``#`` are ignored.  Clicks are only
valid on items the same user was exposed to at an earlier-or-equal
timestamp; anything else is treated as a corrupt log.

In memory a log is an `EventLog`: integer columns (user index, item index,
timestamp, click flag) under a `Catalog`, one row per event, sorted by
user, then time.  This module alone reads and writes those columns; the
exposure simulator, the feedback loop and the pipeline reach a log only
through the functions and methods here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

EXPOSURE = "exposure"
CLICK = "click"

PAD_INDEX = 0
PAD_ITEM = "<pad>"        # the id item_of gives the pad index
NEVER = np.iinfo(np.int64).max   # exposure time of a pair never exposed, so no event may have it


class ParseError(ValueError):
    """Malformed event-log line."""


class IntegrityError(ValueError):
    """Event log violates the click-implies-exposure invariant."""


# how far split ratios may sum from 1
RATIO_TOL = 1e-9


class ConfigurationError(ValueError):
    """Invalid split configuration."""


class CatalogMismatchError(ValueError):
    """A checkpoint was trained on a different item catalog."""


@dataclass
class Catalog:
    """Ordered user/item id sets with a dense index mapping.

    Index 0 is reserved for the pad item; real items map to 1..n_items.
    """

    user_ids: list[str]
    item_ids: list[str]

    def __post_init__(self):
        if len(set(self.user_ids)) != len(self.user_ids):
            raise ValueError("duplicate user ids")
        if len(set(self.item_ids)) != len(self.item_ids):
            raise ValueError("duplicate item ids")
        if PAD_ITEM in self.item_ids:
            raise ValueError("pad item collides with a catalog item")
        self._user_index = {u: i for i, u in enumerate(self.user_ids)}

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    def user_index(self, user: str) -> int:
        return self._user_index[user]

    def item_of(self, index: int) -> str:
        if index == PAD_INDEX:
            return PAD_ITEM
        return self.item_ids[index - 1]

    @property
    def fingerprint(self) -> str:
        """Hash of the ordered item ids, which fix every item index."""
        return hashlib.sha256("\n".join(self.item_ids).encode()).hexdigest()[:16]

    def check_fingerprint(self, found: str, source) -> None:
        """Raise CatalogMismatchError unless ``found`` names this catalog."""
        if found != self.fingerprint:
            raise CatalogMismatchError(
                f"{source} was trained on catalog {found or '(unrecorded)'}, "
                f"but the event log's catalog is {self.fingerprint}")


@dataclass(eq=False)
class EventLog:
    """One row per event, as integer columns under a catalog: ``user``
    indexes ``catalog.user_ids``, ``item`` is 1-based into ``catalog.item_ids``.
    Construction sorts the rows by user, then time, exposures before clicks
    at one time, stably, so rows that tie keep their given order."""

    user: np.ndarray     # (n,) int64
    item: np.ndarray     # (n,) int64
    time: np.ndarray     # (n,) int64
    click: np.ndarray    # (n,) bool
    catalog: Catalog

    def __post_init__(self):
        user, item, time = (np.asarray(c, dtype=np.int64) for c in (self.user, self.item, self.time))
        click = np.asarray(self.click, dtype=bool)
        order = np.lexsort((click, time, user))
        self.user, self.item, self.time, self.click = (c[order] for c in (user, item, time, click))

    def rows(self, index) -> "EventLog":
        """The rows ``index`` selects, as a log over the same catalog."""
        return EventLog(self.user[index], self.item[index], self.time[index],
                        self.click[index], self.catalog)

    def item_sequences(self, clicks: bool) -> list[list[int]]:
        """For every catalog user, the item indices of their clicks, or
        of their exposures, in row order."""
        rows = self.click == clicks
        bounds = np.searchsorted(self.user[rows], np.arange(self.catalog.n_users + 1)).tolist()
        items = self.item[rows].tolist()
        return [items[a:b] for a, b in zip(bounds, bounds[1:])]

    def exposure_counts(self) -> np.ndarray:
        """Exposures per item, at position item index - 1."""
        return np.bincount(self.item[~self.click] - 1, minlength=self.catalog.n_items)

    def shared_events(self, other: "EventLog") -> int:
        """How many distinct events, equal in all four columns, both logs
        hold; the two must index one catalog."""
        n = len(self.user) + len(other.user)
        side = np.arange(n) >= len(self.user)          # True on the rows of other
        cols = [np.concatenate((getattr(self, c), getattr(other, c)))
                for c in ("click", "time", "item", "user")]
        order = np.lexsort([side] + cols)
        cols, side = [c[order] for c in cols], side[order]
        # equal rows are now adjacent, this log's first: a distinct row both
        # logs hold starts on one of this log's and ends on one of other's
        bound = np.zeros(n + 1, dtype=bool)          # a distinct row starts at i, or i = n
        bound[[0, -1]] = True
        for c in cols:
            bound[1:-1] |= c[1:] != c[:-1]
        starts = np.flatnonzero(bound)
        return int(np.sum(~side[starts[:-1]] & side[starts[1:] - 1]))


@dataclass
class DatasetSplit:
    train_users: list[str]
    valid_users: list[str]
    test_users: list[str]


def parse_event_log(stream: Iterable[str]) -> EventLog:
    """Parse TSV lines into an EventLog, checking structural integrity.

    Users and items are indexed in order of first appearance.  Raises
    ParseError on malformed lines and IntegrityError when a click has no
    prior exposure of the same item for the same user.
    """
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    users, items, times, clicks = [], [], [], []

    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError(f"line {lineno}: expected 4 tab-separated columns, got {len(parts)}")
        user, item, ts_str, kind = parts
        try:
            ts = int(ts_str)
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer timestamp {ts_str!r}") from None
        if ts < 0:
            raise ParseError(f"line {lineno}: negative timestamp {ts}")
        if ts >= NEVER:
            raise ParseError(f"line {lineno}: timestamp {ts} out of range")
        if kind not in (EXPOSURE, CLICK):
            raise ParseError(f"line {lineno}: unknown kind {kind!r}")
        users.append(user_index.setdefault(user, len(user_index)))
        items.append(item_index.setdefault(item, len(item_index) + 1))
        times.append(ts)
        clicks.append(kind == CLICK)

    log = EventLog(users, items, times, clicks, Catalog(list(user_index), list(item_index)))
    # the earliest exposure time of every (user, item) pair that occurs
    pairs, pair_of = np.unique(log.user * (log.catalog.n_items + 1) + log.item, return_inverse=True)
    exposed_at = np.full(len(pairs), NEVER)
    np.minimum.at(exposed_at, pair_of[~log.click], log.time[~log.click])
    bad = np.flatnonzero(log.click & ~(exposed_at[pair_of] <= log.time))
    if len(bad):
        user, item, ts = (int(c[bad[0]]) for c in (log.user, log.item, log.time))
        raise IntegrityError(f"click on {log.catalog.item_of(item)!r} by "
                             f"{log.catalog.user_ids[user]!r} at t={ts} without a prior exposure")
    return log


def serialize_event_log(log: EventLog) -> str:
    """Inverse of parse_event_log up to event ordering within a user."""
    users, items, kinds = log.catalog.user_ids, log.catalog.item_ids, (EXPOSURE, CLICK)
    return "".join(f"{users[u]}\t{items[i - 1]}\t{t}\t{kinds[c]}\n"
                   for u, i, t, c in zip(log.user.tolist(), log.item.tolist(),
                                         log.time.tolist(), log.click.tolist()))


def split_by_user(log: EventLog, ratios: tuple[float, float, float], seed: int) -> DatasetSplit:
    """Partition users into train/valid/test by a seeded shuffle.

    Sizes are floor(ratio * n) with the remainder assigned to train, so
    the partition is deterministic and exhaustive.
    """
    r_train, r_valid, r_test = ratios
    if min(ratios) <= 0:
        raise ConfigurationError("split ratios must be positive")
    if abs(sum(ratios) - 1.0) > RATIO_TOL:
        raise ConfigurationError(f"split ratios must sum to 1, got {sum(ratios)}")
    users = list(log.catalog.user_ids)
    n = len(users)
    n_valid = int(np.floor(r_valid * n))
    n_test = int(np.floor(r_test * n))
    n_train = n - n_valid - n_test
    if min(n_train, n_valid, n_test) < 1:
        raise ConfigurationError(
            f"{n} users cannot fill a {ratios} train/valid/test split"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    shuffled = [users[i] for i in perm]
    return DatasetSplit(
        train_users=sorted(shuffled[:n_train]),
        valid_users=sorted(shuffled[n_train:n_train + n_valid]),
        test_users=sorted(shuffled[n_train + n_valid:]),
    )


def split_exposure(log: EventLog, fraction: float) -> tuple[EventLog, EventLog]:
    """Split each user's exposure stream chronologically.

    The earliest ceil(fraction * n) exposures go to the first part (the
    one the exposure simulator trains on), the rest to the second (the
    evaluation-simulator part); both are logs over the catalog of ``log``.
    """
    if not (0.0 < fraction < 1.0):
        raise ConfigurationError(f"exposure fraction must be in (0, 1), got {fraction}")
    exposures = np.flatnonzero(~log.click)
    users = log.user[exposures]
    counts = np.bincount(users, minlength=log.catalog.n_users)
    rank = np.arange(len(exposures)) - (np.cumsum(counts) - counts)[users]
    first = rank < np.ceil(fraction * counts)[users]
    return log.rows(exposures[first]), log.rows(exposures[~first])


def truncate_pad(seq: list[int], max_len: int) -> list[int]:
    """Keep the most recent max_len items, left-padding shorter sequences."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    tail = seq[-max_len:]
    return [PAD_INDEX] * (max_len - len(tail)) + list(tail)


def sequences_to_matrix(seqs: list[list[int]], max_len: int) -> np.ndarray:
    """Stack truncated/padded index sequences into an (n, max_len) int array."""
    out = np.zeros((len(seqs), max_len), dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i] = truncate_pad(s, max_len)
    return out


def index_sequences(log: EventLog, users: list[str]) -> list[list[int]]:
    """Per-user clicked item-index sequences for the given users."""
    seqs = log.item_sequences(clicks=True)
    return [seqs[log.catalog.user_index(u)] for u in users]
