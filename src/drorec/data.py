"""Event logs, user sequences, catalog and dataset splits.

The on-disk format is a UTF-8 TSV with one event per line:
``user_id<TAB>item_id<TAB>timestamp<TAB>kind`` where kind is ``exposure``
or ``click``.  Lines starting with ``#`` are ignored.  Clicks are only
valid on items the same user was exposed to at an earlier-or-equal
timestamp; anything else is treated as a corrupt log.
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


class ParseError(ValueError):
    """Malformed event-log line."""


class IntegrityError(ValueError):
    """Event log violates the click-implies-exposure invariant."""


class ConfigurationError(ValueError):
    """Invalid split configuration."""


class CatalogMismatchError(ValueError):
    """A checkpoint was trained on a different item catalog."""


@dataclass(frozen=True)
class Event:
    user: str
    item: str
    timestamp: int
    kind: str


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
        self._item_index = {v: i + 1 for i, v in enumerate(self.item_ids)}
        self._user_index = {u: i for i, u in enumerate(self.user_ids)}

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    def item_index(self, item: str) -> int:
        return self._item_index[item]

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


@dataclass
class EventLog:
    """Events grouped per user and sorted by timestamp."""

    events_by_user: dict[str, list[Event]]
    catalog: Catalog

    def all_events(self) -> list[Event]:
        out: list[Event] = []
        for user in self.catalog.user_ids:
            out.extend(self.events_by_user.get(user, []))
        return out

    def exposure_events(self) -> list[Event]:
        return [e for e in self.all_events() if e.kind == EXPOSURE]

    def interaction_seq(self, user: str) -> list[str]:
        """The user's clicked items in timestamp order."""
        return [e.item for e in self.events_by_user.get(user, []) if e.kind == CLICK]

    def exposure_seq(self, user: str) -> list[str]:
        """All items exposed to the user in timestamp order."""
        return [e.item for e in self.events_by_user.get(user, []) if e.kind == EXPOSURE]


@dataclass
class DatasetSplit:
    train_users: list[str]
    valid_users: list[str]
    test_users: list[str]


def parse_event_log(stream: Iterable[str]) -> EventLog:
    """Parse TSV lines into an EventLog, checking structural integrity.

    Raises ParseError on malformed lines and IntegrityError when a click
    has no prior exposure of the same item for the same user.
    """
    events_by_user: dict[str, list[Event]] = {}
    user_order: list[str] = []
    item_order: list[str] = []
    seen_items: set[str] = set()

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
        if kind not in (EXPOSURE, CLICK):
            raise ParseError(f"line {lineno}: unknown kind {kind!r}")
        if user not in events_by_user:
            events_by_user[user] = []
            user_order.append(user)
        if item not in seen_items:
            seen_items.add(item)
            item_order.append(item)
        events_by_user[user].append(Event(user, item, ts, kind))

    for user, events in events_by_user.items():
        events.sort(key=lambda e: (e.timestamp, 0 if e.kind == EXPOSURE else 1))
        exposed_at: dict[str, int] = {}
        for e in events:
            if e.kind == EXPOSURE:
                prev = exposed_at.get(e.item)
                if prev is None or e.timestamp < prev:
                    exposed_at[e.item] = e.timestamp
            else:
                if e.item not in exposed_at or exposed_at[e.item] > e.timestamp:
                    raise IntegrityError(
                        f"click on {e.item!r} by {user!r} at t={e.timestamp} "
                        "without a prior exposure"
                    )

    catalog = Catalog(user_order, item_order)
    return EventLog(events_by_user, catalog)


def serialize_event_log(log: EventLog) -> str:
    """Inverse of parse_event_log up to event ordering within a user."""
    lines = []
    for e in log.all_events():
        lines.append(f"{e.user}\t{e.item}\t{e.timestamp}\t{e.kind}")
    return "\n".join(lines) + ("\n" if lines else "")


def appearance_ordered(log: EventLog) -> EventLog:
    """The same events under the catalog that parse_event_log gives their
    serialization: users and items in order of first appearance."""
    events = log.all_events()
    users = list(dict.fromkeys(e.user for e in events))
    items = list(dict.fromkeys(e.item for e in events))
    return EventLog({u: log.events_by_user[u] for u in users}, Catalog(users, items))


def split_by_user(log: EventLog, ratios: tuple[float, float, float], seed: int) -> DatasetSplit:
    """Partition users into train/valid/test by a seeded shuffle.

    Sizes are floor(ratio * n) with the remainder assigned to train, so
    the partition is deterministic and exhaustive.
    """
    r_train, r_valid, r_test = ratios
    if min(ratios) <= 0:
        raise ConfigurationError("split ratios must be positive")
    if abs(sum(ratios) - 1.0) > 1e-9:
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


def split_exposure(log: EventLog, fraction: float) -> tuple[list[Event], list[Event]]:
    """Split each user's exposure stream chronologically.

    The earliest ceil(fraction * n) exposures go to the first part (the
    one the exposure simulator trains on), the rest to the second (the
    evaluation-simulator part).
    """
    if not (0.0 < fraction < 1.0):
        raise ConfigurationError(f"exposure fraction must be in (0, 1), got {fraction}")
    first: list[Event] = []
    second: list[Event] = []
    for user in log.catalog.user_ids:
        expos = [e for e in log.events_by_user.get(user, []) if e.kind == EXPOSURE]
        cut = int(np.ceil(fraction * len(expos)))
        first.extend(expos[:cut])
        second.extend(expos[cut:])
    return first, second


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
    cat = log.catalog
    return [[cat.item_index(v) for v in log.interaction_seq(u)] for u in users]
