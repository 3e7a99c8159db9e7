"""Event-log parsing, catalog indexing and dataset splits."""

import io

import numpy as np
import pytest

from drorec.data import (CLICK, EXPOSURE, Catalog, ConfigurationError, Event,
                         IntegrityError, ParseError, index_sequences,
                         parse_event_log, sequences_to_matrix,
                         serialize_event_log, split_by_user, split_exposure,
                         truncate_pad)

GOOD_LOG = """\
# comment line
u1\ti1\t0\texposure
u1\ti1\t0\tclick
u1\ti2\t1\texposure
u2\ti2\t0\texposure
u2\ti2\t2\tclick
"""


def test_parse_roundtrip():
    log = parse_event_log(io.StringIO(GOOD_LOG))
    assert log.catalog.n_users == 2
    assert log.catalog.n_items == 2
    text = serialize_event_log(log)
    log2 = parse_event_log(io.StringIO(text))
    assert log2.all_events() == log.all_events()


def test_parse_rejects_malformed_line():
    with pytest.raises(ParseError):
        parse_event_log(io.StringIO("u1\ti1\t0\n"))
    with pytest.raises(ParseError):
        parse_event_log(io.StringIO("u1\ti1\tzero\texposure\n"))
    with pytest.raises(ParseError):
        parse_event_log(io.StringIO("u1\ti1\t-3\texposure\n"))
    with pytest.raises(ParseError):
        parse_event_log(io.StringIO("u1\ti1\t0\tpurchase\n"))


def test_click_without_exposure_is_integrity_error():
    with pytest.raises(IntegrityError):
        parse_event_log(io.StringIO("u1\ti1\t0\tclick\n"))
    # click before its exposure is also invalid
    bad = "u1\ti1\t5\texposure\nu1\ti1\t2\tclick\n"
    with pytest.raises(IntegrityError):
        parse_event_log(io.StringIO(bad))


def test_click_at_same_timestamp_as_exposure_is_valid():
    log = parse_event_log(io.StringIO("u1\ti1\t3\texposure\nu1\ti1\t3\tclick\n"))
    assert log.interaction_seq("u1") == ["i1"]


def test_catalog_reserves_pad_index():
    cat = Catalog(["u1"], ["a", "b"])
    assert cat.item_index("a") == 1
    assert cat.item_index("b") == 2
    assert cat.item_of(0) == cat.pad_item
    assert cat.item_of(2) == "b"
    with pytest.raises(ValueError):
        Catalog(["u1"], ["a", "a"])


def _toy_log(n_users=10, clicks_per_user=3):
    events = {}
    users = [f"u{i}" for i in range(n_users)]
    items = [f"i{j}" for j in range(5)]
    for i, u in enumerate(users):
        evs = []
        for t in range(clicks_per_user):
            item = items[(i + t) % 5]
            evs.append(Event(u, item, 2 * t, EXPOSURE))
            evs.append(Event(u, item, 2 * t + 1, CLICK))
        events[u] = evs
    from drorec.data import EventLog
    return EventLog(events, Catalog(users, items))


def test_split_by_user_partitions():
    log = _toy_log()
    split = split_by_user(log, (0.8, 0.1, 0.1), seed=7)
    all_users = split.train_users + split.valid_users + split.test_users
    assert sorted(all_users) == sorted(log.catalog.user_ids)
    assert len(set(all_users)) == len(all_users)
    assert len(split.valid_users) == 1 and len(split.test_users) == 1
    # deterministic given the seed
    again = split_by_user(log, (0.8, 0.1, 0.1), seed=7)
    assert again.train_users == split.train_users
    other = split_by_user(log, (0.8, 0.1, 0.1), seed=8)
    assert other.train_users != split.train_users or other.test_users != split.test_users


def test_split_by_user_validates_ratios():
    log = _toy_log()
    with pytest.raises(ConfigurationError):
        split_by_user(log, (0.9, 0.2, 0.1), seed=0)
    with pytest.raises(ConfigurationError):
        split_by_user(log, (1.0, 0.0, 0.0), seed=0)


def test_split_exposure_chronological():
    log = _toy_log(n_users=3, clicks_per_user=4)
    first, second = split_exposure(log, 0.7)
    # ceil(0.7 * 4) = 3 exposures per user in the first part
    per_user_first = {}
    for e in first:
        per_user_first.setdefault(e.user, []).append(e.timestamp)
    for u, stamps in per_user_first.items():
        assert len(stamps) == 3
        assert stamps == sorted(stamps)
    assert not set(first) & set(second)
    assert len(first) + len(second) == len(log.exposure_events())
    for e in second:
        assert e.timestamp >= max(per_user_first[e.user])


def test_truncate_pad_left():
    assert truncate_pad([5, 6], 4) == [0, 0, 5, 6]
    assert truncate_pad([1, 2, 3, 4, 5], 3) == [3, 4, 5]
    mat = sequences_to_matrix([[1], [2, 3]], 3)
    assert mat.tolist() == [[0, 0, 1], [0, 2, 3]]
    assert mat.dtype == np.int64


def test_index_sequences():
    log = _toy_log(n_users=2, clicks_per_user=2)
    seqs = index_sequences(log, ["u0", "u1"])
    assert seqs[0] == [1, 2]
    assert seqs[1] == [2, 3]
