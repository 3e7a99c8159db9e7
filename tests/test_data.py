"""Event-log parsing, catalog indexing and dataset splits."""

import io
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drorec.data import (CLICK, EXPOSURE, PAD_INDEX, PAD_ITEM, Catalog,
                         ConfigurationError, EventLog, IntegrityError,
                         ParseError, index_sequences, parse_event_log,
                         sequences_to_matrix, serialize_event_log,
                         split_by_user, split_exposure, truncate_pad)

GOOD_LOG = """\
# comment line
u1\ti1\t0\texposure
u1\ti1\t0\tclick
u1\ti2\t1\texposure
u2\ti2\t0\texposure
u2\ti2\t2\tclick
"""


def _rows(log):
    """The log's events as (user id, item id, timestamp, kind), in row order."""
    cat = log.catalog
    return [(cat.user_ids[u], cat.item_of(i), t, CLICK if c else EXPOSURE)
            for u, i, t, c in zip(log.user.tolist(), log.item.tolist(),
                                  log.time.tolist(), log.click.tolist())]


def _parse(text):
    return parse_event_log(io.StringIO(text))


def test_parse_roundtrip():
    log = _parse(GOOD_LOG)
    assert log.catalog.n_users == 2
    assert log.catalog.n_items == 2
    assert log.user.dtype == log.item.dtype == log.time.dtype == np.int64
    assert log.click.dtype == bool
    log2 = _parse(serialize_event_log(log))
    assert _rows(log2) == _rows(log)


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
    log = _parse("u1\ti1\t3\tclick\nu1\ti1\t3\texposure\n")
    assert _rows(log) == [("u1", "i1", 3, EXPOSURE), ("u1", "i1", 3, CLICK)]
    assert index_sequences(log, ["u1"]) == [[1]]


@pytest.mark.parametrize("ts", [2**63 - 1, 2**63])
def test_timestamp_outside_int64_is_parse_error(ts):
    # the int64 maximum marks a pair never exposed, so no event may carry it
    with pytest.raises(ParseError, match=f"^line 2: timestamp {ts} out of range$"):
        _parse(f"u1\ti1\t0\texposure\nu1\ti1\t{ts}\tclick\n")


def test_catalog_reserves_pad_index():
    cat = Catalog(["u1"], ["a", "b"])
    assert cat.item_of(1) == "a"
    assert cat.item_of(0) == PAD_ITEM
    assert cat.item_of(2) == "b"
    with pytest.raises(ValueError):
        Catalog(["u1"], ["a", "a"])


def _toy_log(n_users=10, clicks_per_user=3):
    """User i is shown item (i + t) % 5 at time 2t and clicks it at 2t + 1."""
    lines = [f"u{i}\ti{(i + t) % 5}\t{2 * t + click}\t{CLICK if click else EXPOSURE}\n"
             for i in range(n_users) for t in range(clicks_per_user) for click in (0, 1)]
    return _parse("".join(lines))


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
    assert first.catalog is log.catalog and second.catalog is log.catalog
    assert not first.click.any() and not second.click.any()
    # ceil(0.7 * 4) = 3 exposures per user in the first part
    per_user_first = {}
    for user, _, stamp, _ in _rows(first):
        per_user_first.setdefault(user, []).append(stamp)
    for u, stamps in per_user_first.items():
        assert len(stamps) == 3
        assert stamps == sorted(stamps)
    assert not set(_rows(first)) & set(_rows(second))
    assert len(first.user) + len(second.user) == np.count_nonzero(~log.click)
    for user, _, stamp, _ in _rows(second):
        assert stamp >= max(per_user_first[user])


def test_truncate_pad_left():
    assert truncate_pad([5, 6], 4) == [0, 0, 5, 6]
    assert truncate_pad([1, 2, 3, 4, 5], 3) == [3, 4, 5]
    mat = sequences_to_matrix([[1], [2, 3]], 3)
    assert mat.tolist() == [[0, 0, 1], [0, 2, 3]]
    assert mat.dtype == np.int64


@given(seq=st.lists(st.integers(1, 50), max_size=30), max_len=st.integers(1, 20))
def test_truncate_pad_property(seq, max_len):
    out = truncate_pad(seq, max_len)
    kept = min(len(seq), max_len)
    assert len(out) == max_len
    assert out[max_len - kept:] == seq[len(seq) - kept:]
    assert out[:max_len - kept] == [PAD_INDEX] * (max_len - kept)


@st.composite
def _event_logs(draw):
    """Valid logs built from columns: every user has events, every click
    its exposure at the same timestamp, rows in any order."""
    users = [f"u{i}" for i in range(draw(st.integers(1, 4)))]
    items = [f"i{j}" for j in range(6)]
    catalog = Catalog(draw(st.permutations(users)), draw(st.permutations(items)))
    rows = []
    for user in users:
        for item, ts, clicked in draw(st.lists(
                st.tuples(st.sampled_from(items), st.integers(0, 20), st.booleans()),
                min_size=1, max_size=8)):
            rows.append((user, item, ts, False))
            if clicked:
                rows.append((user, item, ts, True))
    rows = draw(st.permutations(rows))
    return EventLog(user=[catalog.user_index(r[0]) for r in rows],
                    item=[catalog.item_ids.index(r[1]) + 1 for r in rows],
                    time=[r[2] for r in rows], click=[r[3] for r in rows],
                    catalog=catalog)


@settings(max_examples=60)
@given(log=_event_logs())
def test_parse_serialize_roundtrip_property(log):
    """A serialized log parses back to the same events, under a catalog
    in order of first appearance in the text."""
    text = serialize_event_log(log)
    parsed = parse_event_log(io.StringIO(text))
    assert _rows(parsed) == _rows(log)
    assert parsed.catalog.user_ids == log.catalog.user_ids
    items = [line.split("\t")[1] for line in text.splitlines()]
    assert parsed.catalog.item_ids == list(dict.fromkeys(items))


_event_rows = st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3),
                                 st.integers(0, 3), st.booleans()), max_size=15)


@settings(max_examples=300)
@given(a=_event_rows, b=_event_rows, repeat=st.integers(0, 3))
def test_shared_events_property(a, b, repeat):
    # small column ranges make rows repeat within a log and across the two;
    # ``repeat`` also copies some of a's rows into b
    b = b + a[:repeat]
    catalog = Catalog(["u0", "u1", "u2"], ["i0", "i1", "i2"])

    def log(rows):
        return EventLog(*(np.array([r[c] for r in rows], dtype=np.int64)
                          for c in range(3)),
                        click=[r[3] for r in rows], catalog=catalog)

    expected = len(set(a) & set(b))
    assert log(a).shared_events(log(b)) == expected
    assert log(b).shared_events(log(a)) == expected


_CATALOG = Catalog([f"u{u}" for u in range(4)], [f"i{i}" for i in range(5)])


def _columns(rng, n):
    """n rows over few users, times and items, so that many rows tie."""
    return (rng.integers(0, 4, size=n), rng.integers(1, 6, size=n), rng.integers(0, 5, size=n),
            rng.random(n) < 0.5)


def _lexsorted(user, item, time, click):
    order = np.lexsort((click, time, user))
    return [c[order] for c in (user, item, time, click)]


@pytest.mark.parametrize("case", ["shuffled", "sorted", "one pair swapped", "click first"])
@pytest.mark.parametrize("n", [0, 1, 2, 40])
def test_log_rows_come_out_as_the_stable_lexsort_orders_them(case, n):
    rng = np.random.default_rng(n)
    cols = _columns(rng, n)
    if case != "shuffled":
        cols = _lexsorted(*cols)
    if case == "one pair swapped" and n > 1:
        cols[0][1] = cols[0][0]               # the first two rows of one user,
        cols[2][:2] = 4, 0                    # the second one earlier
    if case == "click first" and n > 1:
        cols = [c[:2].copy() for c in cols]
        cols[0][:], cols[2][:], cols[3][:] = 1, 3, [True, False]
    log = EventLog(*cols, catalog=_CATALOG)
    for got, expected in zip((log.user, log.item, log.time, log.click), _lexsorted(*cols)):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_sorted_log_is_built_without_a_sorted_copy():
    """Columns already in order are kept: the constructor's traced peak is
    a few bool arrays of the row count, where a sort makes an int64 order
    and a copy of each column, four int64 columns' worth."""
    cols = _lexsorted(*_columns(np.random.default_rng(0), 20000))
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        log = EventLog(*cols, catalog=_CATALOG)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < cols[0].nbytes / 2, f"{peak / cols[0].nbytes:.2f} int64 columns"
    assert all(got is given for got, given in zip((log.user, log.item, log.time, log.click), cols))
    part = log.rows(slice(5, 900))
    assert np.shares_memory(part.user, log.user)


def test_index_sequences():
    log = _toy_log(n_users=2, clicks_per_user=2)
    seqs = index_sequences(log, ["u0", "u1"])
    assert seqs[0] == [1, 2]
    assert seqs[1] == [2, 3]


@dataclass(frozen=True)
class _Event:
    user: str
    item: str
    timestamp: int
    kind: str


def _reference_parse(stream):
    """The parser over per-user lists of event objects: each user's events
    sorted by (timestamp, exposure first), then scanned with the earliest
    exposure time seen so far of each item.  Returns the events as
    (user, item, timestamp, kind) in catalog-user order, and the catalog's
    user and item ids in order of first appearance."""
    events_by_user: dict[str, list[_Event]] = {}
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
        events_by_user[user].append(_Event(user, item, ts, kind))

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

    rows = [(e.user, e.item, e.timestamp, e.kind)
            for user in user_order for e in events_by_user[user]]
    return rows, user_order, item_order


_MALFORMED = ("u0\ti0\t1", "u0\ti0\tsoon\texposure", "u1\ti2\t-2\tclick",
              "u2\ti1\t3\tview", "# comment", "")


@st.composite
def _tsv_logs(draw):
    """TSV text over three users, items and a few timestamps: clicks with
    no exposure, before their exposure and at its timestamp, exposures
    with no click, duplicate lines, and now and then a malformed line."""
    lines = []
    for user, item, ts, clicked, lag in draw(st.lists(st.tuples(
            st.sampled_from(["u0", "u1", "u2"]), st.sampled_from(["i0", "i1", "i2"]),
            st.integers(0, 5), st.booleans(),
            # None: no exposure for the click; -1: the exposure comes after it
            st.sampled_from([None, -1, 0, 0, 1, 3])), max_size=16)):
        if clicked:
            lines.append(f"{user}\t{item}\t{ts}\t{CLICK}")
        if lag is not None or not clicked:
            lines.append(f"{user}\t{item}\t{max(0, ts - (lag or 0))}\t{EXPOSURE}")
    if lines:
        lines += draw(st.lists(st.sampled_from(lines), max_size=4))
    lines = draw(st.permutations(lines))
    if draw(st.integers(0, 7)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_MALFORMED)))
    return "".join(line + "\n" for line in lines)


def _outcome(parse, text):
    try:
        return parse(io.StringIO(text))
    except (ParseError, IntegrityError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400)
@given(text=_tsv_logs())
def test_parser_matches_reference_property(text):
    got = _outcome(parse_event_log, text)
    want = _outcome(_reference_parse, text)
    if isinstance(got, EventLog):
        assert (_rows(got), got.catalog.user_ids, got.catalog.item_ids) == want
    else:
        assert got == want
