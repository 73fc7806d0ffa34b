import dataclasses
import hashlib
import json
import math
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import convrec
from convrec.ablation import evaluate_pop
from convrec.data import (
    Ids,
    Interactions,
    ItemLists,
    build_sequences,
    chronological_split,
    generate_instances,
    load_interactions,
    load_split,
    save_split,
    SplitDataset,
)
from convrec.errors import ConfigError, ConvrecError, DataError, EmptyDatasetError, ParseError, open_input, utf8_lines
from convrec.evaluate import evaluate
from convrec.model import init_params
from convrec.synthetic import Interaction, SyntheticSpec, generate_interactions
from convrec.training import train
from tests.conftest import pad_left


# --------------------------------------------------------------------------
# parsing

def _load_rows(*args, **kwargs) -> list[Interaction]:
    """load_interactions' columns as one row per parsed line."""
    users, items, timestamps = load_interactions(*args, **kwargs)
    return [Interaction(*row) for row in zip(users, items, timestamps.tolist())]


def test_load_three_column_tsv(tmp_path):
    path = tmp_path / "log.tsv"
    path.write_text("u1 i1 5\nu1 i2 9\nu2 i1 7\n")
    rows = _load_rows(str(path))
    assert len(rows) == 3
    assert rows[0] == Interaction("u1", "i1", 5.0)
    assert rows[2].timestamp == 7.0


def test_rating_column_is_discarded(tmp_path):
    path = tmp_path / "log.tsv"
    path.write_text("u1 i1 4.5 99\n")
    rows = _load_rows(str(path))
    assert rows == [Interaction("u1", "i1", 99.0)]


def test_short_row_raises_with_line_number(tmp_path):
    path = tmp_path / "log.tsv"
    path.write_text("u1 i1 3\nu1 i1\n")
    with pytest.raises(ParseError) as exc:
        load_interactions(str(path))
    assert exc.value.line_no == 2


def test_comments_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "log.tsv"
    path.write_text("# header\n\nu1 i1 1\n")
    assert len(_load_rows(str(path))) == 1


def test_csv_format(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("u1, i1, 3\nu1, i2, 4\n")
    rows = _load_rows(str(path), fmt="csv")
    assert [r.item for r in rows] == ["i1", "i2"]


def test_empty_file_raises(tmp_path):
    path = tmp_path / "log.tsv"
    path.write_text("# only a comment\n")
    with pytest.raises(EmptyDatasetError):
        load_interactions(str(path))


def test_bad_timestamp_raises(tmp_path):
    path = tmp_path / "log.tsv"
    path.write_text("u1 i1 notanumber\n")
    with pytest.raises(ParseError):
        load_interactions(str(path))


@pytest.mark.parametrize("stamp", ["nan", "inf", "-inf", "NaN", "-Infinity"])
def test_non_finite_timestamp_raises_with_line_number(tmp_path, stamp):
    # two `u1 i1 nan` rows used to survive deduplication, since NaN != NaN
    path = tmp_path / "log.tsv"
    path.write_text(f"u1 i1 3\nu1 i1 {stamp}\nu1 i1 {stamp}\n")
    with pytest.raises(ParseError, match="not finite") as exc:
        load_interactions(str(path))
    assert exc.value.line_no == 2


# --------------------------------------------------------------------------
# sequence building

def _columns(rows) -> Interactions:
    """(user, item, timestamp) rows as load_interactions' columns."""
    users, items, timestamps = zip(*rows)
    return Interactions(list(users), list(items), np.array(timestamps, dtype=np.float64))


def _rows(pairs, start_ts=0):
    return _columns((u, i, float(start_ts + k)) for k, (u, i) in enumerate(pairs))


def _sequences(data):
    """(user index, item indices oldest first) for each user of a SequenceData."""
    return list(enumerate(data.seqs))[1:]


def test_threshold_removes_small_user():
    pairs = [("u1", f"a{k}") for k in range(6)] + [("u2", "b1"), ("u2", "b2")]
    # give the surviving items enough feedback from a second heavy user
    pairs += [("u3", f"a{k}") for k in range(6)] + [("u3", "x") for _ in range(0)]
    pairs += [("u1", "b1")] * 0
    data = build_sequences(_rows(pairs), min_feedback=2)
    assert "u2" not in data.user_ids
    assert "b1" not in data.item_ids and "b2" not in data.item_ids


def test_min_feedback_one_keeps_everything():
    pairs = [("u1", "a"), ("u2", "b"), ("u1", "c")]
    data = build_sequences(_rows(pairs), min_feedback=1)
    assert len(data.seqs) == len(data.user_ids) == 3 and data.seqs[0] == []
    assert len(data.item_ids) == 4
    seq = {data.user_ids[u]: [data.item_ids[i] for i in items] for u, items in _sequences(data)}
    assert seq == {"u1": ["a", "c"], "u2": ["b"]}


def test_duplicates_removed():
    rows = _columns([("u1", "a", 0.0), ("u1", "b", 1.0), ("u1", "a", 0.0)])
    data = build_sequences(rows, 1)
    assert len(_sequences(data)[0][1]) == 2


def test_timestamp_ties_keep_input_order():
    rows = _columns([("u1", "b", 5.0), ("u1", "a", 5.0), ("u1", "c", 1.0)])
    data = build_sequences(rows, 1)
    names = [data.item_ids[i] for i in _sequences(data)[0][1]]
    assert names == ["c", "b", "a"]


def test_all_filtered_raises():
    with pytest.raises(EmptyDatasetError):
        build_sequences(_rows([("u1", "a"), ("u2", "b")]), min_feedback=3)


def test_filter_cascade_runs_to_fixpoint():
    # dropping item "x" (1 feedback) pushes u2 below the threshold, which in
    # turn drops item "b" below it: three rounds before stability
    pairs = (
        [("u1", "a"), ("u1", "a2"), ("u1", "b")]
        + [("u2", "b"), ("u2", "x")]
        + [("u3", "a"), ("u3", "a2")]
    )
    data = build_sequences(_rows(pairs), min_feedback=2)
    assert "u2" not in data.user_ids
    assert "x" not in data.item_ids and "b" not in data.item_ids
    assert sorted(data.user_ids) == ["", "u1", "u3"]


def _brute_force_filter(pairs, n):
    # rows carry distinct timestamps in this test, so no dedup applies
    rows = list(pairs)
    while True:
        users = {}
        items = {}
        for u, i in rows:
            users[u] = users.get(u, 0) + 1
            items[i] = items.get(i, 0) + 1
        keep = [(u, i) for u, i in rows if users[u] >= n and items[i] >= n]
        if keep == rows:
            return rows
        rows = keep


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 7)),
        min_size=1,
        max_size=60,
    ),
    st.integers(1, 4),
)
def test_fixpoint_filtering_matches_brute_force(pairs, n):
    named = [(f"u{u}", f"i{i}") for u, i in pairs]
    expected = _brute_force_filter(named, n)
    rows = _rows(named)
    if not expected:
        with pytest.raises(EmptyDatasetError):
            build_sequences(rows, n)
        return
    data = build_sequences(rows, n)
    got = []
    for user, seq in _sequences(data):
        for item in seq:
            got.append((data.user_ids[user], data.item_ids[item]))
    assert sorted(got) == sorted(expected)
    # every survivor meets the threshold
    from collections import Counter

    users = Counter(u for u, _ in got)
    items = Counter(i for _, i in got)
    assert all(c >= n for c in users.values())
    assert all(c >= n for c in items.values())


# --------------------------------------------------------------------------
# the whole ingestion contract, against a row-wise reference implementation

def _reference_load(path, fmt):
    """Row-wise parser: one (user, item, timestamp) tuple per row, reading lines by iterating the file."""
    rows = []
    with open_input(path, DataError) as fh:
        for line_no, line in enumerate(utf8_lines(fh, path, DataError), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            cols = [c.strip() for c in stripped.split(",")] if fmt == "csv" else stripped.split()
            if len(cols) < 3:
                raise ParseError(line_no, f"expected >=3 columns, got {len(cols)}")
            if len(cols) > 4:
                raise ParseError(line_no, f"expected <=4 columns, got {len(cols)}")
            ts_text = cols[2] if len(cols) == 3 else cols[3]
            try:
                ts = float(ts_text)
            except ValueError:
                raise ParseError(line_no, f"bad timestamp {ts_text!r}") from None
            if not math.isfinite(ts):
                raise ParseError(line_no, f"timestamp {ts_text!r} is not finite")
            rows.append((cols[0], cols[1], ts))
    if not rows:
        raise EmptyDatasetError(f"{path}: no interactions parsed")
    return rows


def _reference_split(rows, min_feedback):
    """Row-wise dedup, fixpoint filter, first-appearance ids, time order and 70/10/20 prefix split."""
    seen, kept = set(), []
    for row in rows:  # 0.0 == -0.0 and both hash alike, so they are one timestamp
        if row not in seen:
            seen.add(row)
            kept.append(row)
    while True:
        users, items = Counter(r[0] for r in kept), Counter(r[1] for r in kept)
        survivors = [r for r in kept if users[r[0]] >= min_feedback and items[r[1]] >= min_feedback]
        if survivors == kept:
            break
        kept = survivors
        if not kept:
            raise EmptyDatasetError("cold-start filtering removed every interaction")
    user_map, item_map, per_user = {}, {}, {}
    for pos, (user, item, ts) in enumerate(kept):
        u = user_map.setdefault(user, len(user_map) + 1)
        per_user.setdefault(u, []).append((ts, pos, item_map.setdefault(item, len(item_map) + 1)))
    parts = [[[] for _ in range(len(user_map) + 1)] for _ in range(3)]
    for u, entries in per_user.items():
        seq = [e[2] for e in sorted(entries)]  # timestamp, then input order
        c1, c2 = (math.ceil(r * len(seq) - 1e-9) for r in (0.7, 0.7 + 0.1))
        if c1:
            parts[0][u], parts[1][u], parts[2][u] = seq[:c1], seq[c1:c2], seq[c2:]
    return SplitDataset(*parts, len(user_map), len(item_map), ["", *user_map], ["", *item_map])


LOG_STAMPS = st.sampled_from(["0", "0.0", "-0.0", "-0", "1", "1.0", "2", "2.5", "1e1", "-3", "+7"])
LOG_LINE_KINDS = st.sampled_from(["row"] * 8 + ["duplicate"] * 3 + ["comment", "blank", "bad"])
LOG_BAD_LINES = st.sampled_from(["u1 i1", "u1,i1", "a b c d e", "u1,i1,4,2,3", "u1 i1 nan", "u1 i1 x", "u1, i1, -inf"])


@st.composite
def _log_texts(draw):
    """(format, text) of a log with duplicates, timestamp ties, 3 and 4 columns, comments and mixed line ends."""
    fmt = draw(st.sampled_from(["tsv", "csv"]))
    sep = ", " if fmt == "csv" else draw(st.sampled_from(["\t", " "]))
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(LOG_LINE_KINDS)
        if kind == "duplicate" and lines:
            lines.append(draw(st.sampled_from(lines)))
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["# user item timestamp", "  #x"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\x0c", "\u2028"])))
        elif kind == "bad":
            lines.append(draw(LOG_BAD_LINES))
        else:
            cols = [draw(st.sampled_from(["u1", "u2", "u3", "u4"])), draw(st.sampled_from(["a", "b", "c", "d", "e"]))]
            cols += [draw(st.sampled_from(["4", "2.5"]))] if draw(st.booleans()) else []
            lines.append(sep.join(cols + [draw(LOG_STAMPS)]))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    return fmt, "".join(line + end for line, end in zip(lines, ends))


def _outcome(run):
    try:
        return run()
    except ConvrecError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)


@settings(max_examples=400, deadline=None)
@given(log=_log_texts(), min_feedback=st.integers(1, 4))
def test_ingestion_matches_the_row_wise_reference(input_file, log, min_feedback):
    fmt, text = log
    input_file.write_bytes(text.encode("utf-8"))
    path = str(input_file)
    expected = _outcome(lambda: _reference_split(_reference_load(path, fmt), min_feedback))
    got = _outcome(lambda: chronological_split(build_sequences(load_interactions(path, fmt), min_feedback)))
    assert got == expected


def test_ids_are_numbered_by_first_appearance_after_filtering():
    # the first rows of u1 and of item b are filtered out, so u2 and item a come first
    rows = [("u9", "b", 0.0), ("u1", "x", 0.0), ("u2", "a", 1.0), ("u2", "b", 2.0), ("u1", "a", 3.0), ("u1", "b", 4.0)]
    data = build_sequences(_columns(rows), min_feedback=2)
    assert list(data.user_ids) == ["", "u2", "u1"] and list(data.item_ids) == ["", "a", "b"]
    assert chronological_split(data) == _reference_split(rows, 2)


def test_only_newline_carriage_return_and_crlf_end_a_line(tmp_path):
    # str.splitlines() also breaks at \x0c, \x1c, \x85 and \u2028: it would count 9 lines, not 5, and
    # read the end of the comment line as a row of one column
    path = tmp_path / "log.tsv"
    path.write_bytes("u1\ti1\t1\x0c\nu1\ti2\t2\x1c\r\n# note\x85more\ru1\ti3\t3\u2028\nu1\ti4\tlater\n".encode())
    with pytest.raises(ParseError, match="bad timestamp 'later'") as exc:
        load_interactions(str(path))
    assert exc.value.line_no == 5


# --------------------------------------------------------------------------
# splitting

def _split_of_length(n):
    rows = _rows(("u", f"i{k}") for k in range(n))
    data = build_sequences(rows, 1)
    return chronological_split(data)


@pytest.mark.parametrize("n,expected", [(10, (7, 1, 2)), (3, (3, 0, 0)), (1, (1, 0, 0)), (5, (4, 0, 1))])
def test_split_sizes(n, expected):
    split = _split_of_length(n)
    assert (len(split.train[1]), len(split.validation[1]), len(split.test[1])) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200))
def test_split_reconstructs_sequence(n):
    split = _split_of_length(n)
    whole = split.train[1] + split.validation[1] + split.test[1]
    assert len(whole) == n
    assert whole == sorted(whole)  # items were indexed in time order
    import math

    assert len(split.train[1]) == math.ceil(0.7 * n - 1e-9)
    assert len(split.train[1]) + len(split.validation[1]) == math.ceil(0.8 * n - 1e-9)


# --------------------------------------------------------------------------
# instance generation

def _split_with_train(*prefixes):
    """A split whose users 1..len(prefixes) have these training prefixes and nothing held out."""
    empty = [[]] * (len(prefixes) + 1)
    items = max([1, *(i for p in prefixes for i in p)])
    return SplitDataset([[]] + [list(p) for p in prefixes], empty, empty, len(prefixes), items)


def _oracle_instances(split, order, num_targets):
    """Instances built one tuple at a time, then copied into arrays row by row."""
    L, T = order, num_targets
    triplets = []
    for u in split.users():
        seq = split.train[u]
        n = len(seq)
        if n == 0:
            continue
        if n >= L + T:
            for off in range(n - L - T + 1):
                triplets.append((u, tuple(seq[off : off + L]), tuple(seq[off + L : off + L + T])))
        else:
            k = min(T, n)
            triplets.append((u, pad_left(seq[: n - k], L), tuple(seq[n - k :])))
    n = len(triplets)
    prev = np.zeros((n, L), dtype=np.int64)
    users = np.zeros(n, dtype=np.int64)
    tgt = np.zeros((n, T), dtype=np.int64)
    tgt_mask = np.zeros((n, T))
    for i, (user, window, targets) in enumerate(triplets):
        prev[i] = window
        users[i] = user
        tgt[i, : len(targets)] = targets
        tgt_mask[i, : len(targets)] = 1.0
    return prev, users, tgt, tgt_mask


def _triplets(inst):
    """(user, previous L, unpadded targets) of each instance."""
    return [
        (int(u), tuple(p.tolist()), tuple(t[m > 0].tolist()))
        for u, p, t, m in zip(inst.users, inst.prev, inst.targets, inst.target_mask)
    ]


def test_window_exact_fit():
    inst = generate_instances(_split_with_train([1, 2, 3, 4, 5, 6]), 4, 2, "train")
    assert _triplets(inst) == [(1, (1, 2, 3, 4), (5, 6))]


def test_window_two_offsets():
    inst = generate_instances(_split_with_train([1, 2, 3, 4, 5, 6, 7]), 4, 2, "train")
    assert _triplets(inst) == [(1, (1, 2, 3, 4), (5, 6)), (1, (2, 3, 4, 5), (6, 7))]


def test_short_sequence_left_padded():
    inst = generate_instances(_split_with_train([7, 8, 9]), 4, 2, "train")
    assert _triplets(inst) == [(1, (0, 0, 0, 7), (8, 9))]


def test_tiny_sequence_all_padding():
    inst = generate_instances(_split_with_train([5]), 4, 2, "train")
    assert _triplets(inst) == [(1, (0, 0, 0, 0), (5,))]
    assert inst.targets.tolist() == [[5, 0]]
    assert inst.target_mask.tolist() == [[1.0, 0.0]]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 6), st.integers(1, 3))
def test_window_count(n, order, t):
    inst = generate_instances(_split_with_train(range(1, n + 1)), order, t, "train")
    assert len(inst) == (n - order - t + 1 if n >= order + t else 1)
    for _, prev, targets in _triplets(inst):
        assert len(prev) == order
        assert 1 <= len(targets) <= t
        # padding only at the left
        nonpad = [k for k, v in enumerate(prev) if v != 0]
        if nonpad:
            assert all(v != 0 for v in prev[nonpad[0] :])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.lists(st.integers(1, 50), max_size=3),  # empty and shorter than T
            st.lists(st.integers(1, 50), min_size=4, max_size=20),  # around L + T
            st.lists(st.integers(1, 50), min_size=20, max_size=60),  # many windows
        ),
        min_size=1,
        max_size=8,
    ),
    st.integers(1, 9),
    st.integers(1, 10),
)
def test_instances_match_tuple_oracle_bitwise(prefixes, order, num_targets):
    split = _split_with_train(*prefixes)
    inst = generate_instances(split, order, num_targets, "train")
    got = (inst.prev, inst.users, inst.targets, inst.target_mask)
    for a, b in zip(got, _oracle_instances(split, order, num_targets)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert len(inst) == len(inst.users)


def test_only_training_instances_are_generated():
    with pytest.raises(ConfigError, match="train"):
        generate_instances(_split_with_train([1, 2, 3]), 2, 1, "validation")


@pytest.mark.parametrize("order, num_targets", [(0, 1), (2, 0)])
def test_instance_shape_below_one_is_a_config_error(order, num_targets):
    with pytest.raises(ConfigError, match="order and num_targets"):
        generate_instances(_split_with_train([1, 2, 3]), order, num_targets)


def test_bad_format_and_min_feedback_are_config_errors(tmp_path):
    path = tmp_path / "log.tsv"
    path.write_text("u1\ti1\t1\n")
    with pytest.raises(ConfigError, match="format"):
        load_interactions(str(path), "xml")
    with pytest.raises(ConfigError, match="min_feedback"):
        build_sequences(load_interactions(str(path)), 0)


def test_every_exported_name_resolves():
    missing = [name for name in convrec.__all__ if not hasattr(convrec, name)]
    assert not missing


# --------------------------------------------------------------------------
# split files

def test_split_roundtrip(tmp_path, tiny_split):
    path = str(tmp_path / "split.json")
    save_split(path, tiny_split)
    loaded = load_split(path)
    assert loaded.train == tiny_split.train
    assert loaded.test == tiny_split.test
    assert loaded.item_ids == tiny_split.item_ids


def _set(section, at, value):
    return lambda header, sections: sections[section].__setitem__(at, value)


def _set_header(field, value):
    return lambda header, sections: header.__setitem__(field, value)


CORRUPTIONS = {
    "no_train": lambda h, s: [s.pop("train_offsets"), s.pop("train")],
    "train_items_missing": lambda h, s: [s["train"].clear(), h.__setitem__("train", 0)],
    "short_test": lambda h, s: s["test_offsets"].pop(),
    "short_test_items": lambda h, s: [s["test"].pop(), h.__setitem__("test", h["test"] - 1)],
    "item_past_count": lambda h, s: s["train"].__setitem__(0, h["items"] + 1),
    "item_zero": _set("validation", 0, 0),
    "negative_item": _set("test", -1, -1),
    "decreasing_offset": lambda h, s: s["train_offsets"].__setitem__(2, s["train_offsets"][1] - 1),
    "first_offset_not_zero": _set("user_offsets", 0, -1),
    "offset_past_end": lambda h, s: s["validation_offsets"].__setitem__(-1, h["validation"] + 1),
    "short_id_block": lambda h, s: [s["item_ids"].pop(), h.__setitem__("item_bytes", h["item_bytes"] - 1)],
    "id_block_cut_short": lambda h, s: s["user_ids"].pop(),
    "id_block_not_utf8": _set("user_ids", 0, 0xFF),
    "trailing_byte": lambda h, s: s["item_ids"].append(0),
    "bad_version": _set_header("version", 2),
    "bad_magic": _set_header("magic", b"CSPX"),
    "huge_user_count": _set_header("users", 2**32 - 1),
    "huge_part": _set_header("train", 2**32 - 1),
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_load_split_rejects_malformed_split(tmp_path, tiny_split, rewrite_split, corrupt):
    path = tmp_path / "split.json"
    save_split(str(path), tiny_split)
    rewrite_split(path, path, corrupt)
    with pytest.raises(DataError):
        load_split(str(path))


@pytest.mark.parametrize("users,items", [(0, 1), (1, 0)])
def test_load_split_refuses_zero_counts(tmp_path, users, items):
    empty = [[]] * (users + 1)
    path = str(tmp_path / "split.json")
    save_split(path, SplitDataset(empty, empty, empty, users, items, [""] * (users + 1), [""] * (items + 1)))
    with pytest.raises(DataError, match=">= 1"):
        load_split(path)


def test_rewrite_split_without_an_edit_keeps_the_file(tmp_path, tiny_split, rewrite_split):
    """The corruptions above edit the real layout: an empty edit writes the same bytes."""
    path = tmp_path / "split.json"
    save_split(str(path), tiny_split)
    rewrite_split(path, tmp_path / "copy", lambda header, sections: None)
    assert (tmp_path / "copy").read_bytes() == path.read_bytes()


def test_load_split_keeps_ids_with_separators(tmp_path, tiny_split):
    """Ids may be empty or hold tabs, newlines, the text true or any code point."""
    odd = ["", "\n", "a\tb", "true", "\u00e9\U0001f600", "x\x00y"]
    split = dataclasses.replace(tiny_split, item_ids=["<pad>"] + odd + list(tiny_split.item_ids)[1 + len(odd):],
                                user_ids=list(tiny_split.user_ids)[:-2] + ["\n\n", ""])
    path = str(tmp_path / "split.json")
    save_split(path, split)
    assert load_split(path) == split


def _json_split(split) -> str:
    """A split as the JSON writer of earlier versions stored it."""
    keys = ("user_count", "item_count", "user_ids", "item_ids", "train", "validation", "test")
    return json.dumps({k: getattr(split, k) if k.endswith("_count") else list(getattr(split, k)) for k in keys})


def test_load_split_refuses_missing_and_json_files(tmp_path, tiny_split):
    with pytest.raises(DataError, match="missing.json"):
        load_split(str(tmp_path / "missing.json"))
    path = tmp_path / "split.json"
    for text in (_json_split(tiny_split), '{"train": [', ""):
        path.write_text(text)
        with pytest.raises(DataError, match="re-run `convrec prepare`"):
            load_split(str(path))


BENCH_CORPORA = {  # the benchmark's corpora; ablate-gate trains on the planted-500 corpus
    "planted-500": SyntheticSpec(seed=1),
    "planted-large": SyntheticSpec(num_users=1000, num_items=50000, seed=1),
}


@pytest.mark.parametrize("spec", BENCH_CORPORA.values(), ids=BENCH_CORPORA.keys())
def test_bench_corpus_split_roundtrip(tmp_path, spec):
    split = chronological_split(build_sequences(zip(*generate_interactions(spec)), 1))
    path = str(tmp_path / "split.json")
    save_split(path, split)
    assert load_split(path) == split


@pytest.mark.parametrize("spec, message", [(SyntheticSpec(num_items=40), "at least one item per genre"),
                                           (SyntheticSpec(num_clusters=3), "clusters must partition the genres")],
                         ids=["items-per-genre", "cluster-partition"])
def test_generator_rejects_a_spec_it_cannot_build(spec, message):
    with pytest.raises(ConfigError, match=message):
        generate_interactions(spec)


def test_split_from_lists_from_arrays_and_from_the_file_give_the_same_results(tmp_path, tiny_hp):
    """One corpus split three ways: as Python lists by the row-wise reference, by chronological_split's
    cuts of the sequence arrays, and by load_split of the saved file."""
    rows = generate_interactions(SyntheticSpec(num_users=60, num_items=90, seq_len=16, num_genres=10, num_clusters=5,
                                               genres_per_cluster=2, num_special_pairs=6, seed=11))
    from_lists = _reference_split(rows, 1)
    from_arrays = chronological_split(build_sequences(zip(*rows), 1))
    path = str(tmp_path / "split.json")
    save_split(path, from_lists)
    from_file = load_split(path)
    for split in (from_arrays, from_file):
        assert split == from_lists
        for name in (*PART_NAMES, "user_ids", "item_ids"):
            assert list(getattr(split, name)) == list(getattr(from_lists, name))
    params = init_params(tiny_hp, from_lists.user_count, from_lists.item_count, np.random.default_rng(5))

    def results(split):
        inst = generate_instances(split, tiny_hp.order, tiny_hp.num_targets)
        trained = train(split, tiny_hp, seed=3, epochs=2, batch_size=32, patience=2, exclude_history_negatives=True)
        return (evaluate(params, tiny_hp, split, collect_per_user=True), evaluate(params, tiny_hp, split, part="validation"),
                evaluate_pop(split), [a.tobytes() for a in (inst.prev, inst.users, inst.targets, inst.target_mask)],
                hashlib.sha256(trained.params.buffer.tobytes()).hexdigest(), [row.train_loss for row in trained.log])

    want = results(from_lists)
    assert results(from_arrays) == want
    assert results(from_file) == want


ODD_IDS = ["", "11", "1", "211", "21", "2", "12", "\u00e9", "\u65e5\u672c", "a\tb", "x\ny", "\n", "1\t"]


def test_an_id_is_found_at_its_own_slot_and_not_across_others(tmp_path):
    """Ids that are prefixes or substrings of others (1, 11, 21), non-ASCII ids and ids with a tab or a
    newline are found in the loaded id block, each at its own slot."""
    empty = [[]] * len(ODD_IDS)
    path = str(tmp_path / "split.json")
    save_split(path, SplitDataset(empty, empty, empty, len(ODD_IDS) - 1, 1, ODD_IDS, ["", "i"]))
    ids = load_split(path).user_ids
    for slot, name in enumerate(ODD_IDS[1:], start=1):
        assert ids.index(name, 1) == slot
    # each of these occurs in the block only across the ends of ids
    for name in ["112", "111", "2112", "y\n", "\n1", "\u00e9\u65e5"]:
        assert name in ids.flat
        with pytest.raises(ValueError):
            ids.index(name, 1)


def test_the_empty_id_is_found_only_as_an_empty_slot():
    ids = Ids.of(["", "a", "", "b"])
    assert ids.index("") == 0 and ids.index("", 1) == 2
    with pytest.raises(ValueError):
        Ids.of(["", "a", "b"]).index("", 1)


@pytest.mark.parametrize("index", [slice(0, 2), slice(1, None), slice(-2, None), slice(None, -1), slice(None, None, 2),
                                   slice(None, None, -1), slice(3, 0, -2), slice(5, 9), slice(2, 1)])
def test_a_slice_of_runs_is_the_list_of_the_runs_it_selects(index):
    lists, names = [[1, 2], [3], [], [4, 5, 6]], ["a", "bc", "", "d"]
    assert ItemLists.of(lists)[index] == lists[index]
    assert Ids.of(names)[index] == names[index]


def test_missing_interaction_log_is_data_error(tmp_path):
    with pytest.raises(DataError, match="nope.tsv"):
        load_interactions(str(tmp_path / "nope.tsv"))


# --------------------------------------------------------------------------
# every input boundary raises only ConvrecError on random bytes

@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs") / "input"


LOG_LIKE = st.text(alphabet="\t ,\n\r#0123456789.-+eEinfa_ux\u00e9", max_size=300).map(str.encode)
JSON_LIKE = st.text(alphabet='{}[]",:0123456789 .-eEtruflasn_', max_size=300).map(str.encode)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**20) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
SPLIT_LIKE = st.dictionaries(
    st.sampled_from(["user_count", "item_count", "user_ids", "item_ids", "train", "validation", "test"]),
    JSON_VALUES,
).map(lambda payload: json.dumps(payload).encode())


@settings(max_examples=300, deadline=None)
@given(raw=st.one_of(st.binary(max_size=300), LOG_LIKE), fmt=st.sampled_from(["tsv", "csv"]))
def test_load_interactions_on_random_bytes_raises_only_convrec_errors(input_file, raw, fmt):
    input_file.write_bytes(raw)
    try:
        chronological_split(build_sequences(load_interactions(str(input_file), fmt), 1))
    except ConvrecError:
        pass


# raw bytes that get past the magic, and whole headers with random counts and lengths
BINARY_SPLIT_LIKE = st.one_of(
    st.binary(max_size=300).map(lambda raw: b"CSPL" + raw),
    st.tuples(st.lists(st.integers(0, 12), min_size=7, max_size=7), st.binary(max_size=300)).map(
        lambda t: struct.pack("<4s8I", b"CSPL", 1, *t[0]) + t[1]),
)


@settings(max_examples=300, deadline=None)
@given(raw=st.one_of(st.binary(max_size=300), JSON_LIKE, SPLIT_LIKE, BINARY_SPLIT_LIKE))
def test_load_split_on_random_bytes_raises_only_convrec_errors(input_file, raw):
    input_file.write_bytes(raw)
    try:
        load_split(str(input_file))
    except ConvrecError:
        pass


@st.composite
def split_lists(draw):
    """SplitDataset's arguments, every part and id list as Python lists."""
    users, items = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    parts = [[[]] + [draw(st.lists(st.integers(1, items), max_size=5)) for _ in range(users)] for _ in range(3)]
    return dict(zip(PART_NAMES, parts), user_count=users, item_count=items,
                user_ids=[""] + draw(st.lists(st.text(max_size=5), min_size=users, max_size=users)),
                item_ids=[""] + draw(st.lists(st.text(max_size=5), min_size=items, max_size=items)))


def splits():
    return split_lists().map(lambda lists: SplitDataset(**lists))


PART_NAMES = ("train", "validation", "test")


@settings(max_examples=100, deadline=None)
@given(lists=split_lists())
def test_save_split_load_split_roundtrip(input_file, lists):
    split = SplitDataset(**lists)
    save_split(str(input_file), split)
    loaded = load_split(str(input_file))
    assert loaded == split
    for name in (*PART_NAMES, "user_ids", "item_ids"):
        want, got = lists[name], getattr(loaded, name)
        assert len(got) == len(want) and list(got) == want
        assert [got[i] for i in range(len(want))] == want == [got[i] for i in np.arange(len(want))]
        assert [got[-i] for i in range(1, len(want) + 1)] == [want[-i] for i in range(1, len(want) + 1)]


@settings(max_examples=300, deadline=None)
@given(split=splits(), data=st.data())
def test_every_single_byte_change_loads_or_is_a_data_error(input_file, split, data):
    save_split(str(input_file), split)
    raw = input_file.read_bytes()
    at = data.draw(st.integers(0, len(raw) - 1))
    value = data.draw(st.integers(0, 255).filter(lambda v: v != raw[at]))
    input_file.write_bytes(raw[:at] + bytes([value]) + raw[at + 1 :])
    try:
        load_split(str(input_file))
    except DataError:
        pass


@settings(max_examples=200, deadline=None)
@given(split=splits(), data=st.data())
def test_every_truncation_is_a_data_error(input_file, split, data):
    save_split(str(input_file), split)
    raw = input_file.read_bytes()
    input_file.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises(DataError):
        load_split(str(input_file))
