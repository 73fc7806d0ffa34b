import json

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from convrec.data import (
    Interaction,
    TrainingInstance,
    build_sequences,
    chronological_split,
    generate_instances,
    load_interactions,
    load_split,
    save_split,
)
from convrec.errors import DataError, EmptyDatasetError, ParseError


# --------------------------------------------------------------------------
# parsing

def test_load_three_column_tsv(tmp_path):
    path = tmp_path / "log.tsv"
    path.write_text("u1 i1 5\nu1 i2 9\nu2 i1 7\n")
    rows = load_interactions(str(path))
    assert len(rows) == 3
    assert rows[0] == Interaction("u1", "i1", 5.0)
    assert rows[2].timestamp == 7.0


def test_rating_column_is_discarded(tmp_path):
    path = tmp_path / "log.tsv"
    path.write_text("u1 i1 4.5 99\n")
    rows = load_interactions(str(path))
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
    assert len(load_interactions(str(path))) == 1


def test_csv_format(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("u1, i1, 3\nu1, i2, 4\n")
    rows = load_interactions(str(path), fmt="csv")
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


# --------------------------------------------------------------------------
# sequence building

def _rows(pairs, start_ts=0):
    return [Interaction(u, i, float(start_ts + k)) for k, (u, i) in enumerate(pairs)]


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
    assert data.user_count == 2
    assert data.item_count == 3
    seq = {data.user_ids[s.user_index]: [data.item_ids[i] for i in s.items] for s in data.sequences}
    assert seq == {"u1": ["a", "c"], "u2": ["b"]}


def test_duplicates_removed():
    rows = _rows([("u1", "a"), ("u1", "b")]) + [Interaction("u1", "a", 0.0)]
    data = build_sequences(rows, 1)
    assert len(data.sequences[0].items) == 2


def test_timestamp_ties_keep_input_order():
    rows = [Interaction("u1", "b", 5.0), Interaction("u1", "a", 5.0), Interaction("u1", "c", 1.0)]
    data = build_sequences(rows, 1)
    names = [data.item_ids[i] for i in data.sequences[0].items]
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
    assert sorted(data.user_ids[1:]) == ["u1", "u3"]


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
    rows = [Interaction(u, i, float(k)) for k, (u, i) in enumerate(named)]
    if not expected:
        with pytest.raises(EmptyDatasetError):
            build_sequences(rows, n)
        return
    data = build_sequences(rows, n)
    got = []
    for seq in data.sequences:
        for item in seq.items:
            got.append((data.user_ids[seq.user_index], data.item_ids[item]))
    assert sorted(got) == sorted(expected)
    # every survivor meets the threshold
    from collections import Counter

    users = Counter(u for u, _ in got)
    items = Counter(i for _, i in got)
    assert all(c >= n for c in users.values())
    assert all(c >= n for c in items.values())


# --------------------------------------------------------------------------
# splitting

def _split_of_length(n):
    rows = [Interaction("u", f"i{k}", float(k)) for k in range(n)]
    data = build_sequences(rows, 1)
    return chronological_split(data)


@pytest.mark.parametrize("n,expected", [(10, (7, 1, 2)), (3, (3, 0, 0)), (1, (1, 0, 0)), (5, (4, 0, 1))])
def test_split_sizes(n, expected):
    split = _split_of_length(n)
    assert (len(split.train[1]), len(split.validation[1]), len(split.test[1])) == expected


def test_bad_ratios_rejected():
    split_input = build_sequences(_rows([("u", "a")]), 1)
    with pytest.raises(ValueError):
        chronological_split(split_input, ratios=(0.7, 0.1, 0.1))


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

def _split_with_train(items):
    n = len(items)
    return type(
        "S",
        (),
        {
            "train": [[], list(items)],
            "validation": [[], []],
            "test": [[], []],
            "user_count": 1,
            "item_count": max(items) if items else 1,
            "users": lambda self: range(1, 2),
        },
    )()


def test_window_exact_fit():
    split = _split_with_train([1, 2, 3, 4, 5, 6])
    inst = generate_instances(split, 4, 2, "train")
    assert inst == [TrainingInstance(1, (1, 2, 3, 4), (5, 6))]


def test_window_two_offsets():
    split = _split_with_train([1, 2, 3, 4, 5, 6, 7])
    inst = generate_instances(split, 4, 2, "train")
    assert inst == [
        TrainingInstance(1, (1, 2, 3, 4), (5, 6)),
        TrainingInstance(1, (2, 3, 4, 5), (6, 7)),
    ]


def test_short_sequence_left_padded():
    split = _split_with_train([7, 8, 9])
    inst = generate_instances(split, 4, 2, "train")
    assert inst == [TrainingInstance(1, (0, 0, 0, 7), (8, 9))]


def test_tiny_sequence_all_padding():
    split = _split_with_train([5])
    inst = generate_instances(split, 4, 2, "train")
    assert inst == [TrainingInstance(1, (0, 0, 0, 0), (5,))]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 6), st.integers(1, 3))
def test_window_count(n, order, t):
    split = _split_with_train(list(range(1, n + 1)))
    inst = generate_instances(split, order, t, "train")
    if n >= order + t:
        assert len(inst) == n - order - t + 1
    else:
        assert len(inst) == 1
    for i in inst:
        assert len(i.prev) == order
        assert 1 <= len(i.targets) <= t
        # padding only at the left
        nonpad = [k for k, v in enumerate(i.prev) if v != 0]
        if nonpad:
            assert all(v != 0 for v in i.prev[nonpad[0] :])


def test_validation_instances_use_training_history():
    rows = [Interaction("u", f"i{k}", float(k)) for k in range(10)]
    split = chronological_split(build_sequences(rows, 1))
    inst = generate_instances(split, 4, 2, "validation")
    # one validation action (ceil(0.8*10) - 7 = 1), history is the train tail
    assert len(inst) == 1
    assert inst[0].prev == tuple(split.train[1][-4:])
    assert inst[0].targets == tuple(split.validation[1])


# --------------------------------------------------------------------------
# split files

def test_split_roundtrip(tmp_path, tiny_split):
    path = str(tmp_path / "split.json")
    save_split(path, tiny_split)
    loaded = load_split(path)
    assert loaded.train == tiny_split.train
    assert loaded.test == tiny_split.test
    assert loaded.item_ids == tiny_split.item_ids


CORRUPTIONS = {
    "no_train": lambda p: p.pop("train"),
    "short_test": lambda p: p["test"].pop(),
    "item_past_count": lambda p: p["train"][1].__setitem__(0, p["item_count"] + 1),
    "item_zero": lambda p: p["validation"][1].append(0),
    "string_item": lambda p: p["test"][1].append("3"),
    "sequence_not_a_list": lambda p: p["train"].__setitem__(2, 5),
    "short_item_ids": lambda p: p["item_ids"].pop(),
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_load_split_rejects_malformed_split(tmp_path, tiny_split, corrupt):
    path = tmp_path / "split.json"
    save_split(str(path), tiny_split)
    payload = json.loads(path.read_text())
    corrupt(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError):
        load_split(str(path))


def test_load_split_rejects_missing_and_non_json_files(tmp_path):
    with pytest.raises(DataError, match="missing.json"):
        load_split(str(tmp_path / "missing.json"))
    path = tmp_path / "split.json"
    path.write_text('{"train": [')
    with pytest.raises(DataError, match="JSON"):
        load_split(str(path))


def test_missing_interaction_log_is_data_error(tmp_path):
    with pytest.raises(DataError, match="nope.tsv"):
        load_interactions(str(tmp_path / "nope.tsv"))
