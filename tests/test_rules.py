import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from convrec.data import ItemLists
from convrec.errors import ConfigError
from convrec.rules import MiningConfig, Rule, mine_rules, rules_to_csv, sequential_intensity


# --------------------------------------------------------------------------
# exhaustive reference miner

def brute_force_rules(seqs, cfg: MiningConfig):
    sup_x = {}
    sup_xy = {}
    for sid, seq in enumerate(seqs):
        seen_x = set()
        seen_xy = set()
        for start in range(len(seq)):
            for order in range(1, cfg.max_order + 1):
                if start + order > len(seq):
                    break
                ante = tuple(seq[start : start + order])
                seen_x.add(ante)
                for skip in range(cfg.max_skip + 1):
                    follow = start + order + skip
                    if follow < len(seq):
                        seen_xy.add((ante, skip, seq[follow]))
        for x in seen_x:
            sup_x[x] = sup_x.get(x, 0) + 1
        for key in seen_xy:
            sup_xy[key] = sup_xy.get(key, 0) + 1
    out = []
    for (ante, skip, cons), sup in sup_xy.items():
        conf = sup / sup_x[ante]
        if sup >= cfg.minsup and conf >= cfg.minconf:
            out.append(Rule(ante, cons, skip, sup, conf))
    out.sort(key=lambda r: (len(r.antecedent), r.antecedent, r.skip, r.consequent))
    return out


# --------------------------------------------------------------------------
# hand cases

def test_repeated_triple_corpus():
    seqs = [[1, 2, 3]] * 10
    rules = mine_rules(seqs, MiningConfig(max_order=2, max_skip=0, minsup=5, minconf=0.5))
    assert Rule((1, 2), 3, 0, 10, 1.0) in rules
    assert Rule((1,), 2, 0, 10, 1.0) in rules
    assert all(r.skip == 0 for r in rules)


def test_skip_one_rule():
    seqs = [[1, 2, 3]] * 10
    rules = mine_rules(seqs, MiningConfig(max_order=1, max_skip=1, minsup=5, minconf=0.5))
    assert Rule((1,), 3, 1, 10, 1.0) in rules


def test_minsup_above_corpus_size():
    seqs = [[1, 2, 3]] * 4
    assert mine_rules(seqs, MiningConfig(minsup=5)) == []


def test_support_counted_once_per_sequence():
    # the pattern occurs twice inside one sequence but supports count sequences
    seqs = [[1, 2, 1, 2], [1, 2, 9]]
    rules = mine_rules(seqs, MiningConfig(max_order=1, max_skip=0, minsup=2, minconf=0.1))
    rule = next(r for r in rules if r.antecedent == (1,) and r.consequent == 2)
    assert rule.support == 2
    assert rule.confidence == 1.0


def test_confidence_denominator_counts_antecedent_sequences():
    seqs = [[1, 2], [1, 3], [1, 2], [1, 2], [1, 2]]
    rules = mine_rules(seqs, MiningConfig(max_order=1, minsup=1, minconf=0.1))
    rule = next(r for r in rules if r.antecedent == (1,) and r.consequent == 2)
    assert rule.support == 4
    assert rule.confidence == pytest.approx(0.8)


def test_config_validation():
    with pytest.raises(ConfigError):
        MiningConfig(minsup=0)
    with pytest.raises(ConfigError):
        MiningConfig(minconf=0.0)
    with pytest.raises(ConfigError):
        MiningConfig(max_order=0)


def test_deterministic_ordering():
    seqs = [[3, 1, 2, 1, 3, 2]] * 6
    cfg = MiningConfig(max_order=3, max_skip=1, minsup=2, minconf=0.2)
    rules = mine_rules(seqs, cfg)
    keys = [(len(r.antecedent), r.antecedent, r.skip, r.consequent) for r in rules]
    assert keys == sorted(keys)


# --------------------------------------------------------------------------
# oracle equivalence

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_matches_exhaustive_enumeration(seed):
    rng = np.random.default_rng(seed)
    n_seqs = int(rng.integers(1, 20))
    seqs = [
        [int(x) for x in rng.integers(0, 8, size=rng.integers(1, 15))] for _ in range(n_seqs)
    ]
    cfg = MiningConfig(
        max_order=int(rng.integers(1, 5)),
        max_skip=int(rng.integers(0, 3)),
        minsup=int(rng.integers(1, 4)),
        minconf=float(rng.uniform(0.1, 1.0)),
    )
    assert mine_rules(seqs, cfg) == brute_force_rules(seqs, cfg)


def assert_same_rules(got, want):
    assert got == want
    assert [r.confidence.hex() for r in got] == [r.confidence.hex() for r in want]


# negative, sparse and >= 2**40 ids
ID_POOL = [-(2**62), -7, -1, 0, 1, 2, 5, 97, 2**40, 2**40 + 3, 2**62]
SEQUENCE_TYPES = {"list": list, "tuple": tuple, "ndarray": lambda seq: np.array(seq, dtype=np.int64)}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matches_exhaustive_enumeration_on_wide_inputs(data):
    pool = data.draw(st.lists(st.sampled_from(ID_POOL), min_size=1, max_size=6, unique=True))
    # empty sequences are allowed anywhere in the corpus
    raw = data.draw(st.lists(st.lists(st.sampled_from(pool), max_size=14), min_size=1, max_size=15))
    as_type = SEQUENCE_TYPES[data.draw(st.sampled_from(sorted(SEQUENCE_TYPES)))]
    cfg = MiningConfig(
        max_order=data.draw(st.integers(1, 6)),
        max_skip=data.draw(st.integers(0, 2)),
        minsup=data.draw(st.integers(1, 3)),
        minconf=data.draw(st.floats(0.05, 1.0)),
    )
    assert_same_rules(mine_rules([as_type(seq) for seq in raw], cfg), brute_force_rules(raw, cfg))


def test_ids_past_naive_int64_keys_match_oracle():
    # pairs of raw ids near +-2**62 overflow int64 if combined into one key;
    # the miner groups dense codes instead
    rng = np.random.default_rng(11)
    ids = np.array([2**62 - 1, 2**62 - 5, 2**40, -(2**62), -(2**62) + 9, 2**40 + 2**39])
    seqs = [[int(x) for x in rng.choice(ids, size=rng.integers(0, 12))] for _ in range(60)]
    cfg = MiningConfig(max_order=4, max_skip=2, minsup=2, minconf=0.1)
    rules = mine_rules(seqs, cfg)
    assert rules
    assert_same_rules(rules, brute_force_rules(seqs, cfg))


@pytest.mark.parametrize("bad", [[[1, 2.5]], [["a", "b"]], [[1], [None]], [[2**64, 1]], [[[1, 2]]],
                                 [[2**63, 2**63 + 1]] * 2])
def test_non_integer_items_raise_config_error(bad):
    with pytest.raises(ConfigError, match="integers"):
        mine_rules(bad, MiningConfig(minsup=1))


def test_no_sequences_is_a_config_error():
    with pytest.raises(ConfigError, match="nonempty"):
        mine_rules([], MiningConfig())


def test_item_lists_mine_as_their_lists():
    seqs = [[1, 2, 3, 1, 2, 3], [], [2, 3, 1, 2], [3, 1, 2, 3, 1]]
    cfg = MiningConfig(max_order=3, max_skip=1, minsup=2, minconf=0.1)
    assert mine_rules(ItemLists.of(seqs), cfg) == mine_rules(seqs, cfg)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_order_preserving_relabelling_maps_the_rules(data):
    seqs = data.draw(st.lists(st.lists(st.integers(0, 7), max_size=12), min_size=1, max_size=12))
    labels = sorted(data.draw(st.lists(st.integers(-(2**62), 2**62), min_size=8, max_size=8, unique=True)))
    cfg = MiningConfig(max_order=data.draw(st.integers(1, 5)), max_skip=data.draw(st.integers(0, 2)),
                       minsup=data.draw(st.integers(1, 3)), minconf=data.draw(st.floats(0.05, 1.0)))
    relabelled = mine_rules([[labels[i] for i in seq] for seq in seqs], cfg)
    want = [Rule(tuple(labels[i] for i in r.antecedent), labels[r.consequent], r.skip, r.support, r.confidence)
            for r in mine_rules(seqs, cfg)]
    assert_same_rules(relabelled, want)


def test_confidence_bounds_hold():
    rng = np.random.default_rng(3)
    seqs = [[int(x) for x in rng.integers(0, 6, size=12)] for _ in range(25)]
    rules = mine_rules(seqs, MiningConfig(max_order=3, max_skip=2, minsup=2, minconf=0.2))
    for r in rules:
        assert 0 < r.confidence <= 1.0
        assert r.support >= 2


# --------------------------------------------------------------------------
# sequential intensity

def test_intensity_definition():
    seqs = [[1, 2, 3]] * 10
    cfg = MiningConfig(max_order=5, max_skip=0, minsup=5, minconf=0.5)
    n_rules = len(mine_rules(seqs, cfg))
    assert sequential_intensity(seqs) == pytest.approx(n_rules / 10)


def test_intensity_empty_corpus_rejected():
    with pytest.raises(ConfigError, match="user count"):
        sequential_intensity([])


def test_csv_output():
    rules = [Rule((1, 2), 3, 0, 10, 1.0)]
    text = rules_to_csv(rules, item_ids=["", "a", "b", "c"])
    lines = text.strip().splitlines()
    assert lines[0] == "antecedent,consequent,skip,support,confidence"
    assert lines[1] == "a|b,c,0,10,1.000000"
