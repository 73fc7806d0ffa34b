import dataclasses
import importlib
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from convrec.ablation import evaluate_pop, popularity_counts
from convrec.config import AP_MODES, HyperParams, Ranking, run_parts, thread_budget
from convrec.data import ItemLists, SplitDataset
from convrec.errors import ConfigError, EmptyDatasetError
from convrec.evaluate import (
    LONG_ROW,
    SCORE_CHUNK,
    SharedRow,
    eligible_and_ranks,
    evaluate,
    evaluate_scores,
    metrics_for_ranking,
    ranked_metrics,
    ranked_order,
    recommend_top_n,
    score_matrix,
    shared_row_ranks,
)
from convrec.batch import forward, score_column_ranges
from convrec.model import init_params
from tests.conftest import LARGE_HP, pad_left

# the module, which the package's evaluate function shadows as an attribute
evaluation = importlib.import_module("convrec.evaluate")
batch_module = importlib.import_module("convrec.batch")


# --------------------------------------------------------------------------
# independent brute-force reference metrics (straight from the defining
# formulas: prefix set intersections and an explicit rel(N) loop)

def ref_prec_recall(ranked, relevant, n):
    top = set(ranked[:n])
    inter = top & relevant
    return len(inter) / n, len(inter) / len(relevant)


def ref_ap(ranked, relevant, mode, cutoff):
    num = 0.0
    for n in range(1, cutoff + 1):
        rel_n = 1 if ranked[n - 1] in relevant else 0
        prec_n = len(set(ranked[:n]) & relevant) / n
        num += prec_n * rel_n
    denom = cutoff if mode == "paper_literal" else min(len(relevant), cutoff)
    return num / denom if denom else 0.0


# --------------------------------------------------------------------------
# ranking

def test_tie_breaks_to_smaller_index():
    scores = np.array([-np.inf, 1.0, 2.0, 2.0, 0.5])
    order = ranked_order(scores)
    assert order[:4].tolist() == [2, 3, 1, 4]


def test_recommend_excludes_seen(tiny_params, tiny_hp):
    history = [1, 2, 3, 4, 5]
    ranked = recommend_top_n(tiny_params, tiny_hp, history, 1, n=10, exclude_seen=True)
    assert not set(ranked.items.tolist()) & set(history)
    assert 0 not in ranked.items


def test_recommend_matches_exhaustive_scoring(tiny_params, tiny_hp, tiny_split):
    history = [3, 1, 4, 1, 5]
    ranked = recommend_top_n(tiny_params, tiny_hp, history, 2, n=8, exclude_seen=False)
    scores = forward(tiny_params, tiny_hp, [1, 4, 1, 5], 2)
    expected = sorted(
        range(1, tiny_split.item_count + 1), key=lambda i: (-scores[i], i)
    )[:8]
    assert ranked.items.tolist() == expected


def test_recommend_rejects_bad_n(tiny_params, tiny_hp):
    with pytest.raises(ConfigError):
        recommend_top_n(tiny_params, tiny_hp, [1, 2], 1, n=0)


def test_recommend_rejects_an_empty_history(tiny_params, tiny_hp):
    with pytest.raises(EmptyDatasetError, match="history"):
        recommend_top_n(tiny_params, tiny_hp, [], 1, n=5)


@pytest.mark.parametrize("first", [-1, 0, 21, 99])
def test_recommend_rejects_a_history_item_outside_the_items(tiny_hp, first):
    # numpy would read -1 as item 20 and drop it from the ranking, and 99 would raise IndexError
    hp = dataclasses.replace(tiny_hp, order=3, heights=(1, 2, 3))
    params = init_params(hp, 2, 20, np.random.default_rng(4))
    assert len(recommend_top_n(params, hp, [1, 4, 5, 6], 1, n=20).items) == 16
    with pytest.raises(ConfigError, match=r"history items must lie in 1\.\.20"):
        recommend_top_n(params, hp, [first, 4, 5, 6], 1, n=20)


# --------------------------------------------------------------------------
# the per-user evaluation loop that block ranking replaced: the oracle

def _metrics_from_positions(hit_ranks, n_relevant, n_eligible, cutoffs, ap_mode):
    """One user's metrics from the ascending 1-based ranks (all <= n_eligible) of its hits."""
    prec = {}
    rec = {}
    for n in cutoffs:
        hits = int((hit_ranks <= n).sum())
        prec[n] = hits / n
        rec[n] = hits / n_relevant
    numerator = float(np.sum(np.arange(1, len(hit_ranks) + 1) / hit_ranks))
    denom = n_eligible if ap_mode == "paper_literal" else min(n_relevant, n_eligible)
    ap = numerator / denom if denom else 0.0
    return prec, rec, ap


def _row_metrics(scores, relevant, cutoffs, ap_mode):
    """One masked score row, each relevant item's rank counted on its own."""
    n_eligible = int(np.isfinite(scores).sum())
    ranks = [
        1 + np.count_nonzero(scores > scores[r]) + np.count_nonzero(scores[:r] == scores[r])
        for r in relevant
        if scores[r] > -np.inf
    ]
    hit_ranks = np.sort(np.array(ranks, dtype=np.int64))
    hit_ranks = hit_ranks[hit_ranks <= n_eligible]
    return _metrics_from_positions(hit_ranks, len(relevant), n_eligible, cutoffs, ap_mode)


def _sorted_metrics(scores, relevant, cutoffs, ap_mode):
    """Hit ranks read off a full lexsort of the row."""
    order = np.lexsort((np.arange(scores.size), -scores))
    n_eligible = int(np.isfinite(scores).sum())
    hit_ranks = np.flatnonzero(np.isin(order[:n_eligible], list(relevant))) + 1
    return _metrics_from_positions(hit_ranks, len(relevant), n_eligible, cutoffs, ap_mode)


def _history(split, u, part):
    """User u's items known before the evaluated part: train, and validation too for test."""
    return split.train[u] + (split.validation[u] if part == "test" else [])


def _per_user_report(split, score_rows, cutoffs, ap_mode, exclude_seen, part):
    """evaluate_scores as one loop over users, summing each metric in user order."""
    held = split.test if part == "test" else split.validation
    users = [u for u in split.users() if held[u]]
    histories = [_history(split, u, part) for u in users]
    prec_sum = {n: 0.0 for n in cutoffs}
    rec_sum = {n: 0.0 for n in cutoffs}
    ap_sum = 0.0
    per_user = []
    for u, history, s in zip(users, histories, score_rows(users, histories)):
        if exclude_seen and history:
            s = s.copy()
            s[np.asarray(history, dtype=np.int64)] = -np.inf
        prec, rec, ap = _row_metrics(s, set(held[u]), cutoffs, ap_mode)
        for n in cutoffs:
            prec_sum[n] += prec[n]
            rec_sum[n] += rec[n]
        ap_sum += ap
        per_user.append((u, ap, round(prec[max(cutoffs)] * max(cutoffs))))
    count = len(users)
    return (
        {n: (prec_sum[n] / count).hex() for n in cutoffs},
        {n: (rec_sum[n] / count).hex() for n in cutoffs},
        (ap_sum / count).hex(),
        count,
        [(u, ap.hex(), hits) for u, ap, hits in per_user],
    )


def _report_bits(report):
    return (
        {n: v.hex() for n, v in report.precision.items()},
        {n: v.hex() for n, v in report.recall.items()},
        report.mean_ap.hex(),
        report.users_evaluated,
        [(u, ap.hex(), hits) for u, ap, hits in report.per_user],
    )


# --------------------------------------------------------------------------
# block ranking against the per-user loop and a full sort of each row

@st.composite
def score_blocks(draw):
    """1-40 rows of few distinct scores (many exact ties, some +-inf and NaN),
    short rows or rows past LONG_ROW, each with an excluded set and a relevant
    set of its own size that may overlap it."""
    n_rows = draw(st.integers(1, 40))
    m = draw(st.integers(1, 40) | st.integers(LONG_ROW + 1, LONG_ROW + 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, np.inf, -np.inf, np.nan])
    weights = np.array([1, 1, 1, 1, 1, 1, 1, 0.3, 0.3, 0.3])
    scores = rng.choice(pool, size=(n_rows, m + 1), p=weights / weights.sum())
    scores[:, 0] = -np.inf
    relevant = []
    for row in scores:
        excluded = rng.choice(np.arange(1, m + 1), size=rng.integers(0, m + 1), replace=False)
        row[excluded] = -np.inf
        size = draw(st.integers(1, min(m, 20)))
        relevant.append(set(rng.choice(np.arange(1, m + 1), size=size, replace=False).tolist()))
    return scores, relevant


@settings(max_examples=150, deadline=None)
@given(score_blocks(), st.sampled_from(AP_MODES))
def test_counted_ranks_match_full_sort(block, ap_mode):
    scores, relevant = block
    width = scores.shape[1]
    # precision at every n pins down every hit rank; the long rows use every 7th
    cutoffs = tuple(range(1, width + 1)) if width <= LONG_ROW else tuple(range(1, width + 1, 7))
    precision, recall, ap = metrics_for_ranking(scores, ItemLists.of(relevant), cutoffs, ap_mode)
    assert precision.shape == recall.shape == (len(cutoffs), len(relevant))
    for i, (row, rel) in enumerate(zip(scores, relevant)):
        got = (
            dict(zip(cutoffs, precision[:, i].tolist())),
            dict(zip(cutoffs, recall[:, i].tolist())),
            float(ap[i]).hex(),
        )
        for oracle in (_row_metrics, _sorted_metrics):
            prec, rec, want_ap = oracle(row, rel, cutoffs, ap_mode)
            assert got == (prec, rec, want_ap.hex()), oracle.__name__


def test_ap_of_many_hits_sums_like_np_sum():
    # past 8 terms np.sum adds pairwise; the block AP must keep that order
    rng = np.random.default_rng(5)
    scores = rng.permutation(np.arange(400.0)).reshape(2, 200)
    scores[:, 0] = -np.inf
    relevant = [set(range(1, 200, 2)), set(range(3, 40))]
    _, _, ap = metrics_for_ranking(scores, ItemLists.of(relevant), (1,), "standard")
    for i in range(2):
        assert float(ap[i]).hex() == _row_metrics(scores[i], relevant[i], (1,), "standard")[2].hex()


def _pop_report(split, counts, cutoffs, ap_mode, exclude_seen, part):
    """POP's report on ``part``: the shared count row through evaluate_scores, which
    evaluate_pop gives bit for bit on the test part."""
    ranking = Ranking(cutoffs, ap_mode, exclude_seen)
    report = evaluate_scores(split, SharedRow(counts, ranked_order(counts)), ranking, part)
    if part == "test":
        assert evaluate_pop(split, ranking) == report
    return report


@pytest.mark.parametrize("part", ["test", "validation"])
@pytest.mark.parametrize("exclude_seen", [True, False])
@pytest.mark.parametrize("ap_mode", AP_MODES)
def test_evaluate_matches_per_user_loop_bitwise(tiny_params, tiny_hp, tiny_split, monkeypatch, ap_mode, exclude_seen, part):
    cutoffs = (3, 1, 10)
    width = tiny_split.item_count + 1

    def model_rows(users, histories):
        return score_matrix(tiny_params, tiny_hp, histories, users)

    counts = popularity_counts(tiny_split).astype(float)
    counts[0] = -np.inf

    def pop_rows(users, histories):
        return [counts] * len(users)

    # small chunks and blocks so that users cross chunk and block edges; then
    # the whole split in one block; then every row counted as a long row
    for chunk, block_elements, long_row in [(16, 3 * width, LONG_ROW), (512, 1 << 17, LONG_ROW), (16, 3 * width, 0)]:
        monkeypatch.setattr(evaluation, "SCORE_CHUNK", chunk)
        monkeypatch.setattr(evaluation, "BLOCK_ELEMENTS", block_elements)
        monkeypatch.setattr(evaluation, "LONG_ROW", long_row)
        got = evaluate(
            tiny_params, tiny_hp, tiny_split, Ranking(cutoffs, ap_mode, exclude_seen), part=part,
            collect_per_user=True,
        )
        assert _report_bits(got) == _per_user_report(tiny_split, model_rows, cutoffs, ap_mode, exclude_seen, part)
        assert all(type(ap) is float and type(hits) is int for _, ap, hits in got.per_user)
        pop = _pop_report(tiny_split, counts, cutoffs, ap_mode, exclude_seen, part)
        want = _per_user_report(tiny_split, pop_rows, cutoffs, ap_mode, exclude_seen, part)
        assert _report_bits(dataclasses.replace(pop, per_user=[])) == want[:4] + ([],)


@pytest.mark.parametrize("part", ["test", "validation"])
@pytest.mark.parametrize("exclude_seen", [True, False])
@pytest.mark.parametrize("ap_mode", AP_MODES)
def test_pop_matches_per_user_loop_bitwise_on_long_rows(large_split, ap_mode, exclude_seen, part):
    # the same check as POP's half above, where each per-user row is counted past LONG_ROW
    assert large_split.item_count + 1 > LONG_ROW
    cutoffs = (3, 1, 10)
    counts = popularity_counts(large_split).astype(float)
    counts[0] = -np.inf

    def pop_rows(users, histories):
        return [counts] * len(users)

    pop = _pop_report(large_split, counts, cutoffs, ap_mode, exclude_seen, part)
    want = _per_user_report(large_split, pop_rows, cutoffs, ap_mode, exclude_seen, part)
    assert _report_bits(dataclasses.replace(pop, per_user=[])) == want[:4] + ([],)


@st.composite
def shared_rows(draw):
    """One row of small integer counts (many exact ties, now and then +inf or
    NaN), short or past LONG_ROW, and 1-20 users, each with a history that
    repeats items and a relevant set that may overlap it."""
    m = draw(st.integers(1, 40) | st.integers(LONG_ROW + 1, LONG_ROW + 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    row = rng.integers(0, 4, size=m + 1).astype(float)
    if draw(st.booleans()):
        row[rng.integers(1, m + 1, size=2)] = [np.inf, np.nan]
    row[0] = -np.inf
    n_rows = draw(st.integers(1, 20))
    histories = [rng.integers(1, m + 1, size=rng.integers(0, 2 * m + 1)).tolist() for _ in range(n_rows)]
    relevant = [set(rng.choice(np.arange(1, m + 1), size=rng.integers(1, min(m, 20) + 1), replace=False).tolist())
                for _ in range(n_rows)]
    return row, histories, relevant


@settings(max_examples=150, deadline=None)
@given(shared_rows(), st.booleans())
def test_shared_row_ranks_match_the_masked_block(case, exclude_seen):
    row, histories, relevant = case
    block = np.tile(row, (len(histories), 1))
    seen = ItemLists.of(histories if exclude_seen else []).pairs()
    block[seen] = -np.inf
    rows, items = ItemLists.of(relevant).pairs()
    want_eligible, want_ranks = eligible_and_ranks(block, rows, items)

    values, eligible, ranks = shared_row_ranks(row, ranked_order(row), rows, items, seen, len(histories))
    assert np.array_equal(values, block[rows, items], equal_nan=True)
    assert eligible.tolist() == want_eligible.tolist()
    # a held-out item in the history is at -inf and never ranks
    ranked = values > -np.inf
    assert ranks[ranked].tolist() == want_ranks[ranked].tolist()
    cutoffs = (1, 3, 10)
    got = ranked_metrics(rows, values, ranks, eligible, cutoffs, "standard")
    want = metrics_for_ranking(block, ItemLists.of(relevant), cutoffs, "standard")
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_unknown_part_is_refused(tiny_params, tiny_hp, tiny_split):
    with pytest.raises(ConfigError, match="part"):
        evaluate(tiny_params, tiny_hp, tiny_split, part="tset")


def test_evaluate_deduplicates_relevant_items(tiny_params, tiny_hp, tiny_split):
    test = [list(items) + list(items) for items in tiny_split.test]
    split = SplitDataset(
        tiny_split.train, tiny_split.validation, test, tiny_split.user_count,
        tiny_split.item_count, tiny_split.user_ids, tiny_split.item_ids,
    )
    assert _report_bits(evaluate(tiny_params, tiny_hp, split, collect_per_user=True)) == _report_bits(
        evaluate(tiny_params, tiny_hp, tiny_split, collect_per_user=True)
    )


@pytest.mark.parametrize("run", ["model", "pop"])
def test_a_cutoff_below_one_is_refused_not_reported_as_nan(tiny_params, tiny_hp, tiny_split, run):
    with pytest.raises(ConfigError, match="cutoffs"):
        if run == "model":
            evaluate(tiny_params, tiny_hp, tiny_split, Ranking(cutoffs=(0, 5)))
        else:
            evaluate_pop(tiny_split, Ranking(cutoffs=(0, 5)))


def test_repeated_cutoff_counts_once(tiny_params, tiny_hp, tiny_split):
    once = evaluate(tiny_params, tiny_hp, tiny_split, Ranking(cutoffs=(5,)))
    twice = evaluate(tiny_params, tiny_hp, tiny_split, Ranking(cutoffs=(5, 5)))
    assert twice.precision == once.precision and twice.recall == once.recall


def test_evaluate_holds_one_chunk_and_one_block(tiny_params, tiny_hp, tiny_split, monkeypatch):
    width = tiny_split.item_count + 1
    monkeypatch.setattr(evaluation, "SCORE_CHUNK", 16)
    monkeypatch.setattr(evaluation, "BLOCK_ELEMENTS", 5 * width)
    chunks, blocks = [], []
    real_score, real_metrics = evaluation.score_matrix, evaluation.metrics_for_ranking

    def scoring(params, hp, histories, users, comp_mask, out, **threads):
        chunks.append(out)
        return real_score(params, hp, histories, users, comp_mask, out=out, **threads)

    def ranking(scores, relevant, cutoffs, ap_mode):
        blocks.append(scores.shape)
        return real_metrics(scores, relevant, cutoffs, ap_mode)

    monkeypatch.setattr(evaluation, "score_matrix", scoring)
    monkeypatch.setattr(evaluation, "metrics_for_ranking", ranking)
    report = evaluate(tiny_params, tiny_hp, tiny_split)
    assert max(len(c) for c in chunks) == 16 and sum(len(c) for c in chunks) == report.users_evaluated
    assert all(np.shares_memory(c, chunks[0]) for c in chunks)  # one buffer, reused
    assert max(rows for rows, _ in blocks) == 5 and sum(rows for rows, _ in blocks) == report.users_evaluated
    assert {w for _, w in blocks} == {width}


@st.composite
def tied_rows(draw):
    """Small integer-valued scores (many exact ties, a few +inf and NaN), a
    nonempty excluded set, and a relevant set that may overlap it."""
    m = draw(st.integers(1, 30))
    value = st.sampled_from([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, np.inf, np.nan])
    values = np.array([0.0] + draw(st.lists(value, min_size=m, max_size=m)))
    excluded = sorted(draw(st.sets(st.integers(1, m), min_size=1, max_size=m)))
    relevant = draw(st.sets(st.integers(1, m), min_size=1, max_size=m))
    scores = values.copy()
    scores[[0] + excluded] = -np.inf
    return values, scores, excluded, relevant


@settings(max_examples=60, deadline=None)
@given(tied_rows())
def test_recommend_selection_matches_full_sort(tiny_hp, row):
    values, scores, excluded, _ = row
    m = values.size - 1
    params = init_params(tiny_hp, 1, m, np.random.default_rng(0))
    params.out_w[:] = 0.0  # every score is the output bias
    params.out_b[:] = values
    eligible = int(np.isfinite(scores).sum())
    for n in range(1, m + 3):
        ranked = recommend_top_n(params, tiny_hp, excluded, 1, n)
        assert ranked.items.tolist() == ranked_order(scores)[: min(n, eligible)].tolist()
        assert ranked.scores.tolist() == scores[ranked.items].tolist()


# --------------------------------------------------------------------------
# precision / recall / AP of one ranked list, counted by metrics_for_ranking

def _metrics_of_list(ranked, relevant, n, mode="standard"):
    """Precision and recall at n and AP of ranked[:n]: one score row with n..1
    there and -inf in every other column, so n items are eligible."""
    row = np.full((1, max(list(ranked) + list(relevant)) + 1), -np.inf)
    row[0, ranked[:n]] = np.arange(n, 0, -1)
    precision, recall, ap = metrics_for_ranking(row, ItemLists.of([relevant]), (n,), mode)
    return float(precision[0, 0]), float(recall[0, 0]), float(ap[0])


def test_prec_recall_hand_case():
    ranked = [10, 3, 7, 2, 9]
    relevant = {3, 9, 20, 21}
    prec, rec, _ = _metrics_of_list(ranked, relevant, 5)
    assert prec == pytest.approx(0.4)
    assert rec == pytest.approx(0.5)


def test_prec_recall_no_hits():
    assert _metrics_of_list([1, 2, 3], {9}, 3)[:2] == (0.0, 0.0)


def test_ap_perfect_ranking():
    assert _metrics_of_list([5, 6, 7, 1, 2], {5, 6, 7}, 5)[2] == pytest.approx(1.0)


def test_ap_hand_case_standard():
    ranked = [4, 8, 9, 1, 2]
    relevant = {4, 9}
    val = _metrics_of_list(ranked, relevant, 5, "standard")[2]
    assert val == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)


def test_ap_hand_case_paper_literal():
    ranked = [4, 8, 9]
    relevant = {4, 9}
    val = _metrics_of_list(ranked, relevant, 3, "paper_literal")[2]
    assert val == pytest.approx((1.0 + 2.0 / 3.0) / 3.0, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_metrics_match_reference(data):
    rng_seed = data.draw(st.integers(0, 10**6))
    rng = np.random.default_rng(rng_seed)
    universe = int(rng.integers(5, 40))
    ranked = list(rng.permutation(np.arange(1, universe + 1)))
    n_rel = int(rng.integers(1, universe))
    relevant = set(int(x) for x in rng.choice(np.arange(1, universe + 1), size=n_rel, replace=False))
    n = int(rng.integers(1, universe + 1))
    assert _metrics_of_list(ranked, relevant, n)[:2] == ref_prec_recall(ranked, relevant, n)
    cutoff = int(rng.integers(1, universe + 1))
    for mode in ("standard", "paper_literal"):
        got = _metrics_of_list(ranked, relevant, cutoff, mode)[2]
        assert got == pytest.approx(ref_ap(ranked, relevant, mode, cutoff), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_ap_bounds_and_mode_inequality(seed):
    rng = np.random.default_rng(seed)
    universe = int(rng.integers(4, 30))
    ranked = list(rng.permutation(np.arange(1, universe + 1)))
    n_rel = int(rng.integers(1, universe))
    relevant = set(int(x) for x in rng.choice(np.arange(1, universe + 1), size=n_rel, replace=False))
    std = _metrics_of_list(ranked, relevant, universe, "standard")[2]
    lit = _metrics_of_list(ranked, relevant, universe, "paper_literal")[2]
    assert 0.0 <= std <= 1.0
    assert lit <= std + 1e-12  # cutoff = full list >= |relevant|


def test_recall_monotone_in_n():
    rng = np.random.default_rng(0)
    ranked = list(rng.permutation(np.arange(1, 30)))
    relevant = {3, 7, 19}
    last = 0.0
    for n in range(1, 30):
        _, rec, _ = _metrics_of_list(ranked, relevant, n)
        assert rec >= last
        last = rec


# --------------------------------------------------------------------------
# evaluate() against a straight-line per-user script

def _reference_evaluate(params, hp, split, cutoffs, ap_mode):
    prec = {n: [] for n in cutoffs}
    rec = {n: [] for n in cutoffs}
    aps = []
    for u in split.users():
        relevant = set(split.test[u])
        if not relevant:
            continue
        hist = _history(split, u, "test")
        scores = forward(params, hp, pad_left(hist, hp.order), u)
        scores[np.asarray(hist, dtype=np.int64)] = -np.inf
        eligible = [i for i in range(1, split.item_count + 1) if np.isfinite(scores[i])]
        ranked = sorted(eligible, key=lambda i: (-scores[i], i))
        for n in cutoffs:
            p, r = ref_prec_recall(ranked, relevant, n)
            prec[n].append(p)
            rec[n].append(r)
        aps.append(ref_ap(ranked, relevant, ap_mode, len(ranked)))
    report_prec = {n: float(np.mean(prec[n])) for n in cutoffs}
    report_rec = {n: float(np.mean(rec[n])) for n in cutoffs}
    return report_prec, report_rec, float(np.mean(aps))


@pytest.mark.parametrize("ap_mode", ["standard", "paper_literal"])
def test_evaluate_matches_reference(tiny_params, tiny_hp, tiny_split, ap_mode):
    report = evaluate(tiny_params, tiny_hp, tiny_split, Ranking(cutoffs=(1, 5, 10), ap_mode=ap_mode))
    want_prec, want_rec, want_map = _reference_evaluate(
        tiny_params, tiny_hp, tiny_split, (1, 5, 10), ap_mode
    )
    for n in (1, 5, 10):
        assert report.precision[n] == pytest.approx(want_prec[n], abs=1e-12)
        assert report.recall[n] == pytest.approx(want_rec[n], abs=1e-12)
    assert report.mean_ap == pytest.approx(want_map, abs=1e-12)


def test_popularity_scored_model_equals_pop_baseline(tiny_params, tiny_hp, tiny_split):
    # a model whose scores are exactly the global popularity counts must
    # reproduce the POP baseline report
    params = tiny_params.copy()
    counts = popularity_counts(tiny_split).astype(float)
    params.out_w[:] = 0.0
    params.user_emb[:] = 0.0
    params.item_emb[:] = 0.0
    params.fc_b[:] = 0.0
    params.out_b[:] = counts
    params.out_b[0] = 0.0
    report = evaluate(params, tiny_hp, tiny_split)
    pop_report = evaluate_pop(tiny_split)
    assert report.precision == pop_report.precision
    assert report.recall == pop_report.recall
    assert report.mean_ap == pytest.approx(pop_report.mean_ap, abs=1e-12)


def test_score_shift_invariance(tiny_params, tiny_hp, tiny_split):
    report = evaluate(tiny_params, tiny_hp, tiny_split)
    shifted = tiny_params.copy()
    shifted.out_b[1:] += 7.5  # constant shift of every rankable score
    report2 = evaluate(shifted, tiny_hp, tiny_split)
    assert report.precision == report2.precision
    assert report.mean_ap == pytest.approx(report2.mean_ap, abs=1e-12)


def test_prec1_is_binary_per_user(tiny_params, tiny_hp, tiny_split):
    report = evaluate(tiny_params, tiny_hp, tiny_split, Ranking(cutoffs=(1,)), collect_per_user=True)
    users = report.users_evaluated
    total_hits = round(report.precision[1] * users)
    assert 0 <= total_hits <= users


def test_score_matrix_matches_forward(tiny_params, tiny_hp):
    hist = [[1, 2, 3], [4, 5, 6, 7, 8]]
    mat = score_matrix(tiny_params, tiny_hp, hist, [1, 2])
    for row, (h, u) in enumerate(zip(hist, [1, 2])):
        want = forward(tiny_params, tiny_hp, pad_left(h, tiny_hp.order), u)
        fin = np.isfinite(want)
        assert np.allclose(mat[row][fin], want[fin], atol=1e-12)


# --------------------------------------------------------------------------
# the full-catalog product, split by item columns across threads

def _cpus(monkeypatch, count):
    """score_column_ranges' thread budget pinned to ``count``."""
    monkeypatch.setattr(batch_module, "thread_budget", lambda: count)


def test_column_ranges_cover_the_columns_at_multiples_of_64(monkeypatch):
    for rows, columns, k, workers in [(512, 22482, 100, 2), (488, 22482, 64, 3), (150, 2892, 128, 4), (512, 4096, 100, 8)]:
        _cpus(monkeypatch, workers)
        ranges = score_column_ranges(rows, columns, k)
        assert 2 <= len(ranges) <= workers
        assert ranges[0][0] == 0 and ranges[-1][1] == columns
        assert all(stop == start for (_, stop), (start, _) in zip(ranges, ranges[1:]))
        assert all(start % 64 == 0 and stop - start >= 1024 for start, stop in ranges)
        assert max(b - a for a, b in ranges) - min(b - a for a, b in ranges) <= 64
    _cpus(monkeypatch, 2)
    assert score_column_ranges(1, 10**6, 100) == [(0, 10**6)]  # one row is scored by gemv, never split
    assert score_column_ranges(512, 2047, 100) == [(0, 2047)]  # a range would hold fewer than 1024 columns


@pytest.mark.parametrize("k", [64, 100])
@pytest.mark.parametrize("items", [501, 22481])  # the bench catalogs
def test_split_product_has_the_bits_of_the_whole_product(items, k, monkeypatch):
    # every chunk size that the rule splits, under the BLAS threading the suite runs
    rng = np.random.default_rng([items, k])
    params = init_params(HyperParams(latent_dim=k // 2), 1, items, rng)
    params.out_b[1:] = rng.normal(scale=0.2, size=items)
    xo = rng.normal(size=(SCORE_CHUNK, k))
    _cpus(monkeypatch, max(2, thread_budget()))
    whole, split = np.empty((2, SCORE_CHUNK, items + 1))
    split_rows = []
    for rows in range(1, SCORE_CHUNK + 1):
        ranges = score_column_ranges(rows, items + 1, k)
        if len(ranges) == 1:
            continue
        split_rows.append(rows)
        batch_module._score_columns(params, xo[:rows], whole[:rows], 0, items + 1)
        run_parts(lambda part: batch_module._score_columns(params, xo[:rows], split[:rows], *ranges[part]),
                  len(ranges))
        assert np.array_equal(whole[:rows].view(np.uint64), split[:rows].view(np.uint64)), rows
    if items == 501:
        assert not split_rows  # a small catalog is always scored on one thread
    else:
        assert split_rows == list(range(split_rows[0], SCORE_CHUNK + 1)) and split_rows[0] <= 30


def test_run_parts_raises_only_after_every_part_has_stopped():
    # no part may still write into a shared buffer once the error reaches the caller
    finished = []

    def run(part):
        if part == 0:
            raise ValueError("part 0 failed")
        time.sleep(0.05)
        finished.append(part)

    before = threading.active_count()
    with pytest.raises(ValueError, match="part 0 failed"):
        run_parts(run, 3)
    assert sorted(finished) == [1, 2] and threading.active_count() == before


def test_run_parts_raises_the_first_failed_part_on_the_caller():
    before = threading.active_count()

    def run(part):
        if part:
            raise ValueError(f"part {part} failed")

    with pytest.raises(ValueError, match="part 1 failed"):
        run_parts(run, 3)
    assert threading.active_count() == before
    ran = []
    run_parts(lambda part: ran.append((part, threading.get_ident(), threading.active_count())), 1)
    assert ran == [(0, threading.get_ident(), before)]  # one part starts no thread


def test_run_parts_runs_every_part_once_with_more_parts_than_cpus():
    counts = np.zeros(16, dtype=np.int64)
    before, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            run_parts(lambda part: counts.__setitem__(part, counts[part] + 1), len(counts))
    finally:
        sys.setswitchinterval(interval)
    assert counts.tolist() == [20] * len(counts) and threading.active_count() == before


def _recording_columns(monkeypatch):
    """Patch batch._score_columns to record the thread and (start, stop) of each call."""
    calls = []
    real = batch_module._score_columns

    def recording(params, xo, scores, start, stop):
        calls.append((threading.get_ident(), start, stop))
        real(params, xo, scores, start, stop)

    monkeypatch.setattr(batch_module, "_score_columns", recording)
    return calls


def _threads(calls) -> set:
    return {thread for thread, _, _ in calls}


def test_recommend_scores_the_whole_catalog_once_on_the_calling_thread(tiny_params, tiny_hp, two_cpus, monkeypatch):
    calls = _recording_columns(monkeypatch)
    recommend_top_n(tiny_params, tiny_hp, [3, 5, 7], 1, 5)
    assert calls == [(threading.get_ident(), 0, tiny_params.item_count + 1)]
    monkeypatch.setenv("CASER_THREADS", "x")  # one row never reads the thread budget
    recommend_top_n(tiny_params, tiny_hp, [3, 5, 7], 1, 5)


def test_one_thread_scores_many_rows_in_one_whole_catalog_product(large_split, two_cpus, monkeypatch):
    params = init_params(LARGE_HP, large_split.user_count, large_split.item_count, np.random.default_rng(23))
    users = list(large_split.users())
    histories = [_history(large_split, u, "test") for u in users]
    calls = _recording_columns(monkeypatch)
    split = score_matrix(params, LARGE_HP, histories, users)
    assert len(calls) == 2  # 150 rows of 2,892 columns are two ranges on two CPUs
    calls.clear()
    monkeypatch.setenv("CASER_THREADS", "1")
    whole = score_matrix(params, LARGE_HP, histories, users)
    assert calls == [(threading.get_ident(), 0, large_split.item_count + 1)]
    assert np.array_equal(split.view(np.uint64), whole.view(np.uint64))


def test_evaluate_on_two_cpus_has_the_bits_of_one_thread(large_split, two_cpus, monkeypatch):
    params = init_params(LARGE_HP, large_split.user_count, large_split.item_count, np.random.default_rng(21))
    calls = _recording_columns(monkeypatch)
    before = threading.active_count()
    split_report = evaluate(params, LARGE_HP, large_split, collect_per_user=True)
    assert len(_threads(calls)) == 2  # the product ran on two threads
    assert threading.active_count() == before  # and evaluate shut its thread down
    calls.clear()
    monkeypatch.setenv("CASER_THREADS", "1")
    serial_report = evaluate(params, LARGE_HP, large_split, collect_per_user=True)
    assert _threads(calls) <= {threading.get_ident()}  # no other thread scored
    assert _report_bits(split_report) == _report_bits(serial_report)


def test_evaluate_stops_its_thread_when_it_raises(large_split, two_cpus, monkeypatch):
    params = init_params(LARGE_HP, large_split.user_count, large_split.item_count, np.random.default_rng(22))
    calls = _recording_columns(monkeypatch)

    def failing(*args):
        raise RuntimeError("ranking failed")

    monkeypatch.setattr(evaluation, "metrics_for_ranking", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="ranking failed"):
        evaluate(params, LARGE_HP, large_split)
    assert len(_threads(calls)) == 2  # the first chunk was scored on two threads before ranking raised
    assert threading.active_count() == before


def test_small_catalog_evaluates_without_a_thread(tiny_params, tiny_hp, tiny_split, two_cpus, monkeypatch):
    calls = _recording_columns(monkeypatch)
    counts = []
    real_metrics = evaluation.metrics_for_ranking
    monkeypatch.setattr(evaluation, "metrics_for_ranking",
                        lambda *args: counts.append(threading.active_count()) or real_metrics(*args))
    before = threading.active_count()
    evaluate(tiny_params, tiny_hp, tiny_split)
    assert _threads(calls) <= {threading.get_ident()} and set(counts) == {before}
    # the 501-item bench catalogs (K = 100 and 64) are never split, whatever the CPU count
    _cpus(monkeypatch, 64)
    assert all(len(score_column_ranges(rows, 502, k)) == 1 for rows in range(1, SCORE_CHUNK + 1) for k in (64, 100))
