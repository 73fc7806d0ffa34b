import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from convrec.ablation import evaluate_pop, popularity_counts
from convrec.evaluate import (
    AP_MODES,
    _metrics_from_positions,
    average_precision,
    evaluate,
    metrics_for_ranking,
    prec_recall_at,
    ranked_order,
    recommend_top_n,
    score_matrix,
)
from convrec.model import forward, init_params


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
    scores = forward(tiny_params, tiny_hp, [1, 4, 1, 5], 2).scores
    expected = sorted(
        range(1, tiny_split.item_count + 1), key=lambda i: (-scores[i], i)
    )[:8]
    assert ranked.items.tolist() == expected


def test_recommend_rejects_bad_n(tiny_params, tiny_hp):
    with pytest.raises(ValueError):
        recommend_top_n(tiny_params, tiny_hp, [1, 2], 1, n=0)


# --------------------------------------------------------------------------
# counted ranks and top-N selection against a full sort of the row

def _sorted_metrics(scores, relevant, cutoffs, ap_mode, cutoff):
    """Hit ranks read off a full lexsort of the row: the oracle for counting."""
    order = np.lexsort((np.arange(scores.size), -scores))
    n_eligible = int(np.isfinite(scores).sum())
    hit_ranks = np.flatnonzero(np.isin(order[:n_eligible], list(relevant))) + 1
    return _metrics_from_positions(hit_ranks, len(relevant), n_eligible, cutoffs, ap_mode, cutoff)


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


@settings(max_examples=200, deadline=None)
@given(tied_rows(), st.sampled_from(AP_MODES), st.one_of(st.none(), st.integers(1, 35)))
def test_counted_ranks_match_full_sort(row, ap_mode, cutoff):
    _, scores, _, relevant = row
    cutoffs = tuple(range(1, scores.size + 1))  # prec at every n pins down every hit rank
    got = metrics_for_ranking(scores, relevant, cutoffs, ap_mode, cutoff)
    assert got == _sorted_metrics(scores, relevant, cutoffs, ap_mode, cutoff)


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
# precision / recall / AP

def test_prec_recall_hand_case():
    ranked = [10, 3, 7, 2, 9]
    relevant = {3, 9, 20, 21}
    prec, rec = prec_recall_at(ranked, relevant, 5)
    assert prec == pytest.approx(0.4)
    assert rec == pytest.approx(0.5)


def test_prec_recall_no_hits():
    assert prec_recall_at([1, 2, 3], {9}, 3) == (0.0, 0.0)


def test_prec_recall_empty_relevant_rejected():
    with pytest.raises(ValueError):
        prec_recall_at([1, 2], set(), 1)


def test_ap_perfect_ranking():
    assert average_precision([5, 6, 7, 1, 2], {5, 6, 7}) == pytest.approx(1.0)


def test_ap_hand_case_standard():
    ranked = [4, 8, 9, 1, 2]
    relevant = {4, 9}
    val = average_precision(ranked, relevant, mode="standard")
    assert val == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)


def test_ap_hand_case_paper_literal():
    ranked = [4, 8, 9]
    relevant = {4, 9}
    val = average_precision(ranked, relevant, mode="paper_literal", cutoff=3)
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
    assert prec_recall_at(ranked, relevant, n) == ref_prec_recall(ranked, relevant, n)
    cutoff = int(rng.integers(1, universe + 1))
    for mode in ("standard", "paper_literal"):
        got = average_precision(ranked, relevant, mode=mode, cutoff=cutoff)
        assert got == pytest.approx(ref_ap(ranked, relevant, mode, cutoff), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_ap_bounds_and_mode_inequality(seed):
    rng = np.random.default_rng(seed)
    universe = int(rng.integers(4, 30))
    ranked = list(rng.permutation(np.arange(1, universe + 1)))
    n_rel = int(rng.integers(1, universe))
    relevant = set(int(x) for x in rng.choice(np.arange(1, universe + 1), size=n_rel, replace=False))
    std = average_precision(ranked, relevant, mode="standard")
    lit = average_precision(ranked, relevant, mode="paper_literal")
    assert 0.0 <= std <= 1.0
    assert lit <= std + 1e-12  # cutoff = full list >= |relevant|


def test_recall_monotone_in_n():
    rng = np.random.default_rng(0)
    ranked = list(rng.permutation(np.arange(1, 30)))
    relevant = {3, 7, 19}
    last = 0.0
    for n in range(1, 30):
        _, rec = prec_recall_at(ranked, relevant, n)
        assert rec >= last
        last = rec


# --------------------------------------------------------------------------
# evaluate() against a straight-line per-user script

def _reference_evaluate(params, hp, split, cutoffs, ap_mode):
    from convrec.data import history_for, pad_left

    prec = {n: [] for n in cutoffs}
    rec = {n: [] for n in cutoffs}
    aps = []
    for u in split.users():
        relevant = set(split.test[u])
        if not relevant:
            continue
        hist = history_for(split, u, "test")
        scores = forward(params, hp, pad_left(hist, hp.order), u).scores.copy()
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
    report = evaluate(tiny_params, tiny_hp, tiny_split, cutoffs=(1, 5, 10), ap_mode=ap_mode)
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
    report = evaluate(tiny_params, tiny_hp, tiny_split, cutoffs=(1,), collect_per_user=True)
    users = report.users_evaluated
    total_hits = round(report.precision[1] * users)
    assert 0 <= total_hits <= users


def test_score_matrix_matches_forward(tiny_params, tiny_hp):
    hist = [[1, 2, 3], [4, 5, 6, 7, 8]]
    mat = score_matrix(tiny_params, tiny_hp, hist, [1, 2])
    from convrec.data import pad_left

    for row, (h, u) in enumerate(zip(hist, [1, 2])):
        want = forward(tiny_params, tiny_hp, pad_left(h, tiny_hp.order), u).scores
        fin = np.isfinite(want)
        assert np.allclose(mat[row][fin], want[fin], atol=1e-12)
