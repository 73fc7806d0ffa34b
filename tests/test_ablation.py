import dataclasses

import numpy as np
import pytest

from convrec.ablation import (
    ablation_csv,
    evaluate_pop,
    mask_history_items,
    popularity_counts,
    run_ablation,
)
from convrec.config import HyperParams, Ranking
from convrec.data import build_sequences, chronological_split
from convrec.errors import ConfigError
from convrec.evaluate import LONG_ROW, evaluate, ranked_order
from convrec.batch import batch_forward, forward
from convrec.model import ComponentMask, init_params
from convrec.synthetic import SyntheticSpec, generate_interactions
from convrec.training import train


def test_mask_codes():
    assert ComponentMask.from_code("pvh").code == "pvh"
    assert ComponentMask.from_code("hp").code == "ph"
    assert ComponentMask.from_code("v").code == "v"
    with pytest.raises(ConfigError):
        ComponentMask.from_code("xyz")
    with pytest.raises(ConfigError):
        ComponentMask(p=False, h=False, v=False)


def _masked_scores(params, hp, prev, user, mask):
    """The scores over every item of one (user, previous-L-items) pair under ``mask``: a one-row batch."""
    return batch_forward(params, hp, np.asarray(prev, dtype=np.int64)[None], np.array([user]), mask).scores[0]


def test_p_only_equals_latent_factor_form(tiny_params, tiny_hp, tiny_split):
    """With both conv paths off, ranking must equal the plain form
    out_w[:, d:] @ p_u + out_b exactly, for arbitrary (including nonzero-bias)
    parameters."""
    d = tiny_hp.latent_dim
    rng = np.random.default_rng(0)
    for user in rng.integers(1, tiny_split.user_count + 1, size=20):
        prev = rng.integers(1, tiny_split.item_count + 1, size=tiny_hp.order)
        scores = _masked_scores(tiny_params, tiny_hp, prev, int(user), ComponentMask(p=True, h=False, v=False))
        direct = tiny_params.out_w[:, d:] @ tiny_params.user_emb[int(user)] + tiny_params.out_b
        direct[0] = -np.inf
        assert np.array_equal(ranked_order(scores), ranked_order(direct))
        assert np.allclose(scores[1:], direct[1:], atol=0)


def test_v_only_single_filter_matches_weighted_sum_scorer(tiny_split):
    """v-only with one vertical filter is a hand-checkable weighted-sum model."""
    hp = HyperParams(latent_dim=6, order=4, num_targets=2, heights=(1,),
                     num_h_filters=1, num_v_filters=1, dropout=0.0, l2=0.0,
                     fc_act="identity")
    rng = np.random.default_rng(1)
    params = init_params(hp, tiny_split.user_count, tiny_split.item_count, rng)
    params.fc_b[:] = rng.normal(size=hp.latent_dim)
    prev, user = [2, 5, 7, 9], 3
    scores = _masked_scores(params, hp, prev, user, ComponentMask(p=True, h=False, v=True))
    # hand scorer: weighted sum of history embeddings -> fc (v slots only) -> output
    agg = sum(params.v_filters[0, l] * params.item_emb[prev[l]] for l in range(4))
    n = 1  # one horizontal filter slot, zeroed by the mask
    z = params.fc_w[:, n:] @ agg + params.fc_b
    y = params.out_w @ np.concatenate([z, params.user_emb[user]]) + params.out_b
    assert np.max(np.abs(scores[1:] - y[1:])) < 1e-12


# --------------------------------------------------------------------------
# POP baseline

def _pop_rank(split, item, user, exclude_seen=True):
    """``item``'s 1-based rank in POP's list for ``user``, read through evaluate_pop.

    With ``item`` as the only held-out item of the only evaluated user, AP
    is 1 / rank, or 0 when the item does not rank at all (None here).
    """
    test = [[] for _ in split.test]
    test[user] = [item]
    ap = evaluate_pop(dataclasses.replace(split, test=test), Ranking((1,), exclude_seen=exclude_seen)).mean_ap
    return round(1 / ap) if ap else None


def _pop_order(split):
    """Every item in POP's order, for a user whose history is not excluded."""
    ranks = {i: _pop_rank(split, i, 1, exclude_seen=False) for i in range(1, split.item_count + 1)}
    assert sorted(ranks.values()) == list(range(1, split.item_count + 1))
    return sorted(ranks, key=ranks.get)


def test_pop_ranking_by_count():
    rows = []
    for _ in range(5):
        rows.append(("u1", "a"))
    for _ in range(3):
        rows.append(("u2", "b"))
    rows += [("u1", "c"), ("u2", "c"), ("u1", "b")]
    users, items = zip(*rows)
    split = chronological_split(build_sequences((users, items, range(len(rows))), 1))
    order = _pop_order(split)
    names = [split.item_ids[i] for i in order]
    counts = {n: 0 for n in names}
    for u in split.users():
        for i in split.train[u]:
            counts[split.item_ids[i]] += 1
    by_count = sorted(counts.values(), reverse=True)
    assert [counts[n] for n in names] == by_count


def test_pop_ties_break_to_smaller_index(tiny_split):
    order = _pop_order(tiny_split)
    counts = popularity_counts(tiny_split)
    for a, b in zip(order, order[1:]):
        assert (counts[a], -a) >= (counts[b], -b)


def test_pop_baseline_excludes_history(tiny_split):
    seen = set(tiny_split.train[1] + tiny_split.validation[1])
    order = _pop_order(tiny_split)
    unseen = [i for i in order if i not in seen]
    for item in seen:
        assert _pop_rank(tiny_split, item, 1) is None
    for rank, item in enumerate(unseen, start=1):
        assert _pop_rank(tiny_split, item, 1) == rank


# --------------------------------------------------------------------------
# masked training and the ablation harness

def _micro_split():
    rows = generate_interactions(
        SyntheticSpec(num_users=24, num_items=40, seq_len=12, num_genres=4,
                      num_clusters=2, genres_per_cluster=2, num_special_pairs=2, seed=31)
    )
    return chronological_split(build_sequences(zip(*rows), 1))


HP = HyperParams(latent_dim=5, order=3, num_targets=1, heights=(1, 2, 3),
                 num_h_filters=2, num_v_filters=2, dropout=0.2, l2=1e-4, lr=5e-3)


def test_masked_training_freezes_disabled_tensors():
    split = _micro_split()
    cases = {
        "p": ("h_filters.0", "h_filters.1", "h_filters.2", "v_filters", "fc_w", "fc_b"),
        "pv": ("h_filters.0", "h_filters.1", "h_filters.2"),
        "vh": ("user_emb",),
    }
    for code, frozen_names in cases.items():
        mask = ComponentMask.from_code(code)
        result = train(split, HP, seed=4, epochs=2, batch_size=16, patience=10, comp_mask=mask)
        fresh = init_params(HP, split.user_count, split.item_count, np.random.default_rng([4, 1]))
        frozen = dict(result.params.tensors())
        init_t = dict(fresh.tensors())
        for name in frozen_names:
            assert np.array_equal(frozen[name], init_t[name]), (code, name)
        # sanity: something else did move
        assert any(
            not np.array_equal(frozen[n], init_t[n]) for n, _ in result.params.tensors()
        )


def test_run_ablation_single_mask_consistent():
    split = _micro_split()
    rows = run_ablation(split, HP, ["pvh"], seed=9, epochs=2, batch_size=16, patience=10)
    direct = train(split, HP, seed=9, epochs=2, batch_size=16, patience=10)
    report = evaluate(direct.params, HP, split)
    assert rows[0].mask == "pvh"
    assert rows[0].mean_ap == pytest.approx(report.mean_ap, abs=1e-15)


def test_run_ablation_pop_row():
    split = _micro_split()
    rows = run_ablation(split, HP, ["pop"], seed=1, epochs=1)
    want = evaluate_pop(split)
    assert rows[0].mean_ap == pytest.approx(want.mean_ap, abs=1e-15)
    assert rows[0].epochs == 0


def test_ablation_determinism():
    split = _micro_split()
    a = run_ablation(split, HP, ["pv"], seed=7, epochs=2, batch_size=16, patience=10)
    b = run_ablation(split, HP, ["pv"], seed=7, epochs=2, batch_size=16, patience=10)
    assert a[0].mean_ap == b[0].mean_ap


def test_ablation_csv_shape():
    split = _micro_split()
    rows = run_ablation(split, HP, ["pop", "p"], seed=2, epochs=1, batch_size=16, patience=10)
    text = ablation_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "mask,MAP,Prec@1,epochs,seed"
    assert len(lines) == 3


# --------------------------------------------------------------------------
# history masking

def test_empty_mask_keeps_rank(tiny_params, tiny_hp):
    history = [2, 3, 4, 5, 6]
    _, rank0 = mask_history_items(tiny_params, tiny_hp, history, 1, set(), probe_item=10)
    scores = forward(tiny_params, tiny_hp, [3, 4, 5, 6], 1)
    scores[np.asarray(history)] = -np.inf
    order = ranked_order(scores)
    want = int(np.where(order == 10)[0][0]) + 1
    assert rank0 == want


def _tied_params(hp, item_count, tied):
    """Random parameters under which the items in ``tied`` score exactly the same:
    zero output rows (a dot product of exact zeros) and one shared bias."""
    rng = np.random.default_rng(8)
    params = init_params(hp, 3, item_count, rng)
    params.out_b[1:] = rng.normal(size=item_count)
    params.out_w[tied] = 0.0
    params.out_b[tied] = params.out_b[tied[0]]
    return params


@pytest.mark.parametrize("item_count", [40, LONG_ROW + 50])
def test_mask_rank_is_position_in_ranked_order_with_ties(tiny_hp, item_count):
    # the probe ties with an item of a smaller and one of a larger index; the
    # longer catalog is counted by the rank counter's long-row branch
    tied = [5, 17, 29]
    params = _tied_params(tiny_hp, item_count, tied)
    history = [2, 3, 4]
    for positions in (set(), {1}, {2, 4}):
        for probe in tied + [1, item_count]:
            scores, rank = mask_history_items(params, tiny_hp, history, 2, positions, probe)
            assert scores[tied[0]] == scores[tied[1]] == scores[tied[2]]
            assert rank == int(np.flatnonzero(ranked_order(scores) == probe)[0]) + 1
    _, ranks = zip(*(mask_history_items(params, tiny_hp, history, 2, set(), p) for p in tied))
    assert ranks[1] == ranks[0] + 1 and ranks[2] == ranks[1] + 1


def test_masking_padding_position_is_noop(tiny_params, tiny_hp):
    history = [7, 8]  # window = [0, 0, 7, 8]
    base, rank_base = mask_history_items(tiny_params, tiny_hp, history, 1, set(), probe_item=9)
    masked, rank_masked = mask_history_items(tiny_params, tiny_hp, history, 1, {1, 2}, probe_item=9)
    assert np.array_equal(base, masked)
    assert rank_base == rank_masked


def test_mask_all_positions_equals_p_only_when_biases_zero(tiny_hp, tiny_split):
    # relu(0) = 0 and zero FC bias make the conv contribution vanish entirely
    rng = np.random.default_rng(5)
    params = init_params(tiny_hp, tiny_split.user_count, tiny_split.item_count, rng)
    history = [2, 3, 4, 5]
    scores, _ = mask_history_items(
        params, tiny_hp, history, 2, {1, 2, 3, 4}, probe_item=11, exclude_seen=False
    )
    p_only = _masked_scores(params, tiny_hp, [2, 3, 4, 5], 2, ComponentMask(p=True, h=False, v=False))
    assert np.max(np.abs(scores[1:] - p_only[1:])) < 1e-12


@pytest.mark.parametrize("offset", [-1, -5, 1], ids=["-1", "-5", "item_count+1"])
def test_probe_item_outside_the_items_rejected(tiny_params, tiny_hp, offset):
    probe = offset if offset < 0 else tiny_params.item_count + offset
    with pytest.raises(ConfigError, match=f"1..{tiny_params.item_count}"):
        mask_history_items(tiny_params, tiny_hp, [1, 2], 1, set(), probe_item=probe)


@pytest.mark.parametrize("first", [-1, 0, 121])
def test_history_item_outside_the_items_rejected(tiny_params, tiny_hp, first):
    assert tiny_params.item_count == 120
    with pytest.raises(ConfigError, match=r"history items must lie in 1\.\.120"):
        mask_history_items(tiny_params, tiny_hp, [first, 2, 3], 1, set(), probe_item=5)


def test_mask_positions_validated(tiny_params, tiny_hp):
    with pytest.raises(ConfigError):
        mask_history_items(tiny_params, tiny_hp, [1, 2], 1, {0}, probe_item=5)
    with pytest.raises(ConfigError):
        mask_history_items(tiny_params, tiny_hp, [1, 2], 1, {9}, probe_item=5)


def test_probe_item_in_the_excluded_history_rejected(tiny_params, tiny_hp):
    with pytest.raises(ConfigError, match="probe item 2 is excluded"):
        mask_history_items(tiny_params, tiny_hp, [1, 2], 1, set(), probe_item=2)
    mask_history_items(tiny_params, tiny_hp, [1, 2], 1, set(), probe_item=2, exclude_seen=False)
