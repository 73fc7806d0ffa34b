import dataclasses
import importlib
import itertools
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from convrec.batch import batch_forward, batch_loss, batch_loss_and_grads
from convrec.config import HyperParams
from convrec.errors import ConfigError
from convrec.gradients import TOY_HP, RowScatter, gradient_check
from convrec.model import ComponentMask, dropout_mask_for, init_params


def _setup(hp, seed=0, users=6, items=25, random_biases=True):
    rng = np.random.default_rng(seed)
    p = init_params(hp, users, items, rng)
    if random_biases:
        p.fc_b[:] = rng.normal(scale=0.3, size=p.fc_b.shape)
        p.out_b[1:] = rng.normal(scale=0.3, size=items)
    return p, rng


HP = HyperParams(latent_dim=5, order=4, num_targets=2, heights=(1, 2, 4),
                 num_h_filters=2, num_v_filters=2, dropout=0.0, l2=0.0)


def _one(p, hp, prev, user, targets, negatives):
    """Loss and gradient of one instance through the batch kernel."""
    tgt = np.array([targets], dtype=np.int64)
    neg = np.array([negatives], dtype=np.int64)
    return batch_loss_and_grads(
        p, hp, np.array([prev]), np.array([user]), tgt, np.ones(tgt.shape), neg, np.ones(neg.shape)
    )


def _nonzero_rows(rows, values, n_rows):
    """The rows of a (rows, values) gradient pair whose gradient is not all zero.

    Checks the pair's form first: sorted unique rows inside the table, one
    values row per recorded row. Every row that is not recorded is zero.
    """
    assert np.array_equal(rows, np.unique(rows)) and ((0 <= rows) & (rows < n_rows)).all()
    assert len(values) == len(rows)
    per_row = values if values.ndim > 1 else values[:, None]
    return set(rows[per_row.any(axis=1)].tolist())


def _row(rows, values, row):
    """One row of a (rows, values) gradient pair at full size; zero if not recorded."""
    at = np.flatnonzero(rows == row)
    return values[at[0]] if at.size else np.zeros(values.shape[1:])


def _scores_from_biases(p, biases):
    """Make every score equal out_b: zero output weights, chosen biases."""
    p.out_w[:] = 0.0
    p.out_b[:] = biases
    p.pin_rows()


# --------------------------------------------------------------------------
# loss values

def test_loss_at_zero_logits():
    p, _ = _setup(HP)
    for name, arr in p.tensors():
        arr[:] = 0.0
    targets, negatives = (3, 7), (9, 10, 11, 12, 13, 14)
    loss, _ = _one(p, HP, [1, 2, 3, 4], 1, targets, negatives)
    assert loss == pytest.approx(8 * math.log(2), abs=1e-12)


def test_loss_saturated_is_tiny():
    p, _ = _setup(HP)
    biases = np.zeros(p.item_count + 1)
    biases[3], biases[9] = 30.0, -30.0
    _scores_from_biases(p, biases)
    loss, _ = _one(p, HP, [1, 2, 3, 4], 1, (3,), (9,))
    assert loss < 1e-12


def test_loss_matches_naive_formula_at_moderate_logits():
    rng = np.random.default_rng(4)
    p, _ = _setup(HP)
    y = np.concatenate([[0.0], rng.uniform(-8, 8, size=25)])
    _scores_from_biases(p, y)
    # two rows; the second has one target and its negatives masked off
    tgt = np.array([[2, 5], [3, 0]])
    tmask = np.array([[1.0, 1.0], [1.0, 0.0]])
    neg = np.array([[7, 8, 9, 11, 12, 13], [14, 15, 16, 0, 0, 0]])
    nmask = (neg != 0).astype(float)
    loss, _ = batch_loss_and_grads(p, HP, np.array([[1, 2, 3, 4], [0, 1, 2, 3]]), np.array([1, 2]),
                                   tgt, tmask, neg, nmask)
    naive = 0.0
    for targets, negatives in (((2, 5), (7, 8, 9, 11, 12, 13)), ((3,), (14, 15, 16))):
        naive += -sum(math.log(1 / (1 + math.exp(-y[i]))) for i in targets)
        naive += -sum(math.log(1 - 1 / (1 + math.exp(-y[j]))) for j in negatives)
    assert loss == pytest.approx(naive / 2, abs=1e-10)


def test_loss_positive_off_saturation():
    p, _ = _setup(HP, seed=8)
    loss, _ = _one(p, HP, [2, 3, 4, 5], 2, (6,), (7, 8, 9))
    assert loss > 0.0


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("l2", [0.0, 1e-2])
@pytest.mark.parametrize("code", ["pvh", "p", "pv", "vh", "ph"])
def test_batch_loss_of_one_forward_is_the_training_loss(code, l2, dropout):
    """gradient_check's probes read batch_loss of one batch_forward; training reads batch_loss_and_grads."""
    hp = dataclasses.replace(HP, l2=l2, dropout=dropout)
    p, rng = _setup(hp, seed=11)
    mask = ComponentMask.from_code(code)
    prev = np.array([[0, 0, 2, 3], [3, 3, 7, 1], [9, 8, 7, 6]])
    users = np.array([1, 4, 4])
    tgt = np.array([[10, 11], [12, 0], [10, 13]])
    neg = np.array([[17, 18, 19, 20, 21, 22], [19, 23, 0, 0, 0, 0], [1, 2, 3, 4, 5, 6]])
    tmask, nmask = (tgt != 0).astype(float), (neg != 0).astype(float)
    dmask = dropout_mask_for(hp, rng, len(prev))
    ids = np.concatenate([tgt, neg], axis=1)
    bt = batch_forward(p, hp, prev, users, mask, dmask, score_ids=ids)
    loss, _ = batch_loss_and_grads(p, hp, prev, users, tgt, tmask, neg, nmask, mask, dmask)
    assert batch_loss(p, hp, bt, tmask, nmask).hex() == loss.hex()
    # the trace holds the rows the forward gathered, for the penalty and the backward to reuse
    assert np.array_equal(bt.score_ids, ids) and np.array_equal(bt.out_w_scored, p.out_w[ids])
    assert np.array_equal(bt.E, p.item_emb[prev])


# --------------------------------------------------------------------------
# backward structure

def test_gradient_sparsity_support():
    p, _ = _setup(HP, seed=2)
    prev, targets, negatives = [0, 2, 3, 3], (5, 6), (8, 9, 10, 11, 12, 13)
    _, g = _one(p, HP, prev, 2, targets, negatives)
    n = p.item_count + 1
    assert _nonzero_rows(g.item_rows, g.item_emb, n) == {2, 3}
    touched_out = set(targets) | set(negatives)
    assert _nonzero_rows(g.out_rows, g.out_w, n) == touched_out
    assert _nonzero_rows(g.out_rows, g.out_b, n) == touched_out
    assert _nonzero_rows(g.user_rows, g.user_emb, p.user_count + 1) == {2}


def test_gradient_sparsity_support_with_l2():
    hp = dataclasses.replace(HP, l2=0.05)
    p, _ = _setup(hp, seed=2)
    prev, targets, negatives = [0, 2, 3, 3], (5, 6), (8, 9, 10, 11, 12, 13)
    _, g = _one(p, hp, prev, 2, targets, negatives)
    n = p.item_count + 1
    assert _nonzero_rows(g.item_rows, g.item_emb, n) == {2, 3}
    assert _nonzero_rows(g.out_rows, g.out_w, n) == {5, 6, 8, 9, 10, 11, 12, 13}


def test_zero_output_weights_give_zero_fc_gradient():
    p, _ = _setup(HP)
    _scores_from_biases(p, 0.0)
    _, g = _one(p, HP, [1, 2, 3, 4], 1, (3,), (9, 10, 11))
    # all logits are 0 (sigma = 0.5) and out_w = 0, so nothing flows below y
    assert not g.fc_w.any() and not g.fc_b.any()
    assert not g.user_emb.any() and not g.item_emb.any()
    assert g.out_w.any() or g.out_b.any()  # y-level gradients remain


def test_pinned_rows_never_touched():
    p, _ = _setup(HP, seed=5)
    _, g = _one(p, HP, [0, 0, 1, 2], 3, (4,), (5, 6, 7))
    assert 0 in g.item_rows  # the padding id was scattered into, then zeroed
    assert not _row(g.item_rows, g.item_emb, 0).any()
    assert not _row(g.out_rows, g.out_w, 0).any() and _row(g.out_rows, g.out_b, 0) == 0.0


def _assert_rows_cover(g, p):
    for table, rows, param in ((g.user_emb, g.user_rows, p.user_emb), (g.item_emb, g.item_rows, p.item_emb),
                               (g.out_w, g.out_rows, p.out_w), (g.out_b, g.out_rows, p.out_b)):
        _nonzero_rows(rows, table, len(param))  # sorted, unique, in range, one values row each
        assert table.shape[1:] == param.shape[1:]


MASKS = [ComponentMask(p, h, v) for p, h, v in itertools.product((True, False), repeat=3) if p or h or v]


@pytest.mark.parametrize("l2", [0.0, 0.05])
@pytest.mark.parametrize("mask", MASKS, ids=str)
def test_recorded_rows_cover_every_nonzero_gradient_row(mask, l2):
    hp = dataclasses.replace(HP, l2=l2, dropout=0.3)
    p, rng = _setup(hp, seed=9)
    B, T = 5, hp.num_targets
    prev = np.array([[0, 0, 2, 3], [3, 3, 7, 1], [0, 4, 4, 4], [9, 8, 7, 6], [0, 0, 0, 5]])
    users = np.array([1, 4, 4, 6, 2])
    tgt = np.array([[10, 11], [12, 0], [10, 13], [14, 15], [16, 0]])
    tmask = (tgt != 0).astype(float)
    neg = np.array([[17, 18, 19, 20, 21, 22], [19, 23, 24, 0, 0, 0], [17, 17, 18, 25, 20, 21],
                    [1, 2, 3, 4, 5, 6], [7, 8, 9, 0, 0, 0]])
    nmask = (neg != 0).astype(float)
    dmask = dropout_mask_for(hp, rng, B)
    _, g = batch_loss_and_grads(p, hp, prev, users, tgt, tmask, neg, nmask, mask, dmask)
    _assert_rows_cover(g, p)
    assert g.item_emb.any() == (mask.h or mask.v) and g.user_emb.any() == mask.p


# --------------------------------------------------------------------------
# the ordered row scatter

def _scatter_inputs(seed, n_rows, shape, width, skewed):
    """Ids with duplicates and id 0, and two passes of values whose sums depend on the order."""
    rng = np.random.default_rng(seed)
    if skewed:  # a few rows take most ids, as the padding id or a popular item can
        ids = np.minimum(rng.zipf(1.3, size=shape) - 1, n_rows - 1)
    else:
        ids = rng.integers(0, n_rows, size=shape)

    def values():
        # magnitudes spread over 16 decades, so a sum in another order rounds differently
        return rng.normal(size=(ids.size, width)) * 10.0 ** rng.uniform(-8, 8, size=(ids.size, width))

    return ids, values(), values()


def _ordered_oracle(ids, n_rows, data, l2):
    """2-D np.add.at into a full zero table: data pass, row 0 zeroed, then the L2 pass."""
    full = np.zeros((n_rows,) + data.shape[1:])
    np.add.at(full, ids.ravel(), data)
    full[0] = 0.0
    np.add.at(full, ids.ravel(), l2)
    return full


def _compact(sc, data, l2):
    table = sc.sum(data)
    sc.zero_padding_row(table)
    sc.add(table, l2)
    return table


def _assert_bitwise(got, want):
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 60),
    shape=st.sampled_from([(1,), (7,), (40,), (300,), (5, 3), (30, 5), (100, 12)]),
    width=st.sampled_from([1, 2, 5, 16]),
    skewed=st.booleans(),
)
def test_row_scatter_equals_2d_add_at_bitwise(seed, n_rows, shape, width, skewed):
    ids, data, l2 = _scatter_inputs(seed, n_rows, shape, width, skewed)
    sc = RowScatter(ids, width)
    assert np.array_equal(sc.rows, np.unique(ids))
    # a 2-D table and a 1-D column share the scatter, like out_w and out_b
    for values, extra in ((data, l2), (data[:, 0].copy(), l2[:, 0].copy())):
        full = _ordered_oracle(ids, n_rows, values, extra)
        _assert_bitwise(_compact(sc, values, extra), full[sc.rows])
        untouched = np.setdiff1d(np.arange(n_rows), sc.rows)
        assert not full[untouched].view(np.uint64).any()  # +0.0 wherever no id landed


def test_row_scatter_order_matters_on_these_inputs():
    """The property above has teeth: summing the same ids in another order changes bits."""
    ids, data, l2 = _scatter_inputs(3, 20, (100, 12), 5, skewed=True)
    full = _ordered_oracle(ids, 20, data, l2)
    backwards = _ordered_oracle(ids.ravel()[::-1], 20, data[::-1], l2[::-1])
    assert not np.array_equal(full.view(np.uint64), backwards.view(np.uint64))
    sc = RowScatter(ids, 5)
    _assert_bitwise(_compact(sc, data, l2), full[sc.rows])


# --------------------------------------------------------------------------
# finite differences of the batch kernel

def _assert_checked(report):
    assert report.passed(), str(report)
    assert all(tc.checked > 0 for tc in report.per_tensor.values()), str(report)


def test_gradient_check_default_toy_config():
    _assert_checked(gradient_check(seed=1))


def test_gradient_check_with_dropout_fixed_mask():
    hp = dataclasses.replace(TOY_HP, dropout=0.5)
    _assert_checked(gradient_check(hp=hp, seed=2))


def test_gradient_check_with_l2():
    hp = dataclasses.replace(TOY_HP, l2=0.02)
    _assert_checked(gradient_check(hp=hp, seed=3))


def test_gradient_check_with_dropout_l2_and_three_rows():
    hp = dataclasses.replace(TOY_HP, dropout=0.3, l2=0.05, num_targets=3)
    _assert_checked(gradient_check(hp=hp, seed=7, num_instances=3))


def test_gradient_check_negatives_per_instance():
    hp = dataclasses.replace(TOY_HP, negatives_per_instance=True, num_negatives=4, l2=0.01)
    _assert_checked(gradient_check(hp=hp, seed=8))


def test_gradient_check_nonrelu_activations():
    hp = dataclasses.replace(TOY_HP, conv_act="tanh", fc_act="sigmoid")
    report = gradient_check(hp=hp, seed=4)
    assert all(tc.skipped == 0 for tc in report.per_tensor.values())
    _assert_checked(report)


def test_gradient_check_vertical_activation_flag():
    # off by default; when enabled the chain rule must still verify
    for act in ("tanh", "relu"):
        hp = dataclasses.replace(TOY_HP, vertical_act=act)
        report = gradient_check(hp=hp, seed=6)
        assert report.passed(), f"vertical_act={act}: {report}"


def test_gradient_check_masked_variants():
    for mask in (ComponentMask(p=True, h=False, v=True), ComponentMask(p=False, h=True, v=True),
                 ComponentMask(p=True, h=True, v=False)):
        report = gradient_check(seed=5, comp_mask=mask)
        assert report.passed(), f"{mask}: {report}"


def test_gradient_check_needs_two_rows():
    with pytest.raises(ConfigError):
        gradient_check(num_instances=1)


def test_gradient_check_fails_a_nan_gradient(monkeypatch):
    batch = importlib.import_module("convrec.batch")
    real = batch.batch_loss_and_grads

    def nan_fc_b(*args):
        loss, grads = real(*args)
        grads.fc_b[0] = np.nan
        return loss, grads

    monkeypatch.setattr(batch, "batch_loss_and_grads", nan_fc_b)
    report = gradient_check(seed=1)
    assert math.isnan(report.per_tensor["fc_b"].max_rel_err)
    assert not report.passed() and "[FAIL]" in str(report)


def test_gradient_check_runs_the_backward_once(monkeypatch):
    """Each probe is one forward; only the analytic gradient runs the backward."""
    batch = importlib.import_module("convrec.batch")
    real, calls = batch._batch_backward, []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(batch, "_batch_backward", counted)
    report = gradient_check(seed=1)
    assert report.passed() and len(calls) == 1


@pytest.mark.parametrize("step", [0.0, -1e-5, math.nan, math.inf])
def test_gradient_check_refuses_a_bad_step(step):
    with pytest.raises(ConfigError, match="step"):
        gradient_check(step=step)


def test_loss_decreases_under_small_gradient_step():
    p, rng = _setup(HP, seed=7)
    args = ([1, 2, 3, 4], 1, (5, 6), (8, 9, 10, 11, 12, 13))
    base, g = _one(p, HP, *args)
    lr = 1e-3
    for (_, arr), (_, grad, rows) in zip(p.tensors(), g.by_layout(p.layout)):
        arr[rows] -= lr * grad
    p.pin_rows()
    after, _ = _one(p, HP, *args)
    assert after < base


def test_dropout_mask_scaling():
    hp = dataclasses.replace(HP, dropout=0.5)
    rng = np.random.default_rng(0)
    mask = dropout_mask_for(hp, rng, 3)
    assert mask.shape == (3, hp.fc_input_dim)
    assert set(np.unique(mask)) <= {0.0, 2.0}
    assert dropout_mask_for(HP, rng, 3) is None  # rate 0: no mask, no draw


def test_gradient_check_draws_negatives_with_the_training_sampler(monkeypatch):
    """The kernel is checked on the negatives and slot mask that training's sampler returns."""
    training, batch = importlib.import_module("convrec.training"), importlib.import_module("convrec.batch")
    sample, kernel, drawn, used = training.sample_negative_batch, batch.batch_loss_and_grads, [], []
    monkeypatch.setattr(training, "sample_negative_batch", lambda *a, **k: drawn.append(sample(*a, **k)) or drawn[-1])
    monkeypatch.setattr(batch, "batch_loss_and_grads", lambda *a: used.append(a[6:8]) or kernel(*a))
    assert gradient_check(seed=1).passed()
    assert len(drawn) == 1 and len(used) == 1
    assert all(np.array_equal(x, y) for x, y in zip(drawn[0], used[0]))
