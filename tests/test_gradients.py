import dataclasses
import itertools
import math

import numpy as np
import pytest

from convrec.batch import batch_loss_and_grads
from convrec.config import HyperParams
from convrec.gradients import TOY_HP, gradient_check
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


# --------------------------------------------------------------------------
# backward structure

def test_gradient_sparsity_support():
    p, _ = _setup(HP, seed=2)
    prev, targets, negatives = [0, 2, 3, 3], (5, 6), (8, 9, 10, 11, 12, 13)
    _, g = _one(p, HP, prev, 2, targets, negatives)
    touched_items = {2, 3}
    for row in range(p.item_count + 1):
        nonzero = g.item_emb[row].any()
        assert nonzero == (row in touched_items)
    touched_out = set(targets) | set(negatives)
    for row in range(p.item_count + 1):
        assert g.out_w[row].any() == (row in touched_out)
        assert (g.out_b[row] != 0) == (row in touched_out)
    assert g.user_emb[2].any()
    assert not g.user_emb[[0, 1, 3, 4, 5, 6]].any()


def test_gradient_sparsity_support_with_l2():
    hp = dataclasses.replace(HP, l2=0.05)
    p, _ = _setup(hp, seed=2)
    prev, targets, negatives = [0, 2, 3, 3], (5, 6), (8, 9, 10, 11, 12, 13)
    _, g = _one(p, hp, prev, 2, targets, negatives)
    for row in range(p.item_count + 1):
        assert g.item_emb[row].any() == (row in {2, 3})
        assert g.out_w[row].any() == (row in {5, 6, 8, 9, 10, 11, 12, 13})


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
    assert not g.item_emb[0].any()
    assert not g.out_w[0].any() and g.out_b[0] == 0.0


def _assert_rows_cover(g):
    for table, rows in ((g.user_emb, g.user_rows), (g.item_emb, g.item_rows),
                        (g.out_w, g.out_rows), (g.out_b, g.out_rows)):
        assert np.array_equal(rows, np.unique(rows))  # sorted, unique
        nonzero = np.flatnonzero(table.reshape(len(table), -1).any(axis=1))
        assert set(nonzero) <= set(rows)


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
    _assert_rows_cover(g)
    assert g.item_emb.any() == (mask.h or mask.v) and g.user_emb.any() == mask.p


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
    with pytest.raises(ValueError):
        gradient_check(num_instances=1)


def test_loss_decreases_under_small_gradient_step():
    p, rng = _setup(HP, seed=7)
    args = ([1, 2, 3, 4], 1, (5, 6), (8, 9, 10, 11, 12, 13))
    base, g = _one(p, HP, *args)
    lr = 1e-3
    for (_, arr), (_, grad) in zip(p.tensors(), g.tensors()):
        arr -= lr * grad
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
