import dataclasses
import itertools
import math

import numpy as np
import pytest

from convrec.batch import batch_loss_and_grads
from convrec.config import HyperParams
from convrec.gradients import TOY_HP, backward, bce_loss, gradient_check
from convrec.model import ComponentMask, dropout_mask_for, forward, init_params


def _setup(hp, seed=0, users=6, items=25, random_biases=True):
    rng = np.random.default_rng(seed)
    p = init_params(hp, users, items, rng)
    if random_biases:
        p.fc_b[:] = rng.normal(scale=0.3, size=p.fc_b.shape)
        p.out_b[1:] = rng.normal(scale=0.3, size=items)
    return p, rng


HP = HyperParams(latent_dim=5, order=4, num_targets=2, heights=(1, 2, 4),
                 num_h_filters=2, num_v_filters=2, dropout=0.0, l2=0.0)


# --------------------------------------------------------------------------
# loss values

def test_loss_at_zero_logits():
    p, _ = _setup(HP)
    for name, arr in p.tensors():
        arr[:] = 0.0
    tr = forward(p, HP, [1, 2, 3, 4], 1, mode="train")
    targets, negatives = (3, 7), (9, 10, 11, 12, 13, 14)
    loss = bce_loss(tr, targets, negatives)
    assert loss == pytest.approx(8 * math.log(2), abs=1e-12)


def test_loss_saturated_is_tiny():
    p, _ = _setup(HP)
    tr = forward(p, HP, [1, 2, 3, 4], 1, mode="train")
    tr.scores[3] = 30.0
    tr.scores[9] = -30.0
    assert bce_loss(tr, (3,), (9,)) < 1e-12


def test_loss_matches_naive_formula_at_moderate_logits():
    rng = np.random.default_rng(4)
    p, _ = _setup(HP)
    tr = forward(p, HP, [1, 2, 3, 4], 1, mode="train")
    tr.scores[1:] = rng.uniform(-8, 8, size=25)
    targets, negatives = (2, 5), (7, 8, 9, 11, 12, 13)
    naive = -sum(math.log(1 / (1 + math.exp(-tr.scores[i]))) for i in targets)
    naive += -sum(math.log(1 - 1 / (1 + math.exp(-tr.scores[j]))) for j in negatives)
    assert bce_loss(tr, targets, negatives) == pytest.approx(naive, abs=1e-10)


def test_loss_rejects_overlap():
    p, _ = _setup(HP)
    tr = forward(p, HP, [1, 2, 3, 4], 1, mode="train")
    with pytest.raises(ValueError):
        bce_loss(tr, (3, 4), (4, 5))


def test_loss_positive_off_saturation():
    p, _ = _setup(HP, seed=8)
    tr = forward(p, HP, [2, 3, 4, 5], 2, mode="train")
    assert bce_loss(tr, (6,), (7, 8, 9)) > 0.0


# --------------------------------------------------------------------------
# backward structure

def test_backward_requires_train_trace():
    p, _ = _setup(HP)
    tr = forward(p, HP, [1, 2, 3, 4], 1, mode="infer")
    with pytest.raises(ValueError):
        backward(p, HP, tr, (3,), (9,))


def test_gradient_sparsity_support():
    p, _ = _setup(HP, seed=2)
    prev, targets, negatives = [0, 2, 3, 3], (5, 6), (8, 9, 10, 11, 12, 13)
    tr = forward(p, HP, prev, 2, mode="train")
    g = backward(p, HP, tr, targets, negatives)
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
    prev, targets, negatives = [0, 2, 3, 3], (5, 6), (8, 9)
    tr = forward(p, hp, prev, 2, mode="train")
    g = backward(p, hp, tr, targets, negatives)
    for row in range(p.item_count + 1):
        assert g.item_emb[row].any() == (row in {2, 3})
        assert g.out_w[row].any() == (row in {5, 6, 8, 9})


def test_zero_output_weights_give_zero_fc_gradient():
    p, _ = _setup(HP)
    p.out_w[:] = 0.0
    p.out_b[:] = 0.0
    tr = forward(p, HP, [1, 2, 3, 4], 1, mode="train")
    g = backward(p, HP, tr, (3,), (9, 10, 11))
    # all logits are 0 (sigma = 0.5) and out_w = 0, so nothing flows below y
    assert not g.fc_w.any() and not g.fc_b.any()
    assert not g.user_emb.any() and not g.item_emb.any()
    assert g.out_w.any() or g.out_b.any()  # y-level gradients remain


def test_pinned_rows_never_touched():
    p, _ = _setup(HP, seed=5)
    tr = forward(p, HP, [0, 0, 1, 2], 3, mode="train")
    g = backward(p, HP, tr, (4,), (5, 6, 7))
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
    dmask = (rng.random((B, hp.fc_input_dim)) >= hp.dropout) / (1 - hp.dropout)
    _, g = batch_loss_and_grads(p, hp, prev, users, tgt, tmask, neg, nmask, mask, dmask)
    _assert_rows_cover(g)
    assert g.item_emb.any() == (mask.h or mask.v) and g.user_emb.any() == mask.p
    for b in range(B):
        tr = forward(p, hp, prev[b], int(users[b]), mode="train", dropout_mask=dmask[b], comp_mask=mask)
        _assert_rows_cover(backward(p, hp, tr, tuple(tgt[b][tmask[b] > 0]), tuple(neg[b][nmask[b] > 0])))


# --------------------------------------------------------------------------
# finite differences

def test_gradient_check_default_toy_config():
    report = gradient_check(num_instances=1, seed=1)
    assert report.passed(), str(report)


def test_gradient_check_with_dropout_fixed_mask():
    hp = dataclasses.replace(TOY_HP, dropout=0.5)
    report = gradient_check(hp=hp, num_instances=1, seed=2)
    assert report.passed(), str(report)


def test_gradient_check_with_l2():
    hp = dataclasses.replace(TOY_HP, l2=0.02)
    report = gradient_check(hp=hp, num_instances=1, seed=3)
    assert report.passed(), str(report)


def test_gradient_check_nonrelu_activations():
    hp = dataclasses.replace(TOY_HP, conv_act="tanh", fc_act="sigmoid")
    report = gradient_check(hp=hp, num_instances=1, seed=4)
    assert all(tc.skipped == 0 for tc in report.per_tensor.values())
    assert report.passed(), str(report)


def test_gradient_check_vertical_activation_flag():
    # off by default; when enabled the chain rule must still verify
    for act in ("tanh", "relu"):
        hp = dataclasses.replace(TOY_HP, vertical_act=act)
        report = gradient_check(hp=hp, num_instances=1, seed=6)
        assert report.passed(), f"vertical_act={act}: {report}"


def test_gradient_check_masked_variants():
    for mask in (ComponentMask(p=True, h=False, v=True), ComponentMask(p=False, h=True, v=True)):
        report = gradient_check(num_instances=1, seed=5, comp_mask=mask)
        assert report.passed(), f"{mask}: {report}"


def test_loss_decreases_under_small_gradient_step():
    p, rng = _setup(HP, seed=7)
    prev, user, targets, negatives = [1, 2, 3, 4], 1, (5, 6), (8, 9, 10, 11, 12, 13)
    tr = forward(p, HP, prev, user, mode="train")
    base = bce_loss(tr, targets, negatives)
    g = backward(p, HP, tr, targets, negatives)
    lr = 1e-3
    for (_, arr), (_, grad) in zip(p.tensors(), g.tensors()):
        arr -= lr * grad
    p.pin_rows()
    after = bce_loss(forward(p, HP, prev, user, mode="train"), targets, negatives)
    assert after < base


def test_dropout_mask_scaling():
    hp = dataclasses.replace(HP, dropout=0.5)
    rng = np.random.default_rng(0)
    mask = dropout_mask_for(hp, rng)
    assert mask.shape == (hp.fc_input_dim,)
    assert set(np.unique(mask)) <= {0.0, 2.0}
