import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from convrec.batch import batch_forward, forward
from convrec.config import HyperParams
from convrec.model import (
    ComponentMask,
    dropout_mask_for,
    horizontal_conv,
    init_params,
    sigmoid,
    vertical_conv,
)


def _params(hp, users=5, items=12, seed=0, random_biases=False):
    rng = np.random.default_rng(seed)
    p = init_params(hp, users, items, rng)
    if random_biases:
        p.fc_b[:] = rng.normal(size=p.fc_b.shape)
        p.out_b[1:] = rng.normal(size=items)
    return p


HP = HyperParams(latent_dim=5, order=4, num_targets=2, heights=(1, 2, 3),
                 num_h_filters=2, num_v_filters=3, dropout=0.0, l2=0.0)


# --------------------------------------------------------------------------
# initialization

def test_init_deterministic():
    a = _params(HP, seed=9)
    b = _params(HP, seed=9)
    for (_, x), (_, y) in zip(a.tensors(), b.tensors()):
        assert np.array_equal(x, y)


def test_init_pinned_rows_zero():
    p = _params(HP)
    assert not p.item_emb[0].any()
    assert not p.out_w[0].any()
    assert p.out_b[0] == 0.0
    assert not p.user_emb[0].any()


def test_init_biases_zero():
    p = _params(HP)
    assert not p.fc_b.any()
    assert not p.out_b.any()


def test_init_mean_within_statistical_bound():
    hp = HyperParams(latent_dim=40, order=5, heights=(1, 2, 3, 4, 5),
                     num_h_filters=8, num_v_filters=4)
    p = _params(hp, users=50, items=200, seed=3)
    k = hp.fc_input_dim
    a = math.sqrt(6.0 / (k + hp.latent_dim))
    entries = p.fc_w.size
    bound = 3 * a / math.sqrt(3 * entries)
    assert abs(p.fc_w.mean()) < bound
    assert np.abs(p.fc_w).max() <= a


# --------------------------------------------------------------------------
# embedding lookup

def _trace(p, hp, prev, user, **kw):
    return batch_forward(p, hp, np.array([prev]), np.array([user]), **kw)


def test_lookup_padding_rows_zero():
    p = _params(HP)
    E = _trace(p, HP, [0, 0, 3, 4], 1).E[0]
    assert not E[:2].any()
    assert np.array_equal(E[2], p.item_emb[3])
    assert np.array_equal(E[3], p.item_emb[4])


def test_lookup_row_order_oldest_first():
    p = _params(HP)
    prev = [2, 7, 1, 9]
    bt = _trace(p, HP, prev, 3)
    for r, item in enumerate(prev):
        assert np.array_equal(bt.E[0, r], p.item_emb[item])
    assert np.array_equal(bt.p_u[0], p.user_emb[3])


def test_lookup_out_of_range():
    p = _params(HP)
    with pytest.raises(IndexError):
        forward(p, HP, [1, 2, 3, 999], 1)
    with pytest.raises(IndexError):
        forward(p, HP, [1, 2, -1, 4], 1)
    with pytest.raises(IndexError):
        forward(p, HP, [1, 2, 3, 4], 0)
    with pytest.raises(IndexError):
        forward(p, HP, [1, 2, 3, 4], p.user_count + 1)


# --------------------------------------------------------------------------
# horizontal convolution

def _hconv(E, filters, act):
    """horizontal_conv on a batch of one: pooled, per-height pre, argmax."""
    pooled, pre, amax = horizontal_conv(E[None], filters, act)
    return pooled[0], [x[0] for x in pre], np.concatenate([a[0] for a in amax])


def test_horizontal_hand_case():
    E = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    filt = [np.ones((1, 2, 2))]
    pooled, pre, argmax = _hconv(E, filt, "identity")
    assert pooled.tolist() == [3.0]
    assert pre[0].tolist() == [[2.0, 3.0]]
    assert argmax.tolist() == [1]


def test_horizontal_zero_filter():
    E = np.random.default_rng(0).normal(size=(4, 3))
    filt = [np.zeros((1, 2, 3))]
    pooled, pre, argmax = _hconv(E, filt, "sigmoid")
    assert pooled.tolist() == [0.5]  # sigmoid(0)


def test_horizontal_full_height_single_window():
    rng = np.random.default_rng(1)
    E = rng.normal(size=(4, 3))
    filt = [rng.normal(size=(1, 4, 3))]
    pooled, pre, argmax = _hconv(E, filt, "identity")
    assert pre[0].shape == (1, 1)
    assert pooled[0] == pytest.approx(np.sum(E * filt[0][0]), abs=1e-12)


def test_horizontal_tie_breaks_to_smallest_window():
    E = np.zeros((3, 2))
    filt = [np.random.default_rng(2).normal(size=(1, 2, 2))]
    pooled, pre, argmax = _hconv(E, filt, "identity")
    assert argmax.tolist() == [0]


@pytest.mark.parametrize("B", [1, 7, 37])
def test_horizontal_conv_equals_window_loop(B):
    """The im2col product does the arithmetic of one product per window, so the bits agree."""
    rng = np.random.default_rng(B)
    E = rng.normal(size=(B, 5, 6))
    filters = [rng.normal(size=(3, h, 6)) for h in (1, 2, 5)]
    pooled, pre, amax = horizontal_conv(E, filters, "relu")
    want = []
    for j, filt in enumerate(filters):
        h = filt.shape[1]
        loop = np.empty((B, len(filt), 6 - h))
        for i in range(6 - h):
            loop[:, :, i] = np.tensordot(E[:, i : i + h, :], filt, axes=([1, 2], [1, 2]))
        assert pre[j].tobytes() == loop.tobytes()
        vals = np.maximum(loop, 0.0)
        assert np.array_equal(amax[j], vals.argmax(axis=2))
        want.append(vals.max(axis=2))
    assert pooled.tobytes() == np.concatenate(want, axis=1).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_max_pool_dominance(seed):
    rng = np.random.default_rng(seed)
    L, d = 5, 3
    E = rng.normal(size=(L, d))
    filt = [rng.normal(size=(2, h, d)) for h in (1, 3)]
    pooled, pre, argmax = _hconv(E, filt, "tanh")
    off = 0
    for f, pre in zip(filt, pre):
        vals = np.tanh(pre)
        for k in range(len(f)):
            amax = argmax[off + k]
            assert np.all(pooled[off + k] >= vals[k] - 1e-15)
            assert pooled[off + k] == vals[k, amax]
        off += len(f)


# --------------------------------------------------------------------------
# vertical convolution

def test_vertical_one_hot_selects_row():
    rng = np.random.default_rng(0)
    E = rng.normal(size=(4, 3))
    v = np.zeros((1, 4))
    v[0, 2] = 1.0
    assert np.allclose(vertical_conv(E, v), E[2], atol=0)


def test_vertical_all_ones_column_sums():
    rng = np.random.default_rng(0)
    E = rng.normal(size=(4, 3))
    v = np.ones((1, 4))
    assert np.allclose(vertical_conv(E, v), E.sum(axis=0), atol=1e-15)


def _sliding_vertical(E, v_filters):
    """Independent sliding form: inner product per column, per filter."""
    L, d = E.shape
    out = []
    for f in v_filters:
        out.append([float(np.dot(f, E[:, j])) for j in range(d)])
    return np.concatenate(out)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_vertical_equals_sliding_form(seed):
    rng = np.random.default_rng(seed)
    L, d, k = int(rng.integers(1, 9)), int(rng.integers(1, 30)), int(rng.integers(1, 5))
    E = rng.normal(size=(L, d))
    v = rng.normal(size=(k, L))
    assert np.max(np.abs(vertical_conv(E, v) - _sliding_vertical(E, v))) < 1e-12


def test_vertical_concat_order_filter_major():
    rng = np.random.default_rng(3)
    E = rng.normal(size=(4, 3))
    v = rng.normal(size=(2, 4))
    out = vertical_conv(E, v)
    assert np.allclose(out[:3], v[0] @ E)
    assert np.allclose(out[3:], v[1] @ E)


# --------------------------------------------------------------------------
# FC and output layers

def test_fc_zero_weights_relu():
    p = _params(HP, random_biases=True)
    p.fc_w[:] = 0.0
    p.fc_b[:] = -1.0
    assert not _trace(p, HP, [1, 2, 3, 4], 1).z.any()


def test_dropout_rate_zero_draws_no_mask(tiny_hp):
    assert dropout_mask_for(tiny_hp, np.random.default_rng(0), 4) is None


def test_fc_matches_naive_matvec():
    hp = HyperParams(latent_dim=4, order=3, heights=(1, 2), num_h_filters=1, num_v_filters=2,
                     fc_act="identity", dropout=0.0)
    p = _params(hp, random_biases=True)
    bt = _trace(p, hp, [3, 1, 2], 2)
    x, w, b = bt.x[0], p.fc_w, p.fc_b
    naive = np.array([sum(w[r, c] * x[c] for c in range(len(x))) + b[r] for r in range(4)])
    assert np.max(np.abs(bt.z[0] - naive)) < 1e-12


def test_dropout_mask_scales_fc_input():
    hp = HyperParams(latent_dim=4, order=3, heights=(1, 2), num_h_filters=1, num_v_filters=2, dropout=0.5)
    p = _params(hp)
    mask = dropout_mask_for(hp, np.random.default_rng(1), 1)
    plain = _trace(p, hp, [3, 1, 2], 2)
    dropped = _trace(p, hp, [3, 1, 2], 2, dropout_mask=mask)
    assert np.array_equal(dropped.x, plain.x * mask)


def test_output_scores_bias_only():
    p = _params(HP, random_biases=True)
    p.out_w[:] = 0.0
    y = forward(p, HP, [1, 2, 3, 4], 1)
    assert y[0] == -np.inf
    assert np.array_equal(y[1:], p.out_b[1:])


def test_output_scores_naive_double_loop():
    p = _params(HP, random_biases=True)
    bt = _trace(p, HP, [4, 1, 2, 3], 2)
    x = np.concatenate([bt.z[0], p.user_emb[2]])
    for i in range(1, p.item_count + 1):
        naive = sum(p.out_w[i, c] * x[c] for c in range(len(x))) + p.out_b[i]
        assert bt.scores[0, i] == pytest.approx(naive, abs=1e-12)


def test_output_scores_subset():
    p = _params(HP, random_biases=True)
    full = _trace(p, HP, [4, 1, 2, 3], 2).scores[0]
    sub = _trace(p, HP, [4, 1, 2, 3], 2, score_ids=np.array([[2, 4]])).scores[0]
    assert np.allclose(sub, full[[2, 4]], atol=1e-15)


# --------------------------------------------------------------------------
# full forward

def test_trace_dimensions(tiny_hp, tiny_params, tiny_split):
    B = 3
    bt = batch_forward(tiny_params, tiny_hp, np.tile([1, 2, 3, 4], (B, 1)), np.array([1, 2, 3]))
    n = tiny_hp.total_h_filters
    assert [a.shape for a in bt.hamax] == [(B, tiny_hp.num_h_filters)] * len(tiny_hp.heights)
    assert sum(a.shape[1] for a in bt.hamax) == n
    assert bt.ot_pre.shape == (B, tiny_hp.latent_dim * tiny_hp.num_v_filters)
    assert bt.z.shape == (B, tiny_hp.latent_dim)
    assert bt.scores.shape == (B, tiny_split.item_count + 1)
    assert (bt.scores[:, 0] == -np.inf).all()


def _reference_forward(p, hp, prev, user):
    """Straight-line scalar-loop reference implementation."""
    L, d = hp.order, hp.latent_dim
    E = np.array([p.item_emb[i] for i in prev])
    o = []
    for filt in p.h_filters:
        h = filt.shape[1]
        for k in range(filt.shape[0]):
            vals = []
            for i in range(L - h + 1):
                acc = 0.0
                for a in range(h):
                    for c in range(d):
                        acc += E[i + a, c] * filt[k, a, c]
                vals.append(max(acc, 0.0) if hp.conv_act == "relu" else acc)
            o.append(max(vals))
    ot = []
    for k in range(len(p.v_filters)):
        for c in range(d):
            ot.append(sum(p.v_filters[k, l] * E[l, c] for l in range(L)))
    x = o + ot
    z = []
    for r in range(d):
        acc = p.fc_b[r]
        for c in range(len(x)):
            acc += p.fc_w[r, c] * x[c]
        z.append(max(acc, 0.0) if hp.fc_act == "relu" else acc)
    xo = list(z) + list(p.user_emb[user])
    y = np.empty(p.item_count + 1)
    for i in range(p.item_count + 1):
        y[i] = sum(p.out_w[i, c] * xo[c] for c in range(2 * d)) + p.out_b[i]
    y[0] = -np.inf
    return y


def test_forward_matches_straight_line_reference(tiny_hp, tiny_params):
    prev = [3, 1, 4, 1]
    got = forward(tiny_params, tiny_hp, prev, 2)
    want = _reference_forward(tiny_params, tiny_hp, prev, 2)
    assert np.max(np.abs(got[1:] - want[1:])) < 1e-12


def test_forward_is_a_batch_row(tiny_hp, tiny_params):
    prev = np.array([[3, 1, 4, 1], [0, 0, 5, 9], [2, 6, 5, 3]])
    users = np.array([2, 5, 7])
    for mask in (ComponentMask(), ComponentMask(p=True, h=False, v=False),
                 ComponentMask(p=False, h=True, v=False)):
        batch = batch_forward(tiny_params, tiny_hp, prev, users, mask).scores
        for b in range(3):
            one = forward(tiny_params, tiny_hp, prev[b], int(users[b]), mask)
            # BLAS may sum a one-row product in another order: equal up to rounding
            assert one[0] == -np.inf
            assert np.allclose(one[1:], batch[b, 1:], rtol=1e-12, atol=1e-15)


# --------------------------------------------------------------------------
# structural properties

def test_row_permutation_changes_horizontal_only():
    rng = np.random.default_rng(11)
    E = rng.normal(size=(4, 3))
    perm = E[[2, 0, 3, 1]]
    hf = [rng.normal(size=(1, 2, 3))]
    a = _hconv(E, hf, "identity")[0]
    b = _hconv(perm, hf, "identity")[0]
    assert not np.allclose(a, b)  # order matters for windows
    ones = np.ones((1, 4))
    assert np.allclose(vertical_conv(E, ones), vertical_conv(perm, ones), atol=1e-12)


def test_padding_rows_are_neutral():
    rng = np.random.default_rng(12)
    E_core = rng.normal(size=(3, 4))
    E = np.vstack([np.zeros((2, 4)), E_core])
    v = np.zeros((1, 5))
    v[0, 2:] = rng.normal(size=3)
    assert np.allclose(vertical_conv(E, v), v[0, 2:] @ E_core, atol=1e-12)
    # a window fully inside the padding contributes exactly phi(0)
    hf = [rng.normal(size=(1, 2, 4))]
    pooled, pre, argmax = _hconv(E, hf, "identity")
    assert pre[0][0, 0] == 0.0


def test_sigmoid_stable_at_extremes():
    vals = sigmoid(np.array([-800.0, -30.0, 0.0, 30.0, 800.0]))
    assert vals[0] == 0.0 and vals[-1] == 1.0
    assert vals[2] == 0.5
    assert np.all(np.isfinite(vals))
