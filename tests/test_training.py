import dataclasses

import numpy as np
import pytest

from convrec.batch import batch_loss_and_grads
from convrec.config import HyperParams
from convrec.data import chronological_split, build_sequences
from convrec.errors import NonFiniteGradientError
from convrec.gradients import GradientSet, backward, bce_loss
from convrec.model import ComponentMask, forward, init_params
from convrec.synthetic import SyntheticSpec, generate_interactions
from convrec.training import ADAM_BLOCK, AdamState, adam_step, sample_negative_batch, train

HP = HyperParams(latent_dim=6, order=4, num_targets=2, heights=(1, 2, 4),
                 num_h_filters=2, num_v_filters=2, dropout=0.0, l2=0.0, lr=1e-3)


def _params(hp=HP, users=6, items=25, seed=0):
    return init_params(hp, users, items, np.random.default_rng(seed))


def _declare_all_rows(g):
    g.user_rows = np.arange(len(g.user_emb))
    g.item_rows = np.arange(len(g.item_emb))
    g.out_rows = np.arange(len(g.out_w))


# --------------------------------------------------------------------------
# Adam

def test_adam_zero_gradient_leaves_params():
    p = _params()
    before = p.copy()
    state = AdamState.for_params(p)
    adam_step(p, GradientSet.zeros_like(p), state, lr=0.1)
    assert state.step == 1
    for (_, a), (_, b) in zip(p.tensors(), before.tensors()):
        assert np.array_equal(a, b)


def test_adam_first_step_matches_hand_computation():
    p = _params(seed=1)
    g = GradientSet.zeros_like(p)
    for _, arr in g.tensors():
        arr[:] = 0.25
    _declare_all_rows(g)
    before = p.copy()
    state = AdamState.for_params(p)
    adam_step(p, g, state, lr=0.01)
    # t=1: m_hat = g, v_hat = g^2, update = -lr * g / (|g| + eps)
    expected = -0.01 * 0.25 / (0.25 + state.eps)
    delta = p.fc_w - before.fc_w
    assert np.allclose(delta, expected, atol=1e-15)


def test_adam_rejects_non_finite_gradient():
    p = _params()
    g = GradientSet.zeros_like(p)
    g.fc_w[0, 0] = np.nan
    with pytest.raises(NonFiniteGradientError):
        adam_step(p, g, AdamState.for_params(p), lr=0.01)


def test_adam_repins_padding_rows():
    p = _params()
    g = GradientSet.zeros_like(p)
    for _, arr in g.tensors():
        arr[:] = 1.0  # including pinned rows
    _declare_all_rows(g)
    adam_step(p, g, AdamState.for_params(p), lr=0.5)
    assert not p.item_emb[0].any()
    assert not p.out_w[0].any() and p.out_b[0] == 0.0


def _dense_adam(params, grads, state, lr):
    """The textbook dense update: reads every row of every gradient."""
    state.step += 1
    c1 = 1.0 - state.beta1**state.step
    c2 = 1.0 - state.beta2**state.step
    for (name, p), (_, g) in zip(params.tensors(), grads.tensors()):
        m, v = state.m[name], state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    params.pin_rows()


def _row_sparse_grads(p, rng, step):
    g = GradientSet.zeros_like(p)
    for arr in g.h_filters + [g.v_filters, g.fc_w, g.fc_b]:
        arr[:] = rng.normal(size=arr.shape)
    ids = {}
    for name, table in (("user", g.user_emb), ("item", g.item_emb), ("out", g.out_w)):
        # duplicates, row 0, the last row and the rows on either side of each
        # block boundary, scattered like the kernel does
        edges = np.arange(ADAM_BLOCK, table.size, ADAM_BLOCK) // table[0].size
        hit = np.concatenate([[0, 0, len(table) - 1], edges - 1, edges, rng.integers(0, len(table), size=40)])
        np.add.at(table, hit, rng.normal(size=(hit.size,) + table.shape[1:]))
        if name == "out":
            np.add.at(g.out_b, hit, rng.normal(size=hit.size))
        rows = np.unique(hit)
        table[rows[1 + step % (len(rows) - 1)]] = 0.0  # touched, gradient exactly 0
        ids[name] = rows
    g.user_rows, g.item_rows, g.out_rows = ids["user"], ids["item"], ids["out"]
    return g


def test_adam_matches_dense_oracle_bitwise():
    p = _params(users=9, items=11000, seed=4)
    assert p.item_emb.size > ADAM_BLOCK and p.item_emb.size % ADAM_BLOCK != 0
    assert p.out_w.size > 2 * ADAM_BLOCK and p.out_w.size % ADAM_BLOCK != 0
    want = p.copy()
    state, want_state = AdamState.for_params(p), AdamState.for_params(want)
    rng = np.random.default_rng(5)
    for step in range(6):
        g = _row_sparse_grads(p, rng, step)
        adam_step(p, g, state, lr=0.01)
        _dense_adam(want, g, want_state, lr=0.01)
        assert state.step == want_state.step
        for (name, got), (_, arr) in zip(p.tensors(), want.tensors()):
            assert np.array_equal(got.view(np.uint64), arr.view(np.uint64)), name
            assert np.array_equal(state.m[name].view(np.uint64), want_state.m[name].view(np.uint64)), name
            assert np.array_equal(state.v[name].view(np.uint64), want_state.v[name].view(np.uint64)), name


def test_adam_rejects_non_finite_touched_row():
    p = _params()
    before = p.copy()
    g = GradientSet.zeros_like(p)
    g.item_emb[3, 1] = np.inf
    g.item_rows = np.array([3])
    state = AdamState.for_params(p)
    with pytest.raises(NonFiniteGradientError, match="item_emb"):
        adam_step(p, g, state, lr=0.01)
    assert state.step == 0
    for (_, a), (_, b) in zip(p.tensors(), before.tensors()):
        assert np.array_equal(a, b)


# --------------------------------------------------------------------------
# batched kernels vs per-instance reference

def test_batch_matches_per_instance_mean():
    hp = dataclasses.replace(HP, dropout=0.4, l2=0.02, vertical_act="tanh")
    rng = np.random.default_rng(3)
    p = _params(hp, seed=3)
    p.fc_b[:] = rng.normal(size=p.fc_b.shape)
    B, L, T = 6, hp.order, hp.num_targets
    prev = rng.integers(0, 26, size=(B, L))
    users = rng.integers(1, 7, size=B)
    tgt = np.zeros((B, T), dtype=np.int64)
    tmask = np.zeros((B, T))
    neg = np.zeros((B, 3 * T), dtype=np.int64)
    nmask = np.zeros((B, 3 * T))
    packed = []
    for b in range(B):
        k = int(rng.integers(1, T + 1))
        pool = rng.permutation(np.arange(1, 26))
        tgt[b, :k], tmask[b, :k] = pool[:k], 1.0
        neg[b, : 3 * k], nmask[b, : 3 * k] = pool[k : 4 * k], 1.0
        packed.append((tuple(int(x) for x in pool[:k]), tuple(int(x) for x in pool[k : 4 * k])))
    dmask = (rng.random((B, hp.fc_input_dim)) >= hp.dropout) / (1 - hp.dropout)

    for mask in (ComponentMask(), ComponentMask(p=False, h=True, v=True),
                 ComponentMask(p=True, h=False, v=True), ComponentMask(p=True, h=False, v=False)):
        loss_b, g_b = batch_loss_and_grads(p, hp, prev, users, tgt, tmask, neg, nmask, mask, dmask)
        acc = GradientSet.zeros_like(p)
        total = 0.0
        for b in range(B):
            tr = forward(p, hp, prev[b], int(users[b]), mode="train",
                         dropout_mask=dmask[b], comp_mask=mask)
            t, n = packed[b]
            total += bce_loss(tr, t, n, p, hp.l2)
            for (_, a), (_, g_i) in zip(acc.tensors(), backward(p, hp, tr, t, n).tensors()):
                a += g_i
        for _, a in acc.tensors():
            a *= 1.0 / B
        assert loss_b == pytest.approx(total / B, abs=1e-12)
        for (_, a), (_, want) in zip(g_b.tensors(), acc.tensors()):
            assert np.max(np.abs(a - want)) < 1e-12


def test_negative_batch_respects_exclusions():
    rng = np.random.default_rng(0)
    tgt = np.array([[3, 4], [5, 0]], dtype=np.int64)
    tmask = np.array([[1.0, 1.0], [1.0, 0.0]])
    neg, nmask = sample_negative_batch(rng, tgt, tmask, item_count=30, count=3)
    assert neg.shape == (2, 6)
    assert not (neg[0] == 3).any() and not (neg[0] == 4).any()
    assert not (neg[1, :3] == 5).any()
    assert nmask[1, 3:].sum() == 0 and (neg[1, 3:] == 0).all()


def test_negative_batch_history_exclusion():
    rng = np.random.default_rng(1)
    tgt = np.array([[2]], dtype=np.int64)
    tmask = np.ones((1, 1))
    hist = [np.array([1, 3, 4, 5, 6, 7, 8])]
    neg, _ = sample_negative_batch(rng, tgt, tmask, item_count=10, count=50, history=hist)
    assert set(np.unique(neg)) <= {9, 10}


# --------------------------------------------------------------------------
# training loop

def _micro_split(seed=5, users=30):
    rows = generate_interactions(
        SyntheticSpec(num_users=users, num_items=60, seq_len=14, num_genres=6,
                      num_clusters=3, genres_per_cluster=2, num_special_pairs=4, seed=seed)
    )
    return chronological_split(build_sequences(rows, 1))


def test_training_is_bitwise_deterministic():
    split = _micro_split()
    hp = dataclasses.replace(HP, dropout=0.5, l2=1e-6)
    a = train(split, hp, seed=11, epochs=5, batch_size=32, patience=10)
    b = train(split, hp, seed=11, epochs=5, batch_size=32, patience=10)
    for (_, x), (_, y) in zip(a.params.tensors(), b.params.tensors()):
        assert np.array_equal(x, y)
    assert [r.train_loss for r in a.log] == [r.train_loss for r in b.log]
    assert [r.val_map for r in a.log] == [r.val_map for r in b.log]


def test_zero_learning_rate_changes_nothing():
    split = _micro_split()
    hp = dataclasses.replace(HP, lr=0.0)
    result = train(split, hp, seed=1, epochs=2, batch_size=32, patience=10)
    fresh = init_params(hp, split.user_count, split.item_count, np.random.default_rng([1, 1]))
    for (_, a), (_, b) in zip(result.params.tensors(), fresh.tensors()):
        assert np.array_equal(a, b)
    # loss only moves with the negative resample noise
    losses = [r.train_loss for r in result.log]
    assert abs(losses[0] - losses[1]) / losses[0] < 0.02


def test_loss_non_increasing_early_for_most_seeds():
    split = _micro_split()
    # lr large enough that optimization drift dominates resampling noise
    hp = dataclasses.replace(HP, dropout=0.0, l2=0.0, lr=1e-2)
    wins = 0
    for seed in range(10):
        log = train(split, hp, seed=seed, epochs=3, batch_size=32, patience=10).log
        losses = [r.train_loss for r in log]
        if losses[0] >= losses[1] >= losses[2]:
            wins += 1
    assert wins >= 9


def test_pinned_rows_zero_after_training():
    split = _micro_split()
    hp = dataclasses.replace(HP, dropout=0.3, l2=1e-4)
    result = train(split, hp, seed=3, epochs=3, batch_size=32, patience=10)
    assert not result.params.item_emb[0].any()
    assert not result.params.out_w[0].any()
    assert result.params.out_b[0] == 0.0
    assert not result.params.user_emb[0].any()


def test_best_validation_checkpoint_returned():
    split = _micro_split()
    result = train(split, HP, seed=2, epochs=4, batch_size=32, patience=10)
    best = max(result.log, key=lambda r: r.val_map)
    assert result.best_epoch == best.epoch


def test_log_csv_format(tmp_path):
    split = _micro_split()
    result = train(split, HP, seed=2, epochs=2, batch_size=32, patience=10)
    path = tmp_path / "log.csv"
    result.write_log(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_MAP,val_Prec@1,wall_ms"
    assert len(lines) == 3
    assert lines[1].startswith("1,")
