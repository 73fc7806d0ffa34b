import dataclasses
import hashlib
import importlib

import numpy as np
import pytest

from convrec.config import HyperParams
from convrec.data import chronological_split, build_sequences
from convrec.evaluate import evaluate
from convrec.errors import NonFiniteGradientError, NonFiniteLossError, SamplingError
from convrec.gradients import GradientSet
from convrec.model import init_params
from convrec.synthetic import SyntheticSpec, generate_interactions
from convrec.training import ADAM_BLOCK, AdamState, adam_step, sample_negative_batch, train

training = importlib.import_module("convrec.training")

HP = HyperParams(latent_dim=6, order=4, num_targets=2, heights=(1, 2, 4),
                 num_h_filters=2, num_v_filters=2, dropout=0.0, l2=0.0, lr=1e-3)


def _params(hp=HP, users=6, items=25, seed=0):
    return init_params(hp, users, items, np.random.default_rng(seed))


def _declare_all_rows(g, p):
    """Record every row of the sparse tables, with zero values at full size."""
    g.user_rows, g.user_emb = np.arange(len(p.user_emb)), np.zeros_like(p.user_emb)
    g.item_rows, g.item_emb = np.arange(len(p.item_emb)), np.zeros_like(p.item_emb)
    g.out_rows, g.out_w, g.out_b = np.arange(len(p.out_w)), np.zeros_like(p.out_w), np.zeros_like(p.out_b)


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
    _declare_all_rows(g, p)
    for _, arr, _ in g.by_layout(p.layout):
        arr[:] = 0.25
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
    _declare_all_rows(g, p)
    for _, arr, _ in g.by_layout(p.layout):
        arr[:] = 1.0  # including pinned rows
    adam_step(p, g, AdamState.for_params(p), lr=0.5)
    assert not p.item_emb[0].any()
    assert not p.out_w[0].any() and p.out_b[0] == 0.0


def _dense_adam(params, dense_grads, state, lr):
    """The textbook dense update: reads every row of every full-size gradient."""
    state.step += 1
    c1 = 1.0 - state.beta1**state.step
    c2 = 1.0 - state.beta2**state.step
    for (name, p), g in zip(params.tensors(), dense_grads):
        m, v = dict(state.m.tensors())[name], dict(state.v.tensors())[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    params.pin_rows()


def _row_sparse_grads(p, rng, step):
    """A (rows, values) gradient set and the same gradient as full-size tables."""
    g = GradientSet.zeros_like(p)
    for arr in g.h_filters + [g.v_filters, g.fc_w, g.fc_b]:
        arr[:] = rng.normal(size=arr.shape)
    full = {"user": np.zeros_like(p.user_emb), "item": np.zeros_like(p.item_emb),
            "out": np.zeros_like(p.out_w), "out_b": np.zeros_like(p.out_b)}
    ids = {}
    for name in ("user", "item", "out"):
        table = full[name]
        # duplicates, row 0, the last row and the rows on either side of each
        # block boundary, scattered into a full table
        edges = np.arange(ADAM_BLOCK, table.size, ADAM_BLOCK) // table[0].size
        hit = np.concatenate([[0, 0, len(table) - 1], edges - 1, edges, rng.integers(0, len(table), size=40)])
        np.add.at(table, hit, rng.normal(size=(hit.size,) + table.shape[1:]))
        if name == "out":
            np.add.at(full["out_b"], hit, rng.normal(size=hit.size))
        rows = np.unique(hit)
        table[rows[1 + step % (len(rows) - 1)]] = 0.0  # touched, gradient exactly 0
        ids[name] = rows
    g.user_rows, g.item_rows, g.out_rows = ids["user"], ids["item"], ids["out"]
    g.user_emb, g.item_emb = full["user"][g.user_rows], full["item"][g.item_rows]
    g.out_w, g.out_b = full["out"][g.out_rows], full["out_b"][g.out_rows]
    dense = [full["user"], full["item"], *g.h_filters, g.v_filters, g.fc_w, g.fc_b, full["out"], full["out_b"]]
    return g, dense


def test_adam_matches_dense_oracle_bitwise():
    p = _params(users=9, items=11000, seed=4)
    assert p.item_emb.size > ADAM_BLOCK and p.item_emb.size % ADAM_BLOCK != 0
    assert p.out_w.size > 2 * ADAM_BLOCK and p.out_w.size % ADAM_BLOCK != 0
    want = p.copy()
    state, want_state = AdamState.for_params(p), AdamState.for_params(want)
    rng = np.random.default_rng(5)
    for step in range(6):
        g, dense = _row_sparse_grads(p, rng, step)
        adam_step(p, g, state, lr=0.01)
        _dense_adam(want, dense, want_state, lr=0.01)
        assert state.step == want_state.step
        m, want_m = dict(state.m.tensors()), dict(want_state.m.tensors())
        v, want_v = dict(state.v.tensors()), dict(want_state.v.tensors())
        for (name, got), (_, arr) in zip(p.tensors(), want.tensors()):
            assert np.array_equal(got.view(np.uint64), arr.view(np.uint64)), name
            assert np.array_equal(m[name].view(np.uint64), want_m[name].view(np.uint64)), name
            assert np.array_equal(v[name].view(np.uint64), want_v[name].view(np.uint64)), name


def test_adam_rejects_non_finite_touched_row():
    p = _params()
    before = p.copy()
    g = GradientSet.zeros_like(p)
    g.item_rows, g.item_emb = np.array([3]), np.zeros((1, p.latent_dim))
    g.item_emb[0, 1] = np.inf
    state = AdamState.for_params(p)
    with pytest.raises(NonFiniteGradientError, match="item_emb"):
        adam_step(p, g, state, lr=0.01)
    assert state.step == 0
    for (_, a), (_, b) in zip(p.tensors(), before.tensors()):
        assert np.array_equal(a, b)


# --------------------------------------------------------------------------
# negative sampling

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


@pytest.mark.parametrize("history", [None, [np.array([2, 4]), np.array([1, 3])]], ids=["targets", "history"])
def test_negative_batch_sampling_error_when_every_item_excluded(history):
    # row 1 excludes every item: by its targets alone, or by targets plus history
    tgt = np.array([[1, 0, 0], [1, 2, 3]] if history is None else [[1, 0, 0], [2, 4, 0]], dtype=np.int64)
    tmask = (tgt != 0).astype(float)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(SamplingError, match="row 1"):
        sample_negative_batch(rng, tgt, tmask, item_count=4 if history else 3, count=1, history=history)
    assert rng.bit_generator.state == before  # raised before the first draw, no rounds spent


def test_negative_batch_history_with_repeats_leaves_an_item_free():
    # the row is as wide as the catalog, but its repeats leave item 5 eligible
    tgt = np.array([[1]], dtype=np.int64)
    hist = [np.array([2, 2, 3, 4])]
    neg, _ = sample_negative_batch(np.random.default_rng(0), tgt, np.ones((1, 1)), item_count=5, count=4,
                                   history=hist)
    assert (neg == 5).all()


def test_negative_batch_ignores_exclusions_of_rows_without_negative_slots():
    tgt = np.array([[1, 2, 3], [1, 0, 0]], dtype=np.int64)
    tmask = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])  # row 0 draws no negatives
    neg, nmask = sample_negative_batch(np.random.default_rng(0), tgt, tmask, item_count=3, count=1)
    assert (neg[0] == 0).all() and not nmask[0].any()
    assert neg[1, 0] in (2, 3)


def test_negative_batch_few_eligible_items_never_raises():
    # only item 1000 is eligible; 200 rejection rounds miss it for most seeds,
    # and the slots left are drawn from the eligible set instead of raising
    tgt = np.array([[1]], dtype=np.int64)
    hist = [np.arange(2, 1000)]
    for seed in range(50):
        neg, _ = sample_negative_batch(np.random.default_rng(seed), tgt, np.ones((1, 1)), item_count=1000,
                                       count=3, history=hist)
        assert (neg == 1000).all()


def test_negative_batch_eligible_set_draws_cover_every_eligible_item():
    tgt = np.array([[1]], dtype=np.int64)
    hist = [np.setdiff1d(np.arange(2, 1000), [500])]  # items 500 and 1000 stay eligible
    drawn = np.concatenate([
        sample_negative_batch(np.random.default_rng(seed), tgt, np.ones((1, 1)), item_count=1000, count=4,
                              history=hist)[0].ravel()
        for seed in range(30)
    ])
    assert set(drawn.tolist()) == {500, 1000}


def _draw_digest():
    """sha256 over the draws, the masks, the rng state after each call and each SamplingError message."""
    digest = hashlib.sha256()
    gen = np.random.default_rng(2024)
    for case in range(60):
        item_count = int(gen.integers(5, 61))
        n_batch, n_t = int(gen.integers(1, 9)), int(gen.integers(1, 4))
        targets = gen.integers(1, item_count + 1, size=(n_batch, n_t))
        target_mask = (gen.random((n_batch, n_t)) < 0.8).astype(float)
        targets[target_mask == 0] = 0
        history = None
        if case % 2:
            history = [gen.integers(1, item_count + 1, size=int(gen.integers(1, 40))) for _ in range(n_batch)]
        calls = [(item_count, targets, target_mask, int(gen.integers(1, 4)), case % 3 == 0, history)]
        if case < 4:  # one row eligible for only item 1000: the rounds run out and the fallback draws
            calls.append((1000, np.array([[1]]), np.ones((1, 1)), 3, case % 2 == 1, [np.arange(2, 1000)]))
        for item_count, targets, target_mask, count, per_instance, history in calls:
            rng = np.random.default_rng(case)
            try:
                neg, neg_mask = sample_negative_batch(rng, targets, target_mask, item_count, count,
                                                      per_instance=per_instance, history=history)
            except SamplingError as err:
                digest.update(str(err).encode())
                continue
            digest.update(neg.tobytes() + neg_mask.tobytes() + rng.integers(0, 2**62, size=2).tobytes())
    return digest.hexdigest()


def test_negative_batch_draws_are_pinned():
    # draws per target and per instance, with histories of 1-39 items, rows
    # that raise and rows that reach the fallback
    assert _draw_digest() == "2795570b9af6cec859fca3481932f198dd3b9445e0ec1a69420ab81f8d5a1024"


def test_negative_batch_frequencies_uniform():
    tgt = np.array([[5]], dtype=np.int64)
    neg, _ = sample_negative_batch(np.random.default_rng(7), tgt, np.ones((1, 1)), item_count=20,
                                   count=100_000)
    counts = np.bincount(neg.ravel(), minlength=21)
    assert counts[0] == 0 and counts[5] == 0
    n, p = 100_000, 1 / 19
    sigma = np.sqrt(n * p * (1 - p))
    eligible = [i for i in range(1, 21) if i != 5]
    assert all(abs(counts[i] - n * p) < 3 * sigma for i in eligible)


def test_negative_batch_per_instance_count():
    tgt = np.array([[3, 4, 5], [6, 0, 0]], dtype=np.int64)
    tmask = (tgt != 0).astype(float)
    neg, nmask = sample_negative_batch(np.random.default_rng(0), tgt, tmask, item_count=30, count=4,
                                       per_instance=True)
    assert neg.shape == nmask.shape == (2, 4)
    assert (nmask == 1.0).all() and (neg > 0).all()


# --------------------------------------------------------------------------
# training loop

def _micro_split(seed=5, users=30):
    rows = generate_interactions(
        SyntheticSpec(num_users=users, num_items=60, seq_len=14, num_genres=6,
                      num_clusters=3, genres_per_cluster=2, num_special_pairs=4, seed=seed)
    )
    return chronological_split(build_sequences(zip(*rows), 1))


def test_training_is_bitwise_deterministic():
    split = _micro_split()
    hp = dataclasses.replace(HP, dropout=0.5, l2=1e-6)
    a = train(split, hp, seed=11, epochs=5, batch_size=32, patience=10)
    b = train(split, hp, seed=11, epochs=5, batch_size=32, patience=10)
    for (_, x), (_, y) in zip(a.params.tensors(), b.params.tensors()):
        assert np.array_equal(x, y)
    assert [r.train_loss for r in a.log] == [r.train_loss for r in b.log]
    assert [r.val_map for r in a.log] == [r.val_map for r in b.log]


def test_non_finite_loss_stops_training_before_the_update(monkeypatch):
    # the first update moves every touched parameter by about lr, so the
    # second batch's scores overflow
    split = _micro_split()
    steps = []
    real_adam_step = training.adam_step

    def counting(params, grads, state, lr):
        steps.append(state.step)
        real_adam_step(params, grads, state, lr)

    monkeypatch.setattr(training, "adam_step", counting)
    with pytest.raises(NonFiniteLossError, match=r"at step 2 \(epoch 1\)"), np.errstate(over="ignore", invalid="ignore"):
        train(split, dataclasses.replace(HP, lr=1e300), seed=1, epochs=1, batch_size=32, patience=1)
    assert steps == [0]


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


@pytest.mark.parametrize("metric_keys", [dict(ap_mode="paper_literal"), dict(exclude_seen=False)])
def test_validation_map_follows_the_metric_keys(metric_keys):
    split = _micro_split()
    result = train(split, HP, seed=2, epochs=2, batch_size=32, patience=10, **metric_keys)
    want = evaluate(result.params, HP, split, part="validation", **metric_keys).mean_ap
    assert result.best_val_map == want
    assert want != evaluate(result.params, HP, split, part="validation").mean_ap  # the keys change the metric


def test_log_csv_format(tmp_path):
    split = _micro_split()
    result = train(split, HP, seed=2, epochs=2, batch_size=32, patience=10)
    path = tmp_path / "log.csv"
    result.write_log(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_MAP,val_Prec@1,wall_ms"
    assert len(lines) == 3
    assert lines[1].startswith("1,")
