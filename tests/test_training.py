import dataclasses
import hashlib
import importlib
import math
import threading

import numpy as np
import pytest

from convrec.config import HyperParams, Ranking, thread_budget
from convrec.data import chronological_split, build_sequences
from convrec.evaluate import evaluate
from convrec.errors import NonFiniteGradientError, NonFiniteLossError, SamplingError
from convrec.gradients import GradientSet
from convrec.model import ModelParams, init_params
from convrec.synthetic import SyntheticSpec, generate_interactions
from convrec.training import (ADAM_BETA1, ADAM_BETA2, ADAM_BLOCK, ADAM_EPS, ADAM_MIN_PART, AdamState, adam_step,
                              map_trials, sample_negative_batch, train)
from tests.conftest import LARGE_HP

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
    expected = -0.01 * 0.25 / (0.25 + ADAM_EPS)
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
    c1 = 1.0 - ADAM_BETA1**state.step
    c2 = 1.0 - ADAM_BETA2**state.step
    for (name, p), g in zip(params.tensors(), dense_grads):
        m, v = dict(state.m.tensors())[name], dict(state.v.tensors())[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    params.pin_rows()


def _row_sparse_grads(p, rng, step, cuts=()):
    """A (rows, values) gradient set and the same gradient as full-size tables.

    ``cuts`` are offsets into the flat buffer: the rows on either side of
    each one that falls in a table are touched too.
    """
    g = GradientSet.zeros_like(p)
    for arr in g.h_filters + [g.v_filters, g.fc_w, g.fc_b]:
        arr[:] = rng.normal(size=arr.shape)
    offsets = dict(zip([name for name, _ in p.layout], np.cumsum([0] + [math.prod(s) for _, s in p.layout])))
    full = {"user": np.zeros_like(p.user_emb), "item": np.zeros_like(p.item_emb),
            "out": np.zeros_like(p.out_w), "out_b": np.zeros_like(p.out_b)}
    ids = {}
    for name, tensor in (("user", "user_emb"), ("item", "item_emb"), ("out", "out_w")):
        table = full[name]
        # duplicates, row 0, the last row and the rows on either side of each
        # block boundary and each cut, scattered into a full table
        edges = np.arange(ADAM_BLOCK, table.size, ADAM_BLOCK) // table[0].size
        inside = [(c - offsets[tensor]) // table[0].size for c in cuts if 0 < c - offsets[tensor] < table.size]
        hit = np.concatenate([[0, 0, len(table) - 1], edges - 1, edges, np.subtract(inside, 1), inside,
                              rng.integers(0, len(table), size=40)]).astype(np.int64)
        np.add.at(table, hit, rng.normal(size=(hit.size,) + table.shape[1:]))
        if name == "out":
            np.add.at(full["out_b"], hit, rng.normal(size=hit.size))
        rows = np.unique(hit)
        table[rows[1 + step % (len(rows) - 1)]] = 0.0  # touched, gradient exactly 0
        ids[name] = rows
    out_b_cuts = [c - offsets["out_b"] for c in cuts if 0 < c - offsets["out_b"] < p.out_b.size]
    ids["out"] = np.union1d(ids["out"], np.concatenate([np.subtract(out_b_cuts, 1), out_b_cuts]).astype(np.int64))
    g.user_rows, g.item_rows, g.out_rows = ids["user"], ids["item"], ids["out"]
    g.user_emb, g.item_emb = full["user"][g.user_rows], full["item"][g.item_rows]
    g.out_w, g.out_b = full["out"][g.out_rows], full["out_b"][g.out_rows]
    dense = [full["user"], full["item"], *g.h_filters, g.v_filters, g.fc_w, g.fc_b, full["out"], full["out_b"]]
    return g, dense


def _assert_same_bits(p, state, want, want_state):
    assert state.step == want_state.step
    for got, arr in [(p, want), (state.m, want_state.m), (state.v, want_state.v)]:
        for (name, a), (_, b) in zip(got.tensors(), arr.tensors()):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name


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
        _assert_same_bits(p, state, want, want_state)


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


def _three_part_params():
    p = _params(users=9, items=45000, seed=4)
    assert p.buffer.size >= 3 * ADAM_MIN_PART
    return p


def test_split_adam_matches_dense_oracle_bitwise():
    p = _three_part_params()
    want = p.copy()
    want_state = AdamState.for_params(want)
    rng = np.random.default_rng(6)
    state = AdamState.for_params(p, workers=3)
    assert len(state.parts) == 3
    starts = [start for start, _ in state.parts]
    # every part boundary, and every block edge inside a part
    cuts = sorted({c for start, stop in state.parts for c in range(start, stop, ADAM_BLOCK)} - {0})
    assert set(starts[1:]) <= set(cuts)
    for step in range(5):
        g, dense = _row_sparse_grads(p, rng, step, cuts)
        adam_step(p, g, state, lr=0.01)
        _dense_adam(want, dense, want_state, lr=0.01)
        _assert_same_bits(p, state, want, want_state)


def test_adam_parts_cut_inside_every_tensor_match_the_dense_oracle():
    # one cut at the middle row of every tensor with two rows or more, dense ones too
    p = _params(users=9, items=300, seed=8)
    cuts, offset = [], 0
    for _, arr in p.tensors():
        if len(arr) > 1:
            cuts.append(offset + len(arr) // 2 * (arr.size // len(arr)))
        offset += arr.size
    parts = list(zip([0] + cuts, cuts + [p.buffer.size]))
    state = AdamState(m=ModelParams(p.layout, np.zeros_like(p.buffer)),
                      v=ModelParams(p.layout, np.zeros_like(p.buffer)), parts=parts)
    want = p.copy()
    want_state = AdamState.for_params(want)
    rng = np.random.default_rng(9)
    for step in range(4):
        g, dense = _row_sparse_grads(p, rng, step, cuts)
        adam_step(p, g, state, lr=0.01)
        _dense_adam(want, dense, want_state, lr=0.01)
        _assert_same_bits(p, state, want, want_state)


def test_split_adam_runs_the_second_part_on_a_second_thread(monkeypatch):
    p = _three_part_params()
    ran = []
    real_part = training._adam_part

    def recording(params, by_tensor, state, lr, part):
        ran.append((part, threading.get_ident()))
        real_part(params, by_tensor, state, lr, part)

    monkeypatch.setattr(training, "_adam_part", recording)
    adam_step(p, GradientSet.zeros_like(p), AdamState.for_params(p, workers=2), lr=0.01)
    assert sorted(part for part, _ in ran) == [0, 1]
    assert dict(ran)[0] == threading.get_ident()  # the caller takes the first part
    assert dict(ran)[1] != threading.get_ident()  # and a thread of the step's own the second


def test_split_adam_runs_each_part_on_its_own_thread(monkeypatch):
    # a thread per part: no thread runs two parts of one step, and none outlives the step
    p = _three_part_params()
    ran = []
    real_part = training._adam_part

    def recording(params, by_tensor, state, lr, part):
        ran.append((part, threading.get_ident()))
        real_part(params, by_tensor, state, lr, part)

    monkeypatch.setattr(training, "_adam_part", recording)
    state = AdamState.for_params(p, workers=3)
    before = threading.active_count()
    for _ in range(2):
        ran.clear()
        adam_step(p, GradientSet.zeros_like(p), state, lr=0.01)
        assert sorted(part for part, _ in ran) == [0, 1, 2]
        assert len({ident for _, ident in ran}) == 3
        assert dict(ran)[0] == threading.get_ident()
        assert threading.active_count() == before


def test_split_adam_non_finite_gradient_leaves_params_and_moments():
    p = _three_part_params()
    g, _ = _row_sparse_grads(p, np.random.default_rng(7), 0)
    state = AdamState.for_params(p, workers=3)
    adam_step(p, g, state, lr=0.01)
    before = p.copy(), state.m.copy(), state.v.copy()
    g.out_b[-1] = np.nan  # a row in the last part
    with pytest.raises(NonFiniteGradientError, match="out_b at step 2"):
        adam_step(p, g, state, lr=0.01)
    assert state.step == 1
    for got, want in zip((p, state.m, state.v), before):
        assert np.array_equal(got.buffer, want.buffer)


def test_part_bounds_cut_at_row_starts():
    p = _three_part_params()
    for workers in range(1, 4):
        parts = AdamState.for_params(p, workers).parts
        assert parts[0][0] == 0 and parts[-1][1] == p.buffer.size
        assert all(stop == start for (_, stop), (start, _) in zip(parts, parts[1:]))
        offset = 0
        for name, arr in p.tensors():  # a cut inside a table falls on a row start
            for start, _ in parts:
                if offset < start < offset + arr.size:
                    assert (start - offset) % (arr.size // len(arr)) == 0, name
            offset += arr.size
    assert len(AdamState.for_params(_params(), workers=8).parts) == 1  # below ADAM_MIN_PART a part


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
    hist = np.array([[1, 3, 4, 5, 6, 7, 8]])
    neg, _ = sample_negative_batch(rng, tgt, tmask, item_count=10, count=50, history=hist)
    assert set(np.unique(neg)) <= {9, 10}


@pytest.mark.parametrize("history", [None, np.array([[2, 4], [1, 3]])], ids=["targets", "history"])
def test_negative_batch_sampling_error_when_every_item_excluded(history):
    # row 1 excludes every item: by its targets alone, or by targets plus history
    tgt = np.array([[1, 0, 0], [1, 2, 3]] if history is None else [[1, 0, 0], [2, 4, 0]], dtype=np.int64)
    tmask = (tgt != 0).astype(float)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(SamplingError, match="row 1"):
        sample_negative_batch(rng, tgt, tmask, item_count=3 if history is None else 4, count=1,
                              history=history)
    assert rng.bit_generator.state == before  # raised before the first draw, no rounds spent


def test_negative_batch_history_with_repeats_leaves_an_item_free():
    # the row is as wide as the catalog, but its repeats leave item 5 eligible
    tgt = np.array([[1]], dtype=np.int64)
    hist = np.array([[2, 2, 3, 4]])
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
    hist = np.arange(2, 1000)[None, :]
    for seed in range(50):
        neg, _ = sample_negative_batch(np.random.default_rng(seed), tgt, np.ones((1, 1)), item_count=1000,
                                       count=3, history=hist)
        assert (neg == 1000).all()


def test_negative_batch_eligible_set_draws_cover_every_eligible_item():
    tgt = np.array([[1]], dtype=np.int64)
    hist = np.setdiff1d(np.arange(2, 1000), [500])[None, :]  # items 500 and 1000 stay eligible
    drawn = np.concatenate([
        sample_negative_batch(np.random.default_rng(seed), tgt, np.ones((1, 1)), item_count=1000, count=4,
                              history=hist)[0].ravel()
        for seed in range(30)
    ])
    assert set(drawn.tolist()) == {500, 1000}


def _padded(rows):
    """The rows left-aligned in one matrix, padded with item 0."""
    sizes = np.array([r.size for r in rows])
    block = np.zeros((len(rows), sizes.max()), dtype=np.int64)
    block[np.arange(block.shape[1]) < sizes[:, None]] = np.concatenate(rows)
    return block


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
            history = _padded([gen.integers(1, item_count + 1, size=int(gen.integers(1, 40)))
                               for _ in range(n_batch)])
        calls = [(item_count, targets, target_mask, int(gen.integers(1, 4)), case % 3 == 0, history)]
        if case < 4:  # one row eligible for only item 1000: the rounds run out and the fallback draws
            calls.append((1000, np.array([[1]]), np.ones((1, 1)), 3, case % 2 == 1, np.arange(2, 1000)[None, :]))
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


def test_exclude_history_training_draws_are_pinned(monkeypatch):
    # every negative that a training with exclude_history_negatives draws:
    # the per-user history rows it gathers exclude what the per-batch lists did
    digest = hashlib.sha256()
    real_sample = training.sample_negative_batch

    def recording(*args, **kwargs):
        neg, mask = real_sample(*args, **kwargs)
        digest.update(neg.tobytes() + mask.tobytes())
        return neg, mask

    monkeypatch.setattr(training, "sample_negative_batch", recording)
    train(_micro_split(), HP, seed=4, epochs=2, batch_size=8, patience=2, exclude_history_negatives=True)
    assert digest.hexdigest() == "10dca074f2b24f7064b7f33a95543ae346221c9998eaa0827f11ff366b059f0a"


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


def test_early_stopping_returns_the_best_epoch_of_a_shorter_run():
    # validation MAP peaks at epoch 5 and falls in epochs 6 and 7, so training stops at 7 of 12
    split = _micro_split()
    hp = dataclasses.replace(HP, lr=1e-2)
    result = train(split, hp, seed=0, epochs=12, batch_size=32, patience=2)
    assert len(result.log) == result.best_epoch + 2 < 12
    fresh = train(split, hp, seed=0, epochs=result.best_epoch, batch_size=32, patience=2)
    assert fresh.best_epoch == result.best_epoch
    assert result.params.buffer.tobytes() == fresh.params.buffer.tobytes()


def test_best_validation_checkpoint_returned():
    split = _micro_split()
    result = train(split, HP, seed=2, epochs=4, batch_size=32, patience=10)
    best = max(result.log, key=lambda r: r.val_map)
    assert result.best_epoch == best.epoch


@pytest.mark.parametrize("metric_keys", [dict(ap_mode="paper_literal"), dict(exclude_seen=False)])
def test_validation_map_follows_the_metric_keys(metric_keys):
    split = _micro_split()
    result = train(split, HP, seed=2, epochs=2, batch_size=32, patience=10, ranking=Ranking(**metric_keys))
    want = evaluate(result.params, HP, split, Ranking(**metric_keys), part="validation").mean_ap
    assert result.best_val_map == want
    assert want != evaluate(result.params, HP, split, part="validation").mean_ap  # the keys change the metric


def test_large_buffer_trains_the_same_bits_on_one_thread_and_two(large_split, two_cpus, monkeypatch):
    threads = []
    real_part = training._adam_part

    def recording(params, by_tensor, state, lr, part):
        threads.append((part, threading.get_ident()))
        real_part(params, by_tensor, state, lr, part)

    monkeypatch.setattr(training, "_adam_part", recording)
    before = threading.active_count()
    split_run = train(large_split, LARGE_HP, seed=3, epochs=2, batch_size=100, patience=2)
    # every step ran part 0 on the caller and part 1 on another thread
    parts = [part for part, _ in threads]
    assert parts and parts.count(0) == parts.count(1) == len(parts) / 2
    assert all((ident == threading.get_ident()) == (part == 0) for part, ident in threads)
    assert threading.active_count() == before  # train() shut its threads down
    threads.clear()
    monkeypatch.setenv("CASER_THREADS", "1")
    serial_run = train(large_split, LARGE_HP, seed=3, epochs=2, batch_size=100, patience=2)
    assert {ident for _, ident in threads} == {threading.get_ident()}
    assert split_run.params.buffer.tobytes() == serial_run.params.buffer.tobytes()
    assert [r.train_loss.hex() for r in split_run.log] == [r.train_loss.hex() for r in serial_run.log]


def test_trial_processes_run_adam_on_one_thread(two_cpus):
    assert map_trials(thread_budget, [None, None], jobs=2) == [1, 1]  # the trials already fill the cores
    assert map_trials(thread_budget, [None], jobs=1) == [2]


def test_log_csv_format(tmp_path):
    split = _micro_split()
    result = train(split, HP, seed=2, epochs=2, batch_size=32, patience=10)
    path = tmp_path / "log.csv"
    result.write_log(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_MAP,val_Prec@1,wall_ms"
    assert len(lines) == 3
    assert lines[1].startswith("1,")
