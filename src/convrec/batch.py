"""The network's only forward/backward: mini-batches of instances.

Training, evaluation and single-user scoring all run these kernels;
``forward`` scores one user as a batch of one. The loss of an instance
contrasts its target items against sampled negatives through a sigmoid
(negative log-likelihood of independent Bernoullis), averaged over the
batch. Target/negative slots are rectangular: unused slots carry item id 0
with a zero weight in the slot mask.

Regularization is coupled into the objective: each instance adds an L2
penalty over the parameters it actually touches (one term per occurrence for
embedding/output rows, the dense conv/FC tensors once), so the gradient's
support is exactly the touched set. A training step runs batch_forward,
then batch_loss and _batch_backward on its trace; gradients.gradient_check
reads each probe's loss from batch_loss of one batch_forward.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import HyperParams, run_parts, thread_budget
from .errors import ConfigError
from .gradients import GradientSet, RowScatter
from .model import (
    FULL_MASK,
    ComponentMask,
    ModelParams,
    activate,
    activate_grad,
    horizontal_conv,
    sigmoid,
    vertical_conv,
)


def softplus(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _enabled_fc_cols(hp: HyperParams, mask: ComponentMask) -> np.ndarray:
    n = hp.total_h_filters
    cols = np.zeros(hp.fc_input_dim, dtype=bool)
    if mask.h:
        cols[:n] = True
    if mask.v:
        cols[n:] = True
    return cols


# A full-catalog product is split into ranges of item columns, cut at
# multiples of SCORE_COLUMN_ALIGN, only where every range is bitwise safe and
# worth a handoff. On OpenBLAS 0.3.31 (2 vCPUs), with 1, 2 and 4 BLAS threads
# and 2-4 ranges over every row count 1-512, the ranges gave the whole
# product's bits from 700 columns each; ranges of up to 525 columns changed
# some scores under threaded BLAS, and so did a split row (gemv). At one
# BLAS thread two ranges lost to one at 8-13M multiply-adds each in some
# shapes and won in every shape from 16M.
SCORE_COLUMN_ALIGN = 64
SCORE_MIN_COLUMNS = 1024  # per range
SCORE_MIN_PART = 1 << 24  # rows x columns x 2d per range


def score_column_ranges(rows: int, columns: int, k: int) -> list[tuple[int, int]]:
    """(start, stop) of near-equal ranges of the columns of a (rows, k) x (k, columns) product.

    At most thread_budget() ranges (read only for two rows or more), each of
    at least SCORE_MIN_COLUMNS columns and SCORE_MIN_PART multiply-adds
    (about), each cut at a multiple of SCORE_COLUMN_ALIGN; one row is never
    split.
    """
    if rows < 2:
        return [(0, columns)]
    parts = min(thread_budget(), columns // SCORE_MIN_COLUMNS, rows * columns * k // SCORE_MIN_PART)
    if parts < 2:
        return [(0, columns)]
    half = SCORE_COLUMN_ALIGN // 2
    cuts = [(columns * i // parts + half) // SCORE_COLUMN_ALIGN * SCORE_COLUMN_ALIGN for i in range(parts)]
    return list(zip(cuts, cuts[1:] + [columns]))


def _score_columns(params: ModelParams, xo: np.ndarray, scores: np.ndarray, start: int, stop: int) -> None:
    """Columns [start, stop) of the full-catalog scores: ``xo @ out_w.T + out_b``."""
    block = scores[:, start:stop]
    np.matmul(xo, params.out_w[start:stop].T, out=block)
    block += params.out_b[start:stop]


@dataclass
class BatchTrace:
    prev: np.ndarray  # (B, L)
    users: np.ndarray  # (B,)
    comp_mask: ComponentMask
    E: np.ndarray  # (B, L, d)
    p_u: np.ndarray  # (B, d)
    hpre: list[np.ndarray] | None  # per height: (B, n_h, W)
    hamax: list[np.ndarray] | None  # per height: (B, n_h)
    ot_pre: np.ndarray | None  # raw vertical sums, (B, n_v * d)
    dropout_mask: np.ndarray | None
    x: np.ndarray | None  # (B, K) FC input after dropout
    fc_pre: np.ndarray | None
    z: np.ndarray  # (B, d)
    scores: np.ndarray  # (B, S) for score_ids, else (B, item_count+1)
    score_ids: np.ndarray | None = None  # (B, S)
    out_w_scored: np.ndarray | None = None  # out_w[score_ids], (B, S, 2d)


def batch_forward(
    params: ModelParams,
    hp: HyperParams,
    prev: np.ndarray,
    users: np.ndarray,
    comp_mask: ComponentMask = FULL_MASK,
    dropout_mask: np.ndarray | None = None,
    score_ids: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> BatchTrace:
    """Forward a batch; scores only the given item ids when provided.

    Scores over all items are written into ``out`` when it is given. Their
    product is cut into ranges of item columns, up to one per CPU, by
    score_column_ranges (one range for a batch of one); the calling thread
    scores the first and a thread of its own each other range (see
    config.run_parts).
    """
    B = prev.shape[0]
    d = params.latent_dim
    E = params.item_emb[prev]
    p_u = params.user_emb[users] if comp_mask.p else np.zeros((B, d))

    hpre = hamax = None
    if comp_mask.h:
        o, hpre, hamax = horizontal_conv(E, params.h_filters, hp.conv_act)
    else:
        o = np.zeros((B, hp.total_h_filters))

    ot_pre = None
    if comp_mask.v:
        ot_pre = vertical_conv(E, params.v_filters)
        ot = activate(ot_pre, hp.vertical_act)
    else:
        ot = np.zeros((B, len(params.v_filters) * d))

    if comp_mask.h or comp_mask.v:
        x = np.concatenate([o, ot], axis=1)
        if dropout_mask is not None:
            x = x * dropout_mask
        fc_pre = x @ params.fc_w.T + params.fc_b
        z = activate(fc_pre, hp.fc_act)
    else:
        x = fc_pre = None
        dropout_mask = None
        z = np.zeros((B, d))

    xo = np.concatenate([z, p_u], axis=1)
    out_w_scored = None
    if score_ids is None:
        scores = np.empty((B, params.item_count + 1)) if out is None else out
        ranges = score_column_ranges(B, scores.shape[1], xo.shape[1])
        run_parts(lambda part: _score_columns(params, xo, scores, *ranges[part]), len(ranges))
        scores[:, 0] = -np.inf
    else:
        out_w_scored = params.out_w[score_ids]
        scores = np.einsum("bsk,bk->bs", out_w_scored, xo) + params.out_b[score_ids]
    return BatchTrace(prev, users, comp_mask, E, p_u, hpre, hamax, ot_pre, dropout_mask, x, fc_pre, z, scores,
                      score_ids, out_w_scored)


def forward(
    params: ModelParams,
    hp: HyperParams,
    prev_items,
    user_index: int,
) -> np.ndarray:
    """Inference scores over every item for one (user, previous-L-items) pair, every component on.

    Runs batch_forward on a batch of one; the row is the caller's to modify.
    The padding score, index 0, is -inf. An item outside 0..item_count or a
    user outside 1..user_count raises ConfigError.
    """
    prev = np.asarray(prev_items, dtype=np.int64)
    if prev.min() < 0 or prev.max() > params.item_count:
        raise ConfigError(f"item index out of range 0..{params.item_count}")
    if not 1 <= user_index <= params.user_count:
        raise ConfigError(f"user index {user_index} out of range 1..{params.user_count}")
    users = np.array([user_index], dtype=np.int64)
    return batch_forward(params, hp, prev[None], users).scores[0]


def batch_loss(params: ModelParams, hp: HyperParams, bt: BatchTrace,
               target_mask: np.ndarray, negative_mask: np.ndarray) -> float:
    """Mean per-instance loss, L2 penalty included, of a trace scored on targets then negatives."""
    B, n_t = target_mask.shape
    y = bt.scores
    loss = (
        float(np.sum(softplus(-y[:, :n_t]) * target_mask))
        + float(np.sum(softplus(y[:, n_t:]) * negative_mask))
    ) / B
    if not hp.l2:
        return loss
    mask = bt.comp_mask
    sq = 0.0
    if mask.h or mask.v:
        w = (bt.prev.ravel() != 0).astype(float)
        sq += float((bt.E.reshape(-1, params.latent_dim) ** 2).sum(axis=1) @ w)
        cols = _enabled_fc_cols(hp, mask)
        sq += B * (float(np.sum(params.fc_w[:, cols] ** 2)) + float(params.fc_b @ params.fc_b))
    if mask.p:
        sq += float(np.sum(bt.p_u**2))
    wf = np.concatenate([target_mask, negative_mask], axis=1).ravel()
    out_b = params.out_b[bt.score_ids.ravel()]
    sq += float((bt.out_w_scored.reshape(len(wf), -1) ** 2).sum(axis=1) @ wf) + float((out_b**2) @ wf)
    if mask.h:
        for f in params.h_filters:
            sq += B * float(np.sum(f**2))
    if mask.v:
        sq += B * float(np.sum(params.v_filters**2))
    return loss + 0.5 * hp.l2 * sq / B


def batch_loss_and_grads(
    params: ModelParams,
    hp: HyperParams,
    prev: np.ndarray,
    users: np.ndarray,
    targets: np.ndarray,
    target_mask: np.ndarray,
    negatives: np.ndarray,
    negative_mask: np.ndarray,
    comp_mask: ComponentMask = FULL_MASK,
    dropout_mask: np.ndarray | None = None,
) -> tuple[float, GradientSet]:
    """Mean per-instance loss (batch_loss) and its gradient over one batch."""
    ids = np.concatenate([targets, negatives], axis=1)
    bt = batch_forward(params, hp, prev, users, comp_mask, dropout_mask, score_ids=ids)
    loss = batch_loss(params, hp, bt, target_mask, negative_mask)
    return loss, _batch_backward(params, hp, bt, target_mask, negative_mask)


def _batch_backward(params, hp, bt, target_mask, negative_mask) -> GradientSet:
    """The gradient of batch_loss: each tensor's data term, then its L2 term."""
    g = GradientSet.zeros_like(params)
    d = params.latent_dim
    B, n_t = target_mask.shape
    mask = bt.comp_mask

    slot_mask = np.concatenate([target_mask, negative_mask], axis=1)
    gy = sigmoid(bt.scores) * slot_mask
    gy[:, :n_t] -= target_mask
    gy /= B
    xo = np.concatenate([bt.z, bt.p_u], axis=1)
    out_sc = RowScatter(bt.score_ids, 2 * d)
    g.out_rows = out_sc.rows
    g.out_w = out_sc.sum((gy[:, :, None] * xo[:, None, :]).reshape(-1, 2 * d))
    g.out_b = out_sc.sum(gy.ravel())
    out_sc.zero_padding_row(g.out_w)
    out_sc.zero_padding_row(g.out_b)
    if hp.l2:
        wf = slot_mask.ravel()
        out_sc.add(g.out_w, (hp.l2 / B) * bt.out_w_scored.reshape(wf.size, -1) * wf[:, None])
        out_sc.add(g.out_b, (hp.l2 / B) * params.out_b[bt.score_ids.ravel()] * wf)
    dxo = np.einsum("bs,bsk->bk", gy, bt.out_w_scored)
    dz, dp = dxo[:, :d], dxo[:, d:]

    if mask.p:
        user_sc = RowScatter(bt.users, d)
        g.user_rows = user_sc.rows
        g.user_emb = user_sc.sum(dp)
        if hp.l2:
            user_sc.add(g.user_emb, (hp.l2 / B) * bt.p_u)

    if mask.h or mask.v:
        da = dz * activate_grad(bt.fc_pre, hp.fc_act)
        g.fc_w += da.T @ bt.x
        g.fc_b += da.sum(axis=0)
        if hp.l2:
            cols = _enabled_fc_cols(hp, mask)
            g.fc_w[:, cols] += hp.l2 * params.fc_w[:, cols]
            g.fc_b += hp.l2 * params.fc_b
        dx = da @ params.fc_w
        if bt.dropout_mask is not None:
            dx = dx * bt.dropout_mask

        n = hp.total_h_filters
        dE = np.zeros_like(bt.E)
        if mask.h:
            off = 0
            for j, filt in enumerate(params.h_filters):
                n_h, h, _ = filt.shape
                n_windows = bt.E.shape[1] - h + 1
                amax = bt.hamax[j]
                pre_at = np.take_along_axis(bt.hpre[j], amax[:, :, None], axis=2)[:, :, 0]
                ds = dx[:, off : off + n_h] * activate_grad(pre_at, hp.conv_act)
                for i in range(n_windows):
                    sel = ds * (amax == i)
                    g.h_filters[j] += np.einsum("bk,bhd->khd", sel, bt.E[:, i : i + h, :])
                    dE[:, i : i + h, :] += np.einsum("bk,khd->bhd", sel, filt)
                if hp.l2:
                    g.h_filters[j] += hp.l2 * filt
                off += n_h
        if mask.v:
            dot = dx[:, n:]
            if hp.vertical_act != "identity":
                dot = dot * activate_grad(bt.ot_pre, hp.vertical_act)
            dc = dot.reshape(B, len(params.v_filters), d)
            g.v_filters += np.einsum("bkd,bld->kl", dc, bt.E)
            dE += np.einsum("bkd,kl->bld", dc, params.v_filters)
            if hp.l2:
                g.v_filters += hp.l2 * params.v_filters
        item_sc = RowScatter(bt.prev, d)
        g.item_rows = item_sc.rows
        g.item_emb = item_sc.sum(dE.reshape(-1, d))
        item_sc.zero_padding_row(g.item_emb)
        if hp.l2:
            w = (bt.prev.ravel() != 0).astype(float)
            item_sc.add(g.item_emb, (hp.l2 / B) * bt.E.reshape(-1, d) * w[:, None])
    return g
