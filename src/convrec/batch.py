"""Vectorized forward/backward over mini-batches of instances.

The training loop runs these kernels for speed; they must reproduce the mean
of the per-instance results from model.forward / gradients.backward exactly
(an equivalence test pins this down). Target/negative slots are rectangular:
unused slots carry item id 0 with a zero weight in the slot mask.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import HyperParams
from .gradients import GradientSet, _enabled_fc_cols, softplus, unique_rows
from .model import FULL_MASK, ComponentMask, ModelParams, activate, activate_grad, sigmoid


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


def batch_forward(
    params: ModelParams,
    hp: HyperParams,
    prev: np.ndarray,
    users: np.ndarray,
    comp_mask: ComponentMask = FULL_MASK,
    dropout_mask: np.ndarray | None = None,
    score_ids: np.ndarray | None = None,
) -> BatchTrace:
    """Forward a batch; scores only the given item ids when provided."""
    B = prev.shape[0]
    d = params.latent_dim
    E = params.item_emb[prev]
    p_u = params.user_emb[users] if comp_mask.p else np.zeros((B, d))
    n = sum(len(f) for f in params.h_filters)

    hpre = hamax = None
    if comp_mask.h:
        hpre, hamax, pooled = [], [], []
        for filt in params.h_filters:
            n_h, h, _ = filt.shape
            n_windows = prev.shape[1] - h + 1
            pre = np.empty((B, n_h, n_windows))
            for i in range(n_windows):
                pre[:, :, i] = np.tensordot(E[:, i : i + h, :], filt, axes=([1, 2], [1, 2]))
            vals = activate(pre, hp.conv_act)
            amax = np.argmax(vals, axis=2)
            pooled.append(np.take_along_axis(vals, amax[:, :, None], axis=2)[:, :, 0])
            hpre.append(pre)
            hamax.append(amax)
        o = np.concatenate(pooled, axis=1)
    else:
        o = np.zeros((B, n))

    ot_pre = None
    if comp_mask.v:
        ot_pre = np.einsum("bld,kl->bkd", E, params.v_filters).reshape(B, -1)
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
    if score_ids is None:
        scores = xo @ params.out_w.T
        scores += params.out_b
        scores[:, 0] = -np.inf
    else:
        scores = np.einsum("bsk,bk->bs", params.out_w[score_ids], xo) + params.out_b[score_ids]
    return BatchTrace(prev, users, comp_mask, E, p_u, hpre, hamax, ot_pre, dropout_mask, x, fc_pre, z, scores)


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
    """Mean per-instance loss and gradient over one batch."""
    B, n_t = targets.shape
    ids = np.concatenate([targets, negatives], axis=1)
    slot_mask = np.concatenate([target_mask, negative_mask], axis=1)
    bt = batch_forward(params, hp, prev, users, comp_mask, dropout_mask, score_ids=ids)
    y = bt.scores

    loss = (
        float(np.sum(softplus(-y[:, :n_t]) * target_mask))
        + float(np.sum(softplus(y[:, n_t:]) * negative_mask))
    ) / B

    gy = sigmoid(y) * slot_mask
    gy[:, :n_t] -= target_mask
    gy /= B
    g = _batch_backward(params, hp, bt, ids, gy)
    if hp.l2 > 0.0:
        loss += _batch_l2(g, params, hp, bt, ids, slot_mask)
    return loss, g


def _batch_backward(params, hp, bt, ids, gy) -> GradientSet:
    g = GradientSet.zeros_like(params)
    d = params.latent_dim
    B = ids.shape[0]
    mask = bt.comp_mask

    xo = np.concatenate([bt.z, bt.p_u], axis=1)
    np.add.at(g.out_w, ids.ravel(), (gy[:, :, None] * xo[:, None, :]).reshape(-1, 2 * d))
    np.add.at(g.out_b, ids.ravel(), gy.ravel())
    g.out_w[0] = 0.0
    g.out_b[0] = 0.0
    g.out_rows = unique_rows(ids)
    dxo = np.einsum("bs,bsk->bk", gy, params.out_w[ids])
    dz, dp = dxo[:, :d], dxo[:, d:]

    if mask.p:
        np.add.at(g.user_emb, bt.users, dp)
        g.user_rows = unique_rows(bt.users)

    if mask.h or mask.v:
        da = dz * activate_grad(bt.fc_pre, hp.fc_act)
        g.fc_w += da.T @ bt.x
        g.fc_b += da.sum(axis=0)
        dx = da @ params.fc_w
        if bt.dropout_mask is not None:
            dx = dx * bt.dropout_mask

        n = sum(len(f) for f in params.h_filters)
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
                off += n_h
        if mask.v:
            dot = dx[:, n:]
            if hp.vertical_act != "identity":
                dot = dot * activate_grad(bt.ot_pre, hp.vertical_act)
            dc = dot.reshape(B, len(params.v_filters), d)
            g.v_filters += np.einsum("bkd,bld->kl", dc, bt.E)
            dE += np.einsum("bkd,kl->bld", dc, params.v_filters)
        np.add.at(g.item_emb, bt.prev.ravel(), dE.reshape(-1, d))
        g.item_emb[0] = 0.0
        g.item_rows = unique_rows(bt.prev)
    return g


def _batch_l2(g, params, hp, bt, ids, slot_mask) -> float:
    """Touched-set L2: gradients in place, penalty (already /B) returned."""
    l2 = hp.l2
    B = ids.shape[0]
    mask = bt.comp_mask
    sq = 0.0
    if mask.h or mask.v:
        prev_flat = bt.prev.ravel()
        w = (prev_flat != 0).astype(float)
        rows = params.item_emb[prev_flat]
        np.add.at(g.item_emb, prev_flat, (l2 / B) * rows * w[:, None])
        sq += float((rows**2).sum(axis=1) @ w)
        cols = _enabled_fc_cols(params, mask)
        g.fc_w[:, cols] += l2 * params.fc_w[:, cols]
        g.fc_b += l2 * params.fc_b
        sq += B * (float(np.sum(params.fc_w[:, cols] ** 2)) + float(params.fc_b @ params.fc_b))
    if mask.p:
        rows = params.user_emb[bt.users]
        np.add.at(g.user_emb, bt.users, (l2 / B) * rows)
        sq += float(np.sum(rows**2))
    ids_flat = ids.ravel()
    wf = slot_mask.ravel()
    out_rows = params.out_w[ids_flat]
    np.add.at(g.out_w, ids_flat, (l2 / B) * out_rows * wf[:, None])
    np.add.at(g.out_b, ids_flat, (l2 / B) * params.out_b[ids_flat] * wf)
    sq += float((out_rows**2).sum(axis=1) @ wf) + float((params.out_b[ids_flat] ** 2) @ wf)
    if mask.h:
        for j, f in enumerate(params.h_filters):
            g.h_filters[j] += l2 * f
            sq += B * float(np.sum(f**2))
    if mask.v:
        g.v_filters += l2 * params.v_filters
        sq += B * float(np.sum(params.v_filters**2))
    return 0.5 * l2 * sq / B
