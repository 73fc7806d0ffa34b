"""Loss, exact analytic gradients, and the finite-difference harness.

The loss for one instance contrasts the target items against sampled
negatives through a sigmoid (negative log-likelihood of independent
Bernoullis). Regularization is coupled into the objective: each instance
adds an L2 penalty over the parameters it actually touches (one term per
occurrence for embedding/output rows, the dense conv/FC tensors once), so
the analytic gradient support stays exactly the touched set and matches
central finite differences coordinate for coordinate.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .config import HyperParams
from .model import (
    FULL_MASK,
    ComponentMask,
    ForwardTrace,
    ModelParams,
    activate_grad,
    dropout_mask_for,
    forward,
    init_params,
    sigmoid,
)


def softplus(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


_NO_ROWS = np.empty(0, dtype=np.int64)


def unique_rows(ids: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of ids; np.unique without its fixed overhead."""
    s = np.sort(ids, axis=None)
    keep = np.empty(s.size, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


@dataclass
class GradientSet:
    """One gradient tensor per model tensor, shape-congruent.

    The row-indexed tables also carry the sorted unique rows that may be
    nonzero: ``user_rows`` for user_emb, ``item_rows`` for item_emb and
    ``out_rows`` for out_w/out_b. Every other row must be exactly +0.0:
    adam_step reads and checks only the recorded rows of these tables.
    """

    user_emb: np.ndarray
    item_emb: np.ndarray
    h_filters: list[np.ndarray]
    v_filters: np.ndarray
    fc_w: np.ndarray
    fc_b: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray
    user_rows: np.ndarray
    item_rows: np.ndarray
    out_rows: np.ndarray

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "GradientSet":
        """All-zero tensors with empty row sets.

        A caller that writes into user_emb, item_emb, out_w or out_b must also
        record those rows in user_rows, item_rows or out_rows; adam_step
        ignores every row that is not recorded.
        """
        return cls(
            np.zeros_like(params.user_emb),
            np.zeros_like(params.item_emb),
            [np.zeros_like(f) for f in params.h_filters],
            np.zeros_like(params.v_filters),
            np.zeros_like(params.fc_w),
            np.zeros_like(params.fc_b),
            np.zeros_like(params.out_w),
            np.zeros_like(params.out_b),
            _NO_ROWS,
            _NO_ROWS,
            _NO_ROWS,
        )

    def tensors(self):
        yield "user_emb", self.user_emb
        yield "item_emb", self.item_emb
        for j, f in enumerate(self.h_filters):
            yield f"h_filters.{j}", f
        yield "v_filters", self.v_filters
        yield "fc_w", self.fc_w
        yield "fc_b", self.fc_b
        yield "out_w", self.out_w
        yield "out_b", self.out_b

    def rows(self):
        """Per tensor, in tensors() order, the index of its possibly nonzero rows."""
        every = slice(None)
        yield self.user_rows
        yield self.item_rows
        for _ in self.h_filters:
            yield every
        yield from (every, every, every)
        yield from (self.out_rows, self.out_rows)


def _check_target_negative_sets(targets, negatives) -> None:
    tset, nset = set(targets), set(negatives)
    if tset & nset:
        raise ValueError(f"targets and negatives overlap: {sorted(tset & nset)}")
    if 0 in tset or 0 in nset:
        raise ValueError("padding index cannot be a target or negative")


def _enabled_fc_cols(params: ModelParams, mask: ComponentMask) -> np.ndarray:
    n = sum(len(f) for f in params.h_filters)
    cols = np.zeros(params.fc_w.shape[1], dtype=bool)
    if mask.h:
        cols[:n] = True
    if mask.v:
        cols[n:] = True
    return cols


def _l2_penalty(params: ModelParams, trace: ForwardTrace, targets, negatives, l2: float) -> float:
    mask = trace.comp_mask
    total = 0.0
    if mask.h or mask.v:
        for pos, item in enumerate(trace.prev_items):
            if item != 0 and pos not in trace.zeroed_rows:
                total += float(params.item_emb[item] @ params.item_emb[item])
        cols = _enabled_fc_cols(params, mask)
        total += float(np.sum(params.fc_w[:, cols] ** 2)) + float(params.fc_b @ params.fc_b)
    if mask.p:
        pu = params.user_emb[trace.user_index]
        total += float(pu @ pu)
    for i in list(targets) + list(negatives):
        total += float(params.out_w[i] @ params.out_w[i]) + float(params.out_b[i] ** 2)
    if mask.h:
        total += sum(float(np.sum(f**2)) for f in params.h_filters)
    if mask.v:
        total += float(np.sum(params.v_filters**2))
    return 0.5 * l2 * total


def bce_loss(
    trace: ForwardTrace,
    targets,
    negatives,
    params: ModelParams | None = None,
    l2: float = 0.0,
) -> float:
    """Negative log-likelihood of targets-vs-negatives, numerically stable.

    -log(sigmoid(y)) and -log(1 - sigmoid(y)) are evaluated as softplus(-y)
    and softplus(y). With l2 > 0 the touched-parameter penalty is added.
    """
    _check_target_negative_sets(targets, negatives)
    y_pos = trace.scores[np.asarray(targets, dtype=np.int64)]
    y_neg = trace.scores[np.asarray(negatives, dtype=np.int64)]
    loss = float(np.sum(softplus(-y_pos)) + np.sum(softplus(y_neg)))
    if l2 > 0.0:
        if params is None:
            raise ValueError("l2 > 0 requires params")
        loss += _l2_penalty(params, trace, targets, negatives, l2)
    return loss


def backward(
    params: ModelParams, hp: HyperParams, trace: ForwardTrace, targets, negatives
) -> GradientSet:
    """Exact gradient of bce_loss for one instance.

    Max-pool gradients are routed through the stored argmax window only;
    the dropout mask is replayed exactly as in the forward pass; padding
    rows receive nothing.
    """
    if trace.mode != "train":
        raise ValueError("backward requires a trace produced in train mode")
    _check_target_negative_sets(targets, negatives)
    g = GradientSet.zeros_like(params)
    d = params.latent_dim
    mask = trace.comp_mask

    ids = np.asarray(list(targets) + list(negatives), dtype=np.int64)
    gy = sigmoid(trace.scores[ids])
    gy[: len(targets)] -= 1.0

    xo = np.concatenate([trace.z, trace.p_u])
    np.add.at(g.out_w, ids, gy[:, None] * xo[None, :])
    np.add.at(g.out_b, ids, gy)
    g.out_rows = unique_rows(ids)
    dxo = params.out_w[ids].T @ gy
    dz, dp = dxo[:d], dxo[d:]

    if mask.p:
        g.user_emb[trace.user_index] += dp
        g.user_rows = np.array([trace.user_index], dtype=np.int64)

    if mask.h or mask.v:
        da = dz * activate_grad(trace.fc_pre, hp.fc_act)
        g.fc_w += np.outer(da, trace.x)
        g.fc_b += da
        dx = params.fc_w.T @ da
        if trace.dropout_mask is not None:
            dx = dx * trace.dropout_mask

        n = sum(len(f) for f in params.h_filters)
        dE = np.zeros_like(trace.E)
        if mask.h:
            do = dx[:n]
            off = 0
            for j, filt in enumerate(params.h_filters):
                n_h, h, _ = filt.shape
                amax = trace.hconv.argmax[off : off + n_h]
                pre_at_max = trace.hconv.pre[j][np.arange(n_h), amax]
                ds = do[off : off + n_h] * activate_grad(pre_at_max, hp.conv_act)
                for k in range(n_h):
                    i = int(amax[k])
                    g.h_filters[j][k] += ds[k] * trace.E[i : i + h]
                    dE[i : i + h] += ds[k] * filt[k]
                off += n_h
        if mask.v:
            dot = dx[n:]
            if hp.vertical_act != "identity":
                dot = dot * activate_grad(trace.o_tilde_pre, hp.vertical_act)
            dc = dot.reshape(len(params.v_filters), d)
            g.v_filters += dc @ trace.E.T
            dE += params.v_filters.T @ dc
        if trace.zeroed_rows:
            dE[list(trace.zeroed_rows)] = 0.0
        prev = np.asarray(trace.prev_items, dtype=np.int64)
        np.add.at(g.item_emb, prev, dE)
        g.item_emb[0] = 0.0
        g.item_rows = unique_rows(prev)

    if hp.l2 > 0.0:
        _add_l2_gradient(g, params, trace, targets, negatives, hp.l2)
    return g


def _add_l2_gradient(g, params, trace, targets, negatives, l2):
    mask = trace.comp_mask
    if mask.h or mask.v:
        for pos, item in enumerate(trace.prev_items):
            if item != 0 and pos not in trace.zeroed_rows:
                g.item_emb[item] += l2 * params.item_emb[item]
        cols = _enabled_fc_cols(params, mask)
        g.fc_w[:, cols] += l2 * params.fc_w[:, cols]
        g.fc_b += l2 * params.fc_b
    if mask.p:
        g.user_emb[trace.user_index] += l2 * params.user_emb[trace.user_index]
    for i in list(targets) + list(negatives):
        g.out_w[i] += l2 * params.out_w[i]
        g.out_b[i] += l2 * params.out_b[i]
    if mask.h:
        for j, f in enumerate(params.h_filters):
            g.h_filters[j] += l2 * f
    if mask.v:
        g.v_filters += l2 * params.v_filters


# --------------------------------------------------------------------------
# finite-difference verification

TOY_HP = HyperParams(
    latent_dim=8,
    order=5,
    num_targets=2,
    heights=(1, 2, 3, 4, 5),
    num_h_filters=1,
    num_v_filters=2,
    dropout=0.0,
    l2=0.0,
)


@dataclass
class TensorCheck:
    max_rel_err: float = 0.0
    checked: int = 0
    skipped: int = 0


@dataclass
class GradCheckReport:
    per_tensor: dict[str, TensorCheck] = field(default_factory=dict)
    tol: float = 1e-4
    elapsed_s: float = 0.0

    def passed(self) -> bool:
        return all(tc.max_rel_err < self.tol for tc in self.per_tensor.values())

    def __str__(self) -> str:
        lines = []
        for name, tc in self.per_tensor.items():
            status = "ok" if tc.max_rel_err < self.tol else "FAIL"
            lines.append(
                f"{name:14s} max_rel_err={tc.max_rel_err:.3e} "
                f"checked={tc.checked} skipped={tc.skipped} [{status}]"
            )
        lines.append(f"tolerance {self.tol:g}, elapsed {self.elapsed_s:.1f}s")
        return "\n".join(lines)


def _pinned_coords(name: str, arr: np.ndarray) -> set[int]:
    """Flat indices that are structurally zero and not free parameters."""
    if name in ("user_emb", "item_emb", "out_w"):
        return set(range(arr.shape[1]))  # row 0
    if name == "out_b":
        return {0}
    return set()


def _guard_signature(trace: ForwardTrace, hp: HyperParams):
    """Values whose flips would make finite differences invalid."""
    parts = []
    if trace.hconv is not None:
        parts.append(("argmax", trace.hconv.argmax.copy()))
        if hp.conv_act == "relu":
            for pre in trace.hconv.pre:
                parts.append(("convsign", pre > 0))
    if trace.o_tilde_pre is not None and hp.vertical_act == "relu":
        parts.append(("vsign", trace.o_tilde_pre > 0))
    if trace.fc_pre is not None and hp.fc_act == "relu":
        parts.append(("fcsign", trace.fc_pre > 0))
    return parts


def _signatures_equal(a, b) -> bool:
    return len(a) == len(b) and all(np.array_equal(x[1], y[1]) for x, y in zip(a, b))


def gradient_check(
    hp: HyperParams | None = None,
    seed: int = 0,
    user_count: int = 10,
    item_count: int = 50,
    num_instances: int = 2,
    step: float = 1e-5,
    comp_mask: ComponentMask = FULL_MASK,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Every tensor coordinate is perturbed by +-step; coordinates whose
    perturbation flips a max-pool argmax or a relu pre-activation sign are
    skipped (the loss is not differentiable across those boundaries).
    """
    start = time.monotonic()
    if hp is None:
        hp = TOY_HP
    rng = np.random.default_rng(seed)
    params = init_params(hp, user_count, item_count, rng)
    # randomize biases so their gradients are exercised away from zero
    params.fc_b[:] = rng.normal(scale=0.1, size=params.fc_b.shape)
    params.out_b[1:] = rng.normal(scale=0.1, size=item_count)

    report = GradCheckReport(tol=tol, per_tensor={n: TensorCheck() for n, _ in params.tensors()})

    for inst_idx in range(num_instances):
        user = int(rng.integers(1, user_count + 1))
        prev = rng.integers(1, item_count + 1, size=hp.order)
        if inst_idx % 2 == 1:
            prev[0] = 0  # exercise the padding path
        pool = rng.permutation(np.arange(1, item_count + 1))
        targets = tuple(int(x) for x in pool[: hp.num_targets])
        negatives = tuple(int(x) for x in pool[hp.num_targets : hp.num_targets * (1 + hp.num_negatives)])
        dmask = dropout_mask_for(hp, rng) if hp.dropout > 0 else None

        def run(p: ModelParams) -> ForwardTrace:
            return forward(
                p, hp, prev, user, mode="train", dropout_mask=dmask, comp_mask=comp_mask
            )

        base = run(params)
        base_sig = _guard_signature(base, hp)
        grads = backward(params, hp, base, targets, negatives)

        for (name, arr), (_, g_arr) in zip(params.tensors(), grads.tensors()):
            flat = arr.reshape(-1)
            g_flat = g_arr.reshape(-1)
            pinned = _pinned_coords(name, arr)
            tc = report.per_tensor[name]
            for idx in range(flat.size):
                if idx in pinned:
                    continue
                orig = flat[idx]
                flat[idx] = orig + step
                t_plus = run(params)
                lp = bce_loss(t_plus, targets, negatives, params, hp.l2)
                flat[idx] = orig - step
                t_minus = run(params)
                lm = bce_loss(t_minus, targets, negatives, params, hp.l2)
                flat[idx] = orig
                if not (
                    _signatures_equal(base_sig, _guard_signature(t_plus, hp))
                    and _signatures_equal(base_sig, _guard_signature(t_minus, hp))
                ):
                    tc.skipped += 1
                    continue
                fd = (lp - lm) / (2.0 * step)
                an = g_flat[idx]
                rel = abs(fd - an) / max(abs(fd), abs(an), 1e-3)
                tc.checked += 1
                if rel > tc.max_rel_err:
                    tc.max_rel_err = rel

    report.elapsed_s = time.monotonic() - start
    return report
