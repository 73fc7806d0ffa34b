"""Gradient containers and the finite-difference check of the batch kernel.

GradientSet holds one gradient tensor per model tensor, as
batch.batch_loss_and_grads returns it. gradient_check compares that
gradient, coordinate by coordinate, against central finite differences of
the same function's loss.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .config import HyperParams
from .model import FULL_MASK, ComponentMask, ModelParams, dropout_mask_for, init_params


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


def _guard_signature(bt, hp: HyperParams) -> list[np.ndarray]:
    """Values of a BatchTrace whose flips would make finite differences invalid."""
    parts = []
    if bt.hamax is not None:
        parts += bt.hamax
        if hp.conv_act == "relu":
            parts += [pre > 0 for pre in bt.hpre]
    if bt.ot_pre is not None and hp.vertical_act == "relu":
        parts.append(bt.ot_pre > 0)
    if bt.fc_pre is not None and hp.fc_act == "relu":
        parts.append(bt.fc_pre > 0)
    return parts


def _signatures_equal(a, b) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def _check_batch(hp: HyperParams, rng: np.random.Generator, user_count: int, item_count: int, rows: int):
    """One training batch; row 1 has a padding slot and, if it can, a target slot fewer."""
    n_t = hp.num_targets
    users = rng.integers(1, user_count + 1, size=rows)
    prev = rng.integers(1, item_count + 1, size=(rows, hp.order))
    prev[1, 0] = 0
    tgt_mask = np.ones((rows, n_t))
    if n_t > 1:
        tgt_mask[1, -1] = 0.0
    if hp.negatives_per_instance:
        neg_mask = np.ones((rows, hp.num_negatives))
    else:
        neg_mask = np.repeat(tgt_mask, hp.num_negatives, axis=1)
    tgt = np.empty((rows, n_t), dtype=np.int64)
    neg = np.empty(neg_mask.shape, dtype=np.int64)
    for b in range(rows):
        pool = rng.permutation(np.arange(1, item_count + 1))  # distinct within the row
        tgt[b] = pool[:n_t]
        neg[b] = pool[n_t : n_t + neg.shape[1]]
    tgt[tgt_mask == 0] = 0
    neg[neg_mask == 0] = 0
    return prev, users, tgt, tgt_mask, neg, neg_mask


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
    """Compare batch_loss_and_grads' gradient against central finite differences.

    Runs the training kernel on one batch of ``num_instances`` >= 2 rows, so
    that its reductions over the batch are checked too; one row has a
    padding slot and, when num_targets > 1, one target fewer. Every tensor
    coordinate is perturbed by +-step; coordinates whose perturbation flips
    a max-pool argmax or a relu pre-activation sign in the BatchTrace are
    skipped (the loss is not differentiable across those boundaries).
    """
    from .batch import batch_forward, batch_loss_and_grads  # late import: batch imports this module

    if num_instances < 2:
        raise ValueError("num_instances must be >= 2")
    start = time.monotonic()
    if hp is None:
        hp = TOY_HP
    rng = np.random.default_rng(seed)
    params = init_params(hp, user_count, item_count, rng)
    # randomize biases so their gradients are exercised away from zero
    params.fc_b[:] = rng.normal(scale=0.1, size=params.fc_b.shape)
    params.out_b[1:] = rng.normal(scale=0.1, size=item_count)
    batch = _check_batch(hp, rng, user_count, item_count, num_instances)
    dmask = dropout_mask_for(hp, rng, num_instances)

    def loss_and_grads():
        return batch_loss_and_grads(params, hp, *batch, comp_mask, dmask)

    def signature():
        prev, users = batch[:2]
        return _guard_signature(batch_forward(params, hp, prev, users, comp_mask, dmask), hp)

    grads = loss_and_grads()[1]
    base_sig = signature()
    report = GradCheckReport(tol=tol, per_tensor={n: TensorCheck() for n, _ in params.tensors()})
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
            lp, sig_plus = loss_and_grads()[0], signature()
            flat[idx] = orig - step
            lm, sig_minus = loss_and_grads()[0], signature()
            flat[idx] = orig
            if not (_signatures_equal(base_sig, sig_plus) and _signatures_equal(base_sig, sig_minus)):
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
