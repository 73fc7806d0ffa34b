"""Gradient containers and the finite-difference check of the batch kernel.

GradientSet holds the gradient of every model tensor, as
batch.batch_loss_and_grads returns it; RowScatter builds its row-sparse
tables. gradient_check compares that gradient, coordinate by coordinate,
against central finite differences of batch.batch_loss, the loss that
training reads from the same function.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .config import HyperParams
from .data import run_starts
from .errors import ConfigError
from .model import FULL_MASK, PADDED, ComponentMask, ModelParams, dropout_mask_for, init_params


_NO_ROWS = np.empty(0, dtype=np.int64)


class RowScatter:
    """Sums per-id rows of values into one compact row per distinct id.

    ``rows`` are the sorted distinct ids and ``inv`` each id's position
    among them. ``add`` sends id i's values to row inv[i] of a compact
    table of len(rows) rows with one 1-D ``np.add.at`` over a flat index,
    built once and reused by every pass. 1-D ufunc.at adds in index order,
    so every element receives its contributions in id order: exactly the
    sums, bit for bit, that 2-D ``np.add.at`` into a full zero table leaves
    in those rows, and far faster than numpy's generic 2-D path.
    """

    def __init__(self, ids: np.ndarray, width: int):
        flat = ids.reshape(-1)
        s = np.sort(flat)  # np.unique without its fixed overhead
        self.rows = s[run_starts(s)]
        self.inv = np.searchsorted(self.rows, flat)
        self.index = (self.inv[:, None] * width + np.arange(width)).reshape(-1)

    def add(self, table: np.ndarray, values: np.ndarray) -> None:
        """table[inv[i]] += values[i] for each id i in turn.

        A 1-D table takes one value per id, a 2-D table ``width`` values.
        """
        index = self.inv if table.ndim == 1 else self.index
        np.add.at(table.reshape(-1), index, values.reshape(-1))

    def sum(self, values: np.ndarray) -> np.ndarray:
        """A new compact table of the per-row sums of values: (len(rows),) + values.shape[1:]."""
        table = np.zeros((self.rows.size,) + values.shape[1:])
        self.add(table, values)
        return table

    def zero_padding_row(self, table: np.ndarray) -> None:
        """Zero the row of the padding id 0, if some id was 0."""
        if self.rows.size and self.rows[0] == 0:
            table[0] = 0.0


@dataclass
class GradientSet:
    """The gradient of every model tensor.

    The conv and FC gradients are dense, shape-congruent with their
    tensors. The user, item and output tables are row-sparse: each is a
    compact (rows, values) pair, where the rows are sorted unique row ids
    (``user_rows`` for user_emb, ``item_rows`` for item_emb and
    ``out_rows`` for out_w and out_b) and ``values[k]`` is the gradient of
    row ``rows[k]``. Every row that is not recorded has gradient exactly
    zero; no full-size gradient table exists.
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
        """The empty gradient: zero conv/FC tensors and 0-row sparse tables."""
        d = params.latent_dim
        return cls(
            np.zeros((0, d)),
            np.zeros((0, d)),
            [np.zeros_like(f) for f in params.h_filters],
            np.zeros_like(params.v_filters),
            np.zeros_like(params.fc_w),
            np.zeros_like(params.fc_b),
            np.zeros((0, params.out_w.shape[1])),
            np.zeros(0),
            _NO_ROWS,
            _NO_ROWS,
            _NO_ROWS,
        )

    def by_layout(self, layout):
        """(name, values, rows) per tensor of a param_shapes layout, in its order:
        a dense gradient with every row, a sparse table with its recorded rows."""
        sparse_rows = {"user_emb": self.user_rows, "item_emb": self.item_rows,
                       "out_w": self.out_rows, "out_b": self.out_rows}
        for name, _ in layout:
            _, _, height = name.partition("h_filters.")
            values = self.h_filters[int(height)] if height else getattr(self, name)
            yield name, values, sparse_rows.get(name, slice(None))


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
CHECK_USERS, CHECK_ITEMS = 10, 50  # the table sizes of the gradient check
CHECK_TOL = 1e-4  # a tensor passes when every checked coordinate's relative error is below this


@dataclass
class TensorCheck:
    max_rel_err: float = 0.0
    checked: int = 0
    skipped: int = 0


@dataclass
class GradCheckReport:
    per_tensor: dict[str, TensorCheck] = field(default_factory=dict)
    elapsed_s: float = 0.0

    def passed(self) -> bool:
        return all(tc.max_rel_err < CHECK_TOL for tc in self.per_tensor.values())

    def __str__(self) -> str:
        lines = []
        for name, tc in self.per_tensor.items():
            status = "ok" if tc.max_rel_err < CHECK_TOL else "FAIL"
            lines.append(
                f"{name:14s} max_rel_err={tc.max_rel_err:.3e} "
                f"checked={tc.checked} skipped={tc.skipped} [{status}]"
            )
        lines.append(f"tolerance {CHECK_TOL:g}, elapsed {self.elapsed_s:.1f}s")
        return "\n".join(lines)


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
    """One training batch with training's negatives; row 1 has a padding slot and, if it can, a target slot fewer."""
    from .training import sample_negative_batch  # late import: training imports this module

    users = rng.integers(1, user_count + 1, size=rows)
    prev = rng.integers(1, item_count + 1, size=(rows, hp.order))
    prev[1, 0] = 0
    tgt = rng.integers(1, item_count + 1, size=(rows, hp.num_targets))
    tgt_mask = np.ones(tgt.shape)
    if hp.num_targets > 1:
        tgt[1, -1], tgt_mask[1, -1] = 0, 0.0
    neg, neg_mask = sample_negative_batch(rng, tgt, tgt_mask, item_count, hp.num_negatives, hp.negatives_per_instance)
    return prev, users, tgt, tgt_mask, neg, neg_mask


def gradient_check(
    hp: HyperParams = TOY_HP,
    seed: int = 0,
    num_instances: int = 2,
    step: float = 1e-5,
    comp_mask: ComponentMask = FULL_MASK,
) -> GradCheckReport:
    """Compare batch_loss_and_grads' gradient against central finite differences of batch_loss.

    Runs the training kernel on one batch of ``num_instances`` >= 2 rows, so
    that its reductions over the batch are checked too; one row has a
    padding slot and, when num_targets > 1, one target fewer. Every tensor
    coordinate is perturbed by +-step; coordinates whose perturbation flips
    a max-pool argmax or a relu pre-activation sign in the BatchTrace are
    skipped (the loss is not differentiable across those boundaries).
    """
    from .batch import batch_forward, batch_loss, batch_loss_and_grads  # late import: batch imports this module

    if num_instances < 2:
        raise ConfigError("num_instances must be >= 2")
    if not (np.isfinite(step) and step > 0):
        raise ConfigError(f"step must be a finite number > 0, got {step}")
    start = time.monotonic()
    rng = np.random.default_rng(seed)
    params = init_params(hp, CHECK_USERS, CHECK_ITEMS, rng)
    # randomize biases so their gradients are exercised away from zero
    params.fc_b[:] = rng.normal(scale=0.1, size=params.fc_b.shape)
    params.out_b[1:] = rng.normal(scale=0.1, size=CHECK_ITEMS)
    batch = _check_batch(hp, rng, CHECK_USERS, CHECK_ITEMS, num_instances)
    prev, users, tgt, tgt_mask, neg, neg_mask = batch
    ids = np.concatenate([tgt, neg], axis=1)
    dmask = dropout_mask_for(hp, rng, num_instances)

    def probe():
        """The loss and guard signature of one forward at the current parameters."""
        bt = batch_forward(params, hp, prev, users, comp_mask, dmask, score_ids=ids)
        return batch_loss(params, hp, bt, tgt_mask, neg_mask), _guard_signature(bt, hp)

    grads = batch_loss_and_grads(params, hp, *batch, comp_mask, dmask)[1]
    base_sig = probe()[1]
    report = GradCheckReport(per_tensor={n: TensorCheck() for n, _ in params.tensors()})
    for (name, arr), (_, g_values, rows) in zip(params.tensors(), grads.by_layout(params.layout)):
        flat = arr.reshape(-1)
        g_full = np.zeros_like(arr)
        g_full[rows] = g_values  # a sparse table at full size, once per tensor
        g_flat = g_full.reshape(-1)
        tc = report.per_tensor[name]
        # the padding row 0 of a PADDED table is structurally zero, not a free parameter
        for idx in range(arr[0].size if name in PADDED else 0, flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            lp, sig_plus = probe()
            flat[idx] = orig - step
            lm, sig_minus = probe()
            flat[idx] = orig
            if not (_signatures_equal(base_sig, sig_plus) and _signatures_equal(base_sig, sig_minus)):
                tc.skipped += 1
                continue
            fd = (lp - lm) / (2.0 * step)
            an = g_flat[idx]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-3)
            tc.checked += 1
            if rel > tc.max_rel_err or np.isnan(rel):  # a NaN error stays and fails the tensor
                tc.max_rel_err = rel

    report.elapsed_s = time.monotonic() - start
    return report
