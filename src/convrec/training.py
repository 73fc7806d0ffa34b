"""Mini-batch Adam training with per-epoch negative resampling.

Everything deterministic under the seed: instance shuffling, negative
draws, and dropout masks all come from generators derived from (seed,
epoch), and batches are reduced in a fixed order.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .batch import batch_loss_and_grads
from .config import HyperParams
from .data import SplitDataset, generate_instances
from .errors import EmptyDatasetError, NonFiniteGradientError, SamplingError
from .gradients import GradientSet
from .model import FULL_MASK, ComponentMask, ModelParams, dropout_mask_for, init_params


ADAM_BLOCK = 65536  # elements per block of the parameter update


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    # block-sized scratch for the parameter update
    scratch: tuple[np.ndarray, np.ndarray] = field(
        default_factory=lambda: (np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)), repr=False
    )

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(
            m={name: np.zeros_like(arr) for name, arr in params.tensors()},
            v={name: np.zeros_like(arr) for name, arr in params.tensors()},
        )


def adam_step(params: ModelParams, grads: GradientSet, state: AdamState, lr: float) -> None:
    """Bias-corrected dense Adam; padding rows re-pinned afterwards.

    Every moment decays every step, as in plain Adam. The gradient terms are
    added only on the rows the gradient set records in user_rows, item_rows
    and out_rows (every other row of its gradient is exactly +0.0, so adding
    it would change no bit), and the parameter update runs in place over
    blocks of ADAM_BLOCK elements. A gradient written into a row that is not
    recorded is ignored and not checked for finiteness.
    """
    touched = []
    for (name, g), rows in zip(grads.tensors(), grads.rows()):
        g_rows = g[rows]
        if not np.all(np.isfinite(g_rows)):
            raise NonFiniteGradientError(f"non-finite gradient in {name} at step {state.step + 1}")
        touched.append((rows, g_rows))
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    for (name, p), (rows, g_rows) in zip(params.tensors(), touched):
        m, v = state.m[name], state.v[name]
        m *= b1
        v *= b2
        m[rows] += (1.0 - b1) * g_rows
        sq = (1.0 - b2) * g_rows
        sq *= g_rows
        v[rows] += sq
        _update_in_blocks(p, m, v, state, lr, c1, c2)
    params.pin_rows()


def _update_in_blocks(p, m, v, state: AdamState, lr: float, c1: float, c2: float) -> None:
    """p -= lr * (m / c1) / (sqrt(v / c2) + eps), one block at a time."""
    if not p.flags.c_contiguous:  # reshape would copy and the update would be lost
        raise ValueError("Adam updates only C-contiguous parameter tensors")
    flat_p, flat_m, flat_v = p.reshape(-1), m.reshape(-1), v.reshape(-1)
    buf_a, buf_b = state.scratch
    for start in range(0, flat_p.size, ADAM_BLOCK):
        stop = min(start + ADAM_BLOCK, flat_p.size)
        step = buf_a[: stop - start]
        denom = buf_b[: stop - start]
        np.divide(flat_m[start:stop], c1, out=step)
        step *= lr
        np.divide(flat_v[start:stop], c2, out=denom)
        np.sqrt(denom, out=denom)
        denom += state.eps
        step /= denom
        flat_p[start:stop] -= step


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    val_map: float
    val_prec1: float
    wall_ms: float

    def csv_row(self) -> str:
        return f"{self.epoch},{self.train_loss:.6f},{self.val_map:.6f},{self.val_prec1:.6f},{self.wall_ms:.1f}"


LOG_HEADER = "epoch,train_loss,val_MAP,val_Prec@1,wall_ms"


@dataclass
class TrainResult:
    params: ModelParams
    log: list[EpochLog] = field(default_factory=list)
    best_epoch: int = 0
    best_val_map: float = float("nan")

    def write_log(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(LOG_HEADER + "\n")
            for row in self.log:
                fh.write(row.csv_row() + "\n")


def _instance_arrays(instances, order: int, num_targets: int):
    n = len(instances)
    prev = np.zeros((n, order), dtype=np.int64)
    users = np.zeros(n, dtype=np.int64)
    tgt = np.zeros((n, num_targets), dtype=np.int64)
    tgt_mask = np.zeros((n, num_targets))
    for i, inst in enumerate(instances):
        prev[i] = inst.prev
        users[i] = inst.user
        k = len(inst.targets)
        tgt[i, :k] = inst.targets
        tgt_mask[i, :k] = 1.0
    return prev, users, tgt, tgt_mask


def sample_negative_batch(
    rng: np.random.Generator,
    targets: np.ndarray,
    target_mask: np.ndarray,
    item_count: int,
    count: int,
    per_instance: bool = False,
    history: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform negatives for a batch, rejecting targets (and history if given)."""
    n_batch, n_t = targets.shape
    if per_instance:
        slots = count
        neg_mask = np.ones((n_batch, slots))
    else:
        slots = count * n_t
        neg_mask = np.repeat(target_mask, count, axis=1)
    neg = rng.integers(1, item_count + 1, size=(n_batch, slots))
    for _ in range(200):
        bad = (neg[:, :, None] == targets[:, None, :]).any(axis=2)
        if history is not None:
            for b in range(n_batch):
                if history[b].size:
                    bad[b] |= np.isin(neg[b], history[b])
        bad &= neg_mask > 0
        if not bad.any():
            break
        where = np.nonzero(bad)
        neg[where] = rng.integers(1, item_count + 1, size=where[0].size)
    else:
        raise SamplingError("negative sampling did not converge; exclusion set too large")
    neg[neg_mask == 0] = 0
    return neg, neg_mask


def train(
    split: SplitDataset,
    hp: HyperParams,
    seed: int,
    epochs: int,
    batch_size: int = 100,
    patience: int = 5,
    comp_mask: ComponentMask = FULL_MASK,
    exclude_history_negatives: bool = False,
    progress=None,
) -> TrainResult:
    """Train on the split's training part, tracking validation MAP per epoch.

    Instances are reshuffled and negatives resampled every epoch; the
    checkpoint with the best validation MAP is returned (final params if the
    split has no validation data). ``progress`` takes each EpochLog.
    """
    from .evaluate import evaluate  # late import: evaluate depends on model only

    instances = generate_instances(split, hp.order, hp.num_targets, "train")
    if not instances:
        raise EmptyDatasetError("no training instances")
    prev, users, tgt, tgt_mask = _instance_arrays(instances, hp.order, hp.num_targets)
    n_inst = len(instances)

    history = None
    if exclude_history_negatives:
        per_user = [np.asarray(sorted(set(split.train[u])), dtype=np.int64) for u in range(split.user_count + 1)]
        history = per_user

    rng_init = np.random.default_rng([seed, 1])
    params = init_params(hp, split.user_count, split.item_count, rng_init)
    state = AdamState.for_params(params)

    have_validation = any(split.validation[u] for u in split.users())

    result = TrainResult(params=params)
    best_params: ModelParams | None = None
    best_map = -np.inf
    stale = 0

    for epoch in range(1, epochs + 1):
        t0 = time.monotonic()
        erng = np.random.default_rng([seed, 1000 + epoch])
        perm = erng.permutation(n_inst)
        total = 0.0
        for start in range(0, n_inst, batch_size):
            rows = perm[start : start + batch_size]
            neg, neg_mask = sample_negative_batch(
                erng,
                tgt[rows],
                tgt_mask[rows],
                split.item_count,
                hp.num_negatives,
                hp.negatives_per_instance,
                [history[u] for u in users[rows]] if history is not None else None,
            )
            dmask = dropout_mask_for(hp, erng, len(rows))
            loss, grads = batch_loss_and_grads(
                params, hp, prev[rows], users[rows], tgt[rows], tgt_mask[rows],
                neg, neg_mask, comp_mask, dmask,
            )
            adam_step(params, grads, state, hp.lr)
            total += loss * len(rows)

        val_map = val_p1 = float("nan")
        if have_validation:
            report = evaluate(
                params, hp, split, cutoffs=(1,), part="validation", comp_mask=comp_mask
            )
            val_map, val_p1 = report.mean_ap, report.precision[1]

        row = EpochLog(epoch, total / n_inst, val_map, val_p1, (time.monotonic() - t0) * 1e3)
        result.log.append(row)
        if progress is not None:
            progress(row)

        if have_validation:
            if val_map > best_map:
                best_map = val_map
                best_params = params.copy()
                result.best_epoch = epoch
                stale = 0
            else:
                stale += 1
                if stale >= patience:
                    break

    if best_params is not None:
        result.params = best_params
        result.best_val_map = best_map
    else:
        result.params = params
        result.best_epoch = len(result.log)
    return result
