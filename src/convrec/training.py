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
from .errors import EmptyDatasetError, NonFiniteGradientError, NonFiniteLossError, SamplingError
from .gradients import GradientSet
from .model import FULL_MASK, ComponentMask, ModelParams, dropout_mask_for, init_params


ADAM_BLOCK = 65536  # elements per block of the parameter update


@dataclass
class AdamState:
    m: ModelParams  # first moments, in the parameters' layout
    v: ModelParams  # second moments
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
        return cls(m=ModelParams(params.layout, np.zeros_like(params.buffer)),
                   v=ModelParams(params.layout, np.zeros_like(params.buffer)))


def adam_step(params: ModelParams, grads: GradientSet, state: AdamState, lr: float) -> None:
    """Bias-corrected dense Adam over the flat parameter buffer; padding rows re-pinned afterwards.

    Every moment decays every step, as in plain Adam. The gradient of the
    user, item and output tables arrives as compact (rows, values) pairs
    (see GradientSet): the gradient terms are added on the recorded rows
    only, from the values, since every other row's gradient is exactly zero
    and adding it would change no bit. The conv and FC gradients are dense.
    The parameter update runs in place over blocks of ADAM_BLOCK elements.
    """
    by_tensor = list(grads.by_layout(params.layout))
    for name, g, _ in by_tensor:
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"non-finite gradient in {name} at step {state.step + 1}")
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    state.m.buffer *= b1
    state.v.buffer *= b2
    for (_, m), (_, v), (_, g, rows) in zip(state.m.tensors(), state.v.tensors(), by_tensor):
        m[rows] += (1.0 - b1) * g
        sq = (1.0 - b2) * g
        sq *= g
        v[rows] += sq
    p, m, v = params.buffer, state.m.buffer, state.v.buffer
    buf_a, buf_b = state.scratch
    for start in range(0, p.size, ADAM_BLOCK):  # p -= lr * (m / c1) / (sqrt(v / c2) + eps)
        stop = min(start + ADAM_BLOCK, p.size)
        step = buf_a[: stop - start]
        denom = buf_b[: stop - start]
        np.divide(m[start:stop], c1, out=step)
        step *= lr
        np.divide(v[start:stop], c2, out=denom)
        np.sqrt(denom, out=denom)
        denom += state.eps
        step /= denom
        p[start:stop] -= step
    params.pin_rows()


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


def sample_negative_batch(
    rng: np.random.Generator,
    targets: np.ndarray,
    target_mask: np.ndarray,
    item_count: int,
    count: int,
    per_instance: bool = False,
    history: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform negatives for a batch, rejecting targets (and history if given).

    Raises SamplingError before the first draw when some row with a
    negative slot excludes every item. Slots that still hit excluded items
    after 200 rejection rounds (a row with only a few eligible items) are
    drawn uniformly from their row's eligible items, with the same rng.
    """
    n_batch, n_t = targets.shape
    if per_instance:
        slots = count
        neg_mask = np.ones((n_batch, slots))
    else:
        slots = count * n_t
        neg_mask = np.repeat(target_mask, count, axis=1)
    live = neg_mask > 0
    # row b may not draw excluded[b]: its targets, then its history, padded with item 0
    excluded = targets
    if history is not None:
        sizes = np.array([h.size for h in history])
        block = np.zeros((n_batch, sizes.max(initial=0)), dtype=np.int64)
        block[np.arange(block.shape[1]) < sizes[:, None]] = np.concatenate(history)
        excluded = np.concatenate([targets, block], axis=1)
    if excluded.shape[1] >= item_count:  # a narrower row cannot exclude every item
        ordered = np.sort(excluded, axis=1)
        distinct = np.count_nonzero(np.diff(ordered, axis=1, prepend=0), axis=1)
        full = np.flatnonzero((distinct >= item_count) & live.any(axis=1))
        if full.size:
            raise SamplingError(f"row {full[0]} of the batch excludes every item; no negative can be drawn")
    neg = rng.integers(1, item_count + 1, size=(n_batch, slots))
    for rounds_left in range(200, -1, -1):
        bad = (neg[:, :, None] == excluded[:, None, :]).any(axis=2) & live
        if not bad.any():
            break
        if rounds_left:
            where = np.nonzero(bad)
            neg[where] = rng.integers(1, item_count + 1, size=where[0].size)
            continue
        for b in np.flatnonzero(bad.any(axis=1)):  # 200 rounds left these rows with excluded draws
            eligible = np.setdiff1d(np.arange(1, item_count + 1), excluded[b])
            neg[b, bad[b]] = eligible[rng.integers(0, eligible.size, size=np.count_nonzero(bad[b]))]
    neg[~live] = 0
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
    ap_mode: str = "standard",
    exclude_seen: bool = True,
) -> TrainResult:
    """Train on the split's training part, tracking validation MAP per epoch.

    Instances are reshuffled and negatives resampled every epoch; the
    checkpoint with the best validation MAP is returned (final params if the
    split has no validation data). The validation MAP is measured with
    ``ap_mode`` and ``exclude_seen``. ``progress`` takes each EpochLog.
    """
    # Looked up at call time, not bound at import: the benchmark times the
    # validation pass by patching convrec.evaluate.evaluate.
    from .evaluate import evaluate

    instances = generate_instances(split, hp.order, hp.num_targets, "train")
    n_inst = len(instances)
    if not n_inst:
        raise EmptyDatasetError("no training instances")
    prev, users, tgt, tgt_mask = instances.prev, instances.users, instances.targets, instances.target_mask

    history = ([np.asarray(sorted(set(items)), dtype=np.int64) for items in split.train]  # by user
               if exclude_history_negatives else None)

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
            if not np.isfinite(loss):
                raise NonFiniteLossError(f"non-finite loss {loss} at step {state.step + 1} (epoch {epoch})")
            adam_step(params, grads, state, hp.lr)
            total += loss * len(rows)

        val_map = val_p1 = float("nan")
        if have_validation:
            report = evaluate(params, hp, split, cutoffs=(1,), ap_mode=ap_mode, exclude_seen=exclude_seen,
                              part="validation", comp_mask=comp_mask)
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
