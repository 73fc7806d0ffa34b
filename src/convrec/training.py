"""Mini-batch Adam training with per-epoch negative resampling.

Everything deterministic under the seed: instance shuffling, negative
draws, and dropout masks all come from generators derived from (seed,
epoch), and batches are reduced in a fixed order.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .batch import batch_loss_and_grads
from .config import HyperParams, Ranking, run_parts, thread_budget
from .data import ItemLists, SplitDataset, generate_instances, joined
from .errors import ConfigError, EmptyDatasetError, NonFiniteGradientError, NonFiniteLossError, SamplingError
from .gradients import GradientSet
from .model import FULL_MASK, ComponentMask, ModelParams, dropout_mask_for, init_params


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's decay rates and denominator floor
ADAM_BLOCK = 65536  # elements per block of the parameter update
# Fewest elements in one thread's part of the update. On a 2-vCPU VM a split
# costs about 0.7 ms a step (a 50-70 us handoff, and the second part's
# Python, which holds the GIL): two parts lost to the serial update at 106k
# elements (1.31-1.36 against 1.04-1.23 ms) and won from 167k (1.59-1.61
# against 1.83-1.88 ms); at 3.47M they took 16.8 against 30.6 ms. A part of
# at least 2**18 elements keeps that cost well under the time it saves.
ADAM_MIN_PART = 1 << 18


def _part_bounds(layout, parts: int) -> list[tuple[int, int]]:
    """(start, stop) of ``parts`` near-equal parts of a layout's flat buffer, each cut at a row start of its tensor."""
    sizes = [math.prod(shape) for _, shape in layout]
    starts = np.cumsum([0] + sizes[:-1])
    total = sum(sizes)
    cuts = [0]
    for k in range(1, parts):
        target = total * k // parts
        t = int(np.searchsorted(starts, target, side="right")) - 1
        width = sizes[t] // layout[t][1][0]
        cuts.append(int(starts[t]) + (target - int(starts[t])) // width * width)
    return list(zip(cuts, cuts[1:] + [total]))


@dataclass
class AdamState:
    """Adam's moments and step count, and the parts of the flat buffer that its dense update splits.

    adam_step runs the first part on the calling thread and each other part
    on a thread that lives as long as the step (see config.run_parts).
    """

    m: ModelParams  # first moments, in the parameters' layout
    v: ModelParams  # second moments
    step: int = 0
    parts: list[tuple[int, int]] = field(default_factory=list)  # empty: the whole buffer as one part
    # block-sized scratch for the parameter update, one pair per part
    scratch: list[tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False)

    def __post_init__(self):
        self.parts = self.parts or [(0, self.m.buffer.size)]
        self.scratch = [(np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)) for _ in self.parts]

    @classmethod
    def for_params(cls, params: ModelParams, workers: int = 1) -> "AdamState":
        """Zero moments, and the update split over up to ``workers`` threads, each part at least ADAM_MIN_PART elements."""
        parts = _part_bounds(params.layout, max(1, min(workers, params.buffer.size // ADAM_MIN_PART)))
        return cls(m=ModelParams(params.layout, np.zeros_like(params.buffer)),
                   v=ModelParams(params.layout, np.zeros_like(params.buffer)), parts=parts)


def _adam_part(params: ModelParams, by_tensor, state: AdamState, lr: float, part: int) -> None:
    """Adam on the elements [start, stop) of ``state.parts[part]``: decay, gradient terms, update.

    Each element goes through the operations of the whole-buffer update in
    the same order, so any split of the buffer gives the same bits.
    """
    start, stop = state.parts[part]
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    p, m, v = params.buffer, state.m.buffer, state.v.buffer
    m[start:stop] *= b1
    v[start:stop] *= b2
    stop_t = 0
    for (_, mt), (_, vt), (_, g, rows) in zip(state.m.tensors(), state.v.tensors(), by_tensor):
        start_t, stop_t = stop_t, stop_t + mt.size  # the tensor's elements in the buffer
        if stop_t <= start or start_t >= stop:
            continue
        if start_t < start or stop_t > stop:  # the part holds only rows lo..hi-1 of the tensor
            width = mt.size // len(mt)
            lo, hi = (max(start, start_t) - start_t) // width, (min(stop, stop_t) - start_t) // width
            if isinstance(rows, slice):  # dense: every row
                rows, g = slice(lo, hi), g[lo:hi]
            else:  # sorted row ids with their values
                a, b = np.searchsorted(rows, (lo, hi))
                rows, g = rows[a:b], g[a:b]
        mt[rows] += (1.0 - b1) * g
        sq = (1.0 - b2) * g
        sq *= g
        vt[rows] += sq
    buf_a, buf_b = state.scratch[part]
    for lo in range(start, stop, ADAM_BLOCK):  # p -= lr * (m / c1) / (sqrt(v / c2) + eps)
        hi = min(lo + ADAM_BLOCK, stop)
        step = buf_a[: hi - lo]
        denom = buf_b[: hi - lo]
        np.divide(m[lo:hi], c1, out=step)
        step *= lr
        np.divide(v[lo:hi], c2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom
        p[lo:hi] -= step


def adam_step(params: ModelParams, grads: GradientSet, state: AdamState, lr: float) -> None:
    """Bias-corrected dense Adam over the flat parameter buffer; padding rows re-pinned afterwards.

    Every moment decays every step, as in plain Adam. The gradient of the
    user, item and output tables arrives as compact (rows, values) pairs
    (see GradientSet): the gradient terms are added on the recorded rows
    only, from the values, since every other row's gradient is exactly zero
    and adding it would change no bit. The conv and FC gradients are dense.
    The parameter update runs in place over blocks of ADAM_BLOCK elements.
    The update is elementwise, so each part of the buffer runs on its own
    thread (numpy releases the GIL in these loops) and the bits are those of
    the serial update. A non-finite gradient raises before any element
    changes.
    """
    by_tensor = list(grads.by_layout(params.layout))
    for name, g, _ in by_tensor:
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"non-finite gradient in {name} at step {state.step + 1}")
    state.step += 1
    run_parts(lambda part: _adam_part(params, by_tensor, state, lr, part), len(state.parts))
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
    history: ItemLists | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform negatives for a batch, rejecting targets (and history if given).

    ``history`` holds one item list per batch row, in any order and with
    repeats: the items that row excludes beyond its targets. Raises
    ConfigError for an excluded id outside 0..item_count or a history of
    another row count, and SamplingError before the first draw when some row
    with a negative slot excludes every item. Slots that still hit excluded
    items after 200 rejection rounds (a row with only a few eligible items)
    are drawn uniformly from their row's eligible items, with the same rng.
    """
    n_batch, n_t = targets.shape
    if per_instance:
        slots = count
        neg_mask = np.ones((n_batch, slots))
    else:
        slots = count * n_t
        neg_mask = np.repeat(target_mask, count, axis=1)
    live = neg_mask > 0
    if history is None:  # an empty list per row
        history = ItemLists(np.zeros(0, np.int64), np.zeros(n_batch + 1, np.int64))
    if len(history) != n_batch:
        raise ConfigError(f"history has {len(history)} lists for a batch of {n_batch} rows")
    if any(a.size and (a.min() < 0 or a.max() > item_count) for a in (targets, history.flat)):
        raise ConfigError(f"excluded item ids must lie in 0..{item_count}")
    excluded = np.zeros((n_batch, item_count + 1), dtype=bool)  # row b may not draw item i where [b, i] is set
    row_of = np.arange(n_batch)[:, None]
    excluded[row_of, targets] = True
    excluded[history.pairs()] = True
    if n_t + history.lengths.max(initial=0) >= item_count:  # a narrower row cannot exclude every item
        full = np.flatnonzero((np.count_nonzero(excluded[:, 1:], axis=1) >= item_count) & live.any(axis=1))
        if full.size:
            raise SamplingError(f"row {full[0]} of the batch excludes every item; no negative can be drawn")
    neg = rng.integers(1, item_count + 1, size=(n_batch, slots))
    for rounds_left in range(200, -1, -1):
        bad = excluded[row_of, neg] & live
        if not bad.any():
            break
        if rounds_left:
            where = np.nonzero(bad)
            neg[where] = rng.integers(1, item_count + 1, size=where[0].size)
            continue
        for b in np.flatnonzero(bad.any(axis=1)):  # 200 rounds left these rows with excluded draws
            eligible = np.flatnonzero(~excluded[b, 1:]) + 1
            neg[b, bad[b]] = eligible[rng.integers(0, eligible.size, size=np.count_nonzero(bad[b]))]
    neg[~live] = 0
    return neg, neg_mask


def train(
    split: SplitDataset,
    hp: HyperParams,
    seed: int,
    epochs: int,
    batch_size: int,
    patience: int,
    comp_mask: ComponentMask = FULL_MASK,
    exclude_history_negatives: bool = False,
    progress=None,
    ranking: Ranking = Ranking(),
) -> TrainResult:
    """Train on the split's training part, tracking validation MAP per epoch.

    Instances are reshuffled and negatives resampled every epoch; the
    checkpoint with the best validation MAP is returned (final params if the
    split has no validation data). The validation MAP and Prec@1 are
    measured with ``ranking``'s AP mode and exclusion of seen items, whatever
    its cutoffs. ``progress`` takes each EpochLog.
    """
    # Looked up at call time, not bound at import: the benchmark times the
    # validation pass by patching convrec.evaluate.evaluate.
    from .evaluate import evaluate

    workers = thread_budget()  # a bad CASER_THREADS fails before any work
    instances = generate_instances(split, hp.order, hp.num_targets, "train")
    n_inst = len(instances)
    if not n_inst:
        raise EmptyDatasetError("no training instances")
    prev, users, tgt, tgt_mask = instances.prev, instances.users, instances.targets, instances.target_mask

    rng_init = np.random.default_rng([seed, 1])
    params = init_params(hp, split.user_count, split.item_count, rng_init)

    have_validation = split.users_with(split.validation).size > 0

    result = TrainResult(params=params)
    best_params: ModelParams | None = None
    best_map = -np.inf
    stale = 0

    state = AdamState.for_params(params, workers)
    for epoch in range(1, epochs + 1):
        t0 = time.monotonic()
        erng = np.random.default_rng([seed, 1000 + epoch])
        perm = erng.permutation(n_inst)
        total = 0.0
        for start in range(0, n_inst, batch_size):
            rows = perm[start : start + batch_size]
            history = joined([split.train], users[rows]) if exclude_history_negatives else None
            neg, neg_mask = sample_negative_batch(
                erng, tgt[rows], tgt_mask[rows], split.item_count, hp.num_negatives, hp.negatives_per_instance, history
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
            report = evaluate(params, hp, split, replace(ranking, cutoffs=(1,)), part="validation", comp_mask=comp_mask)
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


def _one_adam_thread() -> None:
    os.environ["CASER_THREADS"] = "1"


def map_trials(trial, payloads: list, jobs: int) -> list:
    """``[trial(p) for p in payloads]``, over ``jobs`` worker processes when jobs > 1.

    Each worker process runs Adam on one thread, since the trials already
    fill the cores. ``trial`` and the payloads are pickled to the workers.
    """
    if jobs <= 1:
        return [trial(p) for p in payloads]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing (~10 ms), which only pools need

    with ProcessPoolExecutor(max_workers=jobs, initializer=_one_adam_thread) as pool:
        return list(pool.map(trial, payloads))
