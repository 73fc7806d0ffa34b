"""Component masking, the popularity baseline, and history-masking analysis.

Masks zero a component's feature vector before the FC/output layers and
freeze its parameters during training. With both conv paths off the
sequence embedding disappears entirely, so scoring degenerates to the plain
latent-factor form out_w[:, d:] @ p_u + out_b, exactly.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .batch import forward
from .config import HyperParams
from .data import PADDING_INDEX, SplitDataset, pad_left
# metrics_for_ranking is unused here, but perfbench hooks it under this module's name
from .evaluate import (  # noqa: F401
    EvalReport,
    SharedRow,
    eligible_and_ranks,
    evaluate,
    evaluate_scores,
    metrics_for_ranking,
    ranked_order,
)
from .model import ComponentMask, ModelParams
from .training import TrainResult, train

__all__ = [
    "ComponentMask",
    "evaluate_pop",
    "run_ablation",
    "mask_history_items",
    "AblationRow",
]


def popularity_counts(split: SplitDataset) -> np.ndarray:
    train = np.fromiter(itertools.chain.from_iterable(map(split.train.__getitem__, split.users())), np.int64)
    return np.bincount(train, minlength=split.item_count + 1)


def evaluate_pop(
    split: SplitDataset,
    cutoffs=(1, 5, 10),
    ap_mode: str = "standard",
    exclude_seen: bool = True,
    part: str = "test",
) -> EvalReport:
    """POP baseline metrics: every user gets the training-count score row,
    ranked by one sort of it (see evaluate_scores)."""
    row = popularity_counts(split).astype(float)
    row[0] = -np.inf
    return evaluate_scores(split, SharedRow(row, ranked_order(row)), cutoffs, ap_mode, exclude_seen, part)


@dataclass
class AblationRow:
    mask: str
    mean_ap: float
    prec1: float
    epochs: int
    seed: int


ABLATION_HEADER = "mask,MAP,Prec@1,epochs,seed"


def run_ablation(
    split: SplitDataset,
    hp: HyperParams,
    masks: list[str],
    seed: int,
    epochs: int,
    batch_size: int = 100,
    patience: int = 5,
    cutoffs=(1, 5, 10),
    progress=None,
    exclude_history_negatives: bool = False,
    ap_mode: str = "standard",
    exclude_seen: bool = True,
) -> list[AblationRow]:
    """Train one model per mask from the same seed and data; report test MAP.

    The special mask name "pop" evaluates the popularity baseline instead of
    training a model. The training keys go to train, the metric keys to
    train's validation, evaluate and evaluate_pop. Cutoff 1 is always
    evaluated, for the Prec@1 column.
    """
    cutoffs = (1, *cutoffs)  # evaluate_scores reports a repeated cutoff once
    rows: list[AblationRow] = []
    for code in masks:
        if code.strip().lower() == "pop":
            report = evaluate_pop(split, cutoffs=cutoffs, ap_mode=ap_mode, exclude_seen=exclude_seen)
            rows.append(AblationRow("pop", report.mean_ap, report.precision[1], 0, seed))
        else:
            mask = ComponentMask.from_code(code)
            result: TrainResult = train(
                split, hp, seed=seed, epochs=epochs, batch_size=batch_size,
                patience=patience, comp_mask=mask, exclude_history_negatives=exclude_history_negatives,
                progress=progress, ap_mode=ap_mode, exclude_seen=exclude_seen,
            )
            report = evaluate(result.params, hp, split, cutoffs=cutoffs, ap_mode=ap_mode,
                              exclude_seen=exclude_seen, comp_mask=mask)
            rows.append(
                AblationRow(mask.code, report.mean_ap, report.precision[1], len(result.log), seed)
            )
    return rows


def ablation_csv(rows: list[AblationRow]) -> str:
    lines = [ABLATION_HEADER]
    for r in rows:
        lines.append(f"{r.mask},{r.mean_ap:.6f},{r.prec1:.6f},{r.epochs},{r.seed}")
    return "\n".join(lines) + "\n"


def mask_history_items(
    params: ModelParams,
    hp: HyperParams,
    history,
    user_index: int,
    mask_positions: set[int],
    probe_item: int,
    exclude_seen: bool = True,
) -> tuple[np.ndarray, int]:
    """Mask selected slots of the history window and report the probe's rank.

    A masked slot holds the padding item, whose embedding row is zero.
    ``mask_positions`` are 1-based slots of the L-window, 1 = oldest. Returns
    (scores, rank), rank being 1-based among the eligible items.
    """
    if any(p < 1 or p > hp.order for p in mask_positions):
        raise ValueError(f"mask positions must lie in 1..{hp.order}")
    if not 1 <= probe_item <= params.item_count:
        raise ValueError(f"probe item {probe_item} must lie in 1..{params.item_count}")
    window = np.asarray(pad_left(list(history), hp.order), dtype=np.int64)
    window[[p - 1 for p in mask_positions]] = PADDING_INDEX
    scores = forward(params, hp, window, user_index)
    if exclude_seen:
        seen = np.asarray(list(history), dtype=np.int64)
        scores[seen] = -np.inf
    if not np.isfinite(scores[probe_item]):
        raise ValueError(f"probe item {probe_item} is excluded from ranking")
    _, rank = eligible_and_ranks(scores[None], np.zeros(1, dtype=np.int64), np.array([probe_item]))
    return scores, int(rank[0])
