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
# metrics_for_ranking and ranked_order are unused here, but perfbench hooks them under this module's name
from .evaluate import (  # noqa: F401
    EvalReport,
    evaluate,
    evaluate_scores,
    metrics_for_ranking,
    ranked_order,
)
from .model import ComponentMask, ModelParams
from .training import TrainResult, train

__all__ = [
    "ComponentMask",
    "masked_forward",
    "evaluate_pop",
    "run_ablation",
    "mask_history_items",
    "AblationRow",
]


def masked_forward(
    params: ModelParams, hp: HyperParams, prev_items, user_index: int, mask: ComponentMask
) -> np.ndarray:
    """Inference scores with the given components disabled."""
    return forward(params, hp, prev_items, user_index, mask)


def popularity_counts(split: SplitDataset) -> np.ndarray:
    counts = np.zeros(split.item_count + 1, dtype=np.int64)
    for u in split.users():
        for item in split.train[u]:
            counts[item] += 1
    return counts


def evaluate_pop(
    split: SplitDataset,
    cutoffs=(1, 5, 10),
    ap_mode: str = "standard",
    exclude_seen: bool = True,
    part: str = "test",
) -> EvalReport:
    """POP baseline metrics: every user gets the training-count score row."""
    row = popularity_counts(split).astype(float)
    row[0] = -np.inf
    return evaluate_scores(
        split, lambda users, _: itertools.repeat(row), cutoffs, ap_mode, exclude_seen, part
    )


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
) -> list[AblationRow]:
    """Train one model per mask from the same seed and data; report test MAP.

    The special mask name "pop" evaluates the popularity baseline instead of
    training a model.
    """
    rows: list[AblationRow] = []
    for code in masks:
        if code.strip().lower() == "pop":
            report = evaluate_pop(split, cutoffs=cutoffs)
            rows.append(AblationRow("pop", report.mean_ap, report.precision[1], 0, seed))
        else:
            mask = ComponentMask.from_code(code)
            result: TrainResult = train(
                split, hp, seed=seed, epochs=epochs, batch_size=batch_size,
                patience=patience, comp_mask=mask, progress=progress,
            )
            report = evaluate(result.params, hp, split, cutoffs=cutoffs, comp_mask=mask)
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
    window = np.asarray(pad_left(list(history), hp.order), dtype=np.int64)
    window[[p - 1 for p in mask_positions]] = PADDING_INDEX
    scores = forward(params, hp, window, user_index)
    if exclude_seen:
        seen = np.asarray(list(history), dtype=np.int64)
        scores[seen] = -np.inf
    if not np.isfinite(scores[probe_item]):
        raise ValueError(f"probe item {probe_item} is excluded from ranking")
    better = int((scores > scores[probe_item]).sum())
    ties_before = int(
        ((scores == scores[probe_item]) & (np.arange(scores.size) < probe_item)).sum()
    )
    return scores, better + ties_before + 1
