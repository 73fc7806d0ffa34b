"""Component masking, the popularity baseline, and history-masking analysis.

Masks zero a component's feature vector before the FC/output layers and
freeze its parameters during training. With both conv paths off the
sequence embedding disappears entirely, so scoring degenerates to the plain
latent-factor form out_w[:, d:] @ p_u + out_b, exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import HyperParams, Ranking
from .data import SplitDataset
from .errors import ConfigError, EmptyDatasetError
# metrics_for_ranking is unused here, but perfbench hooks it under this module's name
from .evaluate import (  # noqa: F401
    EvalReport,
    SharedRow,
    eligible_and_ranks,
    evaluate,
    evaluate_scores,
    history_scores,
    metrics_for_ranking,
    ranked_order,
)
from .model import ComponentMask, ModelParams
from .training import train

__all__ = [
    "ComponentMask",
    "evaluate_pop",
    "run_ablation",
    "mask_history_items",
    "AblationRow",
]


def popularity_counts(split: SplitDataset) -> np.ndarray:
    return np.bincount(split.train.span(1, split.user_count + 1).flat, minlength=split.item_count + 1)


def evaluate_pop(split: SplitDataset, ranking: Ranking = Ranking()) -> EvalReport:
    """POP baseline metrics on the test part, as ``ranking`` defines them: every user gets the
    training-count score row, ranked by one sort of it (see evaluate_scores)."""
    row = popularity_counts(split).astype(float)
    row[0] = -np.inf
    return evaluate_scores(split, SharedRow(row, ranked_order(row)), ranking)


@dataclass
class AblationRow:
    mask: str
    mean_ap: float
    prec1: float
    epochs: int
    seed: int


ABLATION_HEADER = "mask,MAP,Prec@1,epochs,seed"


def resolve_masks(codes: list[str]) -> list[ComponentMask | None]:
    """Each code's ComponentMask, None for "pop"; no code, or one of other letters than p, v and h, raises ConfigError."""
    if not codes:
        raise ConfigError("no mask codes given")
    return [None if code.strip().lower() == "pop" else ComponentMask.from_code(code) for code in codes]


def run_ablation(
    split: SplitDataset,
    hp: HyperParams,
    masks: list[str],
    ranking: Ranking = Ranking(),
    **train_keys,
) -> list[AblationRow]:
    """Train one model per mask from the same seed and data; report test MAP.

    The special mask name "pop" evaluates the popularity baseline instead of
    training a model. ``train_keys`` (seed, epochs, batch_size, patience and,
    optionally, exclude_history_negatives) go to train, and the seed to every
    row. ``ranking`` goes to train, evaluate and evaluate_pop, with cutoff 1
    always evaluated, for the Prec@1 column.
    """
    evaluated = replace(ranking, cutoffs=(1, *ranking.cutoffs))
    plan = resolve_masks(masks)  # every code, and the test part, is checked before the first model trains
    if not split.users_with(split.test).size:
        raise EmptyDatasetError("no users with a nonempty test part")
    rows: list[AblationRow] = []
    for mask in plan:
        if mask is None:
            report, epochs = evaluate_pop(split, evaluated), 0
        else:
            result = train(split, hp, comp_mask=mask, ranking=ranking, **train_keys)
            report, epochs = evaluate(result.params, hp, split, evaluated, comp_mask=mask), len(result.log)
        code = "pop" if mask is None else mask.code
        rows.append(AblationRow(code, report.mean_ap, report.precision[1], epochs, train_keys["seed"]))
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
    exclude_seen: bool = Ranking.exclude_seen,
) -> tuple[np.ndarray, int]:
    """Mask selected slots of the history window and report the probe's rank.

    A masked slot holds the padding item, whose embedding row is zero.
    ``mask_positions`` are 1-based slots of the L-window, 1 = oldest. Returns
    (scores, rank), rank being 1-based among the eligible items.
    """
    if any(p < 1 or p > hp.order for p in mask_positions):
        raise ConfigError(f"mask positions must lie in 1..{hp.order}")
    if not 1 <= probe_item <= params.item_count:
        raise ConfigError(f"probe item {probe_item} must lie in 1..{params.item_count}")
    scores = history_scores(params, hp, history, user_index, mask_positions, exclude_seen)
    if not np.isfinite(scores[probe_item]):
        raise ConfigError(f"probe item {probe_item} is excluded from ranking")
    _, rank = eligible_and_ranks(scores[None], np.zeros(1, dtype=np.int64), np.array([probe_item]))
    return scores, int(rank[0])
