"""Component masking, the popularity baseline, and history-masking analysis.

Masks zero a component's feature vector before the FC/output layers and
freeze its parameters during training. With both conv paths off the
sequence embedding disappears entirely, so scoring degenerates to the plain
latent-factor form out_w[:, d:] @ p_u + out_b, exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import HyperParams
from .data import SplitDataset, history_for, pad_left
from .evaluate import EvalReport, RankedList, evaluate, metrics_for_ranking, ranked_order
from .model import ComponentMask, ModelParams, forward
from .training import TrainResult, train

__all__ = [
    "ComponentMask",
    "masked_forward",
    "fpmc_like_scores",
    "pop_baseline",
    "evaluate_pop",
    "run_ablation",
    "mask_history_items",
    "AblationRow",
]


def masked_forward(
    params: ModelParams, hp: HyperParams, prev_items, user_index: int, mask: ComponentMask
) -> np.ndarray:
    """Inference scores with the given components disabled."""
    return forward(params, hp, prev_items, user_index, mode="infer", comp_mask=mask).scores


def fpmc_like_scores(params: ModelParams, prev_item: int, user_index: int) -> np.ndarray:
    """First-order reduction: the previous item's embedding stands in for the
    sequence embedding and all bias terms are dropped."""
    z = params.item_emb[prev_item]
    x = np.concatenate([z, params.user_emb[user_index]])
    y = params.out_w @ x
    y[0] = -np.inf
    return y


def popularity_counts(split: SplitDataset) -> np.ndarray:
    counts = np.zeros(split.item_count + 1, dtype=np.int64)
    for u in split.users():
        for item in split.train[u]:
            counts[item] += 1
    return counts


def popularity_order(split: SplitDataset) -> np.ndarray:
    """Items sorted by training interaction count, ties toward smaller index."""
    counts = popularity_counts(split).astype(float)
    counts[0] = -np.inf
    return ranked_order(counts)[: split.item_count]


def pop_baseline(
    split: SplitDataset, users=None, exclude_seen: bool = True, part: str = "test"
) -> dict[int, RankedList]:
    """Per-user popularity ranking (one global order minus each user's history)."""
    if not any(split.train[u] for u in split.users()):
        raise ValueError("train split is empty")
    counts = popularity_counts(split)
    base = popularity_order(split)
    out: dict[int, RankedList] = {}
    for u in users if users is not None else split.users():
        items = base
        if exclude_seen:
            seen = set(history_for(split, u, part))
            if seen:
                items = base[~np.isin(base, np.fromiter(seen, dtype=np.int64))]
        out[u] = RankedList(u, items, counts[items].astype(float))
    return out


def evaluate_pop(
    split: SplitDataset,
    cutoffs=(1, 5, 10),
    ap_mode: str = "standard",
    exclude_seen: bool = True,
    part: str = "test",
) -> EvalReport:
    """POP baseline metrics, streaming one user at a time."""
    counts = popularity_counts(split).astype(float)
    held = split.test if part == "test" else split.validation
    users = [u for u in split.users() if held[u]]
    if not users:
        raise ValueError(f"no users with a nonempty {part} part")
    prec_sum = {n: 0.0 for n in cutoffs}
    rec_sum = {n: 0.0 for n in cutoffs}
    ap_sum = 0.0
    for u in users:
        s = counts.copy()
        s[0] = -np.inf
        if exclude_seen:
            seen = history_for(split, u, part)
            if seen:
                s[np.asarray(seen, dtype=np.int64)] = -np.inf
        prec, rec, ap = metrics_for_ranking(s, set(held[u]), cutoffs, ap_mode)
        for n in cutoffs:
            prec_sum[n] += prec[n]
            rec_sum[n] += rec[n]
        ap_sum += ap
    count = len(users)
    return EvalReport(
        {n: prec_sum[n] / count for n in cutoffs},
        {n: rec_sum[n] / count for n in cutoffs},
        ap_sum / count,
        count,
        ap_mode,
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
    """Zero selected rows of the embedded history and report the probe's rank.

    ``mask_positions`` are 1-based slots of the L-window, 1 = oldest. Returns
    (scores, rank), rank being 1-based among the eligible items.
    """
    if any(p < 1 or p > hp.order for p in mask_positions):
        raise ValueError(f"mask positions must lie in 1..{hp.order}")
    window = pad_left(list(history), hp.order)
    trace = forward(
        params, hp, window, user_index, mode="infer",
        zero_rows=tuple(p - 1 for p in sorted(mask_positions)),
    )
    scores = trace.scores.copy()
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
