"""Top-N recommendation and ranking metrics.

Rankings are strictly ordered by score, ties broken toward the smaller item
index, so results are identical across platforms. By default the items a
user already interacted with (training + validation) are removed from the
candidate set before ranking; a flag disables that.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import batch_forward
from .config import HyperParams
from .data import SplitDataset, history_for, pad_left
from .model import FULL_MASK, ComponentMask, ModelParams, forward

AP_MODES = ("standard", "paper_literal")


@dataclass
class RankedList:
    user_index: int
    items: np.ndarray  # highest score first
    scores: np.ndarray  # aligned with items


@dataclass
class EvalReport:
    precision: dict[int, float]
    recall: dict[int, float]
    mean_ap: float
    users_evaluated: int
    ap_mode: str = "standard"
    per_user: list[tuple[int, float, int]] | None = None  # (user, AP, hits@maxN)

    def to_csv(self) -> str:
        cutoffs = sorted(self.precision)
        header = ",".join(
            [f"prec@{n}" for n in cutoffs] + [f"recall@{n}" for n in cutoffs] + ["MAP", "users"]
        )
        values = ",".join(
            [f"{self.precision[n]:.6f}" for n in cutoffs]
            + [f"{self.recall[n]:.6f}" for n in cutoffs]
            + [f"{self.mean_ap:.6f}", str(self.users_evaluated)]
        )
        return header + "\n" + values + "\n"

    def table(self) -> str:
        lines = [f"{'metric':<12}{'value':>10}"]
        for n in sorted(self.precision):
            lines.append(f"{'Prec@' + str(n):<12}{self.precision[n]:>10.4f}")
        for n in sorted(self.recall):
            lines.append(f"{'Recall@' + str(n):<12}{self.recall[n]:>10.4f}")
        lines.append(f"{'MAP':<12}{self.mean_ap:>10.4f}")
        lines.append(f"{'users':<12}{self.users_evaluated:>10d}")
        return "\n".join(lines)


def ranked_order(scores: np.ndarray) -> np.ndarray:
    """Indices sorted by score descending, ties toward the smaller index.

    Entries at -inf (padding, excluded items) sort last.
    """
    return np.lexsort((np.arange(scores.size), -scores))


def recommend_top_n(
    params: ModelParams,
    hp: HyperParams,
    history,
    user_index: int,
    n: int,
    exclude_seen: bool = True,
    comp_mask: ComponentMask = FULL_MASK,
) -> RankedList:
    """Rank all eligible items from the user's last L actions, keep the top n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not len(history):
        raise ValueError("history must be nonempty")
    trace = forward(
        params, hp, pad_left(list(history), hp.order), user_index, mode="infer", comp_mask=comp_mask
    )
    scores = trace.scores.copy()
    if exclude_seen:
        scores[np.asarray(list(history), dtype=np.int64)] = -np.inf
    n = min(n, int(np.isfinite(scores).sum()))
    if n == 0:
        return RankedList(user_index, np.empty(0, dtype=np.int64), np.empty(0))
    # Select instead of sorting the catalog: every item scoring at least the
    # n-th largest score, boundary ties included, then rank only those.
    nth = -np.partition(-scores, n - 1)[n - 1]
    candidates = np.flatnonzero(scores >= nth)
    top = candidates[ranked_order(scores[candidates])[:n]]
    return RankedList(user_index, top, scores[top])


def prec_recall_at(ranked_items, relevant: set, n: int) -> tuple[float, float]:
    """Fraction of the top n that is relevant, and of the relevant set found."""
    if n < 1 or n > len(ranked_items):
        raise ValueError(f"n must lie in 1..{len(ranked_items)}")
    if not relevant:
        raise ValueError("relevant set is empty; caller should skip this user")
    hits = sum(1 for item in list(ranked_items)[:n] if item in relevant)
    return hits / n, hits / len(relevant)


def average_precision(
    ranked_items, relevant: set, mode: str = "standard", cutoff: int | None = None
) -> float:
    """Precision-weighted hit average over ranks 1..cutoff.

    standard mode divides by min(|relevant|, cutoff); paper_literal divides
    by the cutoff (the recommendation-list length) itself.
    """
    if mode not in AP_MODES:
        raise ValueError(f"mode must be one of {AP_MODES}")
    items = list(ranked_items)
    if cutoff is None:
        cutoff = len(items)
    if cutoff > len(items) or cutoff < 1:
        raise ValueError(f"cutoff must lie in 1..{len(items)}")
    hits = 0
    numerator = 0.0
    for k in range(1, cutoff + 1):
        if items[k - 1] in relevant:
            hits += 1
            numerator += hits / k
    denom = cutoff if mode == "paper_literal" else min(len(relevant), cutoff)
    return numerator / denom if denom else 0.0


def _metrics_from_positions(
    hit_ranks: np.ndarray, n_relevant: int, n_eligible: int, cutoffs, ap_mode: str, cutoff: int | None
):
    """Per-user metrics given the ascending 1-based ranks of relevant items."""
    prec = {}
    rec = {}
    for n in cutoffs:
        hits = int((hit_ranks <= n).sum())
        prec[n] = hits / n
        rec[n] = hits / n_relevant
    ap_cut = n_eligible if cutoff is None else min(cutoff, n_eligible)
    within = hit_ranks[hit_ranks <= ap_cut]
    numerator = float(np.sum(np.arange(1, len(within) + 1) / within))
    denom = ap_cut if ap_mode == "paper_literal" else min(n_relevant, ap_cut)
    ap = numerator / denom if denom else 0.0
    return prec, rec, ap


def score_matrix(
    params: ModelParams,
    hp: HyperParams,
    histories: list[list[int]],
    users: list[int],
    comp_mask: ComponentMask = FULL_MASK,
    chunk: int = 512,
) -> np.ndarray:
    """Inference scores over all items for many users, batched."""
    prev = np.asarray([pad_left(h, hp.order) for h in histories], dtype=np.int64)
    users_arr = np.asarray(users, dtype=np.int64)
    out = np.empty((len(users), params.item_count + 1))
    for lo in range(0, len(users), chunk):
        hi = min(lo + chunk, len(users))
        bt = batch_forward(params, hp, prev[lo:hi], users_arr[lo:hi], comp_mask)
        out[lo:hi] = bt.scores
    return out


def metrics_for_ranking(scores: np.ndarray, relevant: set, cutoffs, ap_mode, cutoff=None):
    """Metrics for one user's masked score row (used by model and baseline paths).

    Each relevant item's rank is counted, not read off a sort of the whole
    row: 1 + the items scoring higher + the items scoring equal at a smaller
    index, which is its 1-based position in ``ranked_order(scores)``. Items
    at -inf (padding, excluded history) or NaN never rank.
    """
    n_eligible = int(np.isfinite(scores).sum())
    ranks = [
        1 + np.count_nonzero(scores > scores[r]) + np.count_nonzero(scores[:r] == scores[r])
        for r in relevant
        if scores[r] > -np.inf
    ]
    hit_ranks = np.sort(np.array(ranks, dtype=np.int64))
    # +inf scores rank first without being eligible; the ranking holds n_eligible items
    hit_ranks = hit_ranks[hit_ranks <= n_eligible]
    return _metrics_from_positions(hit_ranks, len(relevant), n_eligible, cutoffs, ap_mode, cutoff)


def evaluate(
    params: ModelParams,
    hp: HyperParams,
    split: SplitDataset,
    cutoffs=(1, 5, 10),
    ap_mode: str = "standard",
    exclude_seen: bool = True,
    part: str = "test",
    comp_mask: ComponentMask = FULL_MASK,
    collect_per_user: bool = False,
    ap_cutoff: int | None = None,
) -> EvalReport:
    """Average per-user metrics against the held-out part of the split.

    Users whose held-out part is empty are excluded from all averages.
    """
    if ap_mode not in AP_MODES:
        raise ValueError(f"ap_mode must be one of {AP_MODES}")
    held = split.test if part == "test" else split.validation
    users = [u for u in split.users() if held[u]]
    if not users:
        raise ValueError(f"no users with a nonempty {part} part")
    histories = [history_for(split, u, part) for u in users]
    scores = score_matrix(params, hp, histories, users, comp_mask=comp_mask)

    prec_sum = {n: 0.0 for n in cutoffs}
    rec_sum = {n: 0.0 for n in cutoffs}
    ap_sum = 0.0
    per_user = [] if collect_per_user else None
    max_n = max(cutoffs)
    for row, u in enumerate(users):
        s = scores[row]
        if exclude_seen and histories[row]:
            s = s.copy()
            s[np.asarray(histories[row], dtype=np.int64)] = -np.inf
        prec, rec, ap = metrics_for_ranking(s, set(held[u]), cutoffs, ap_mode, ap_cutoff)
        for n in cutoffs:
            prec_sum[n] += prec[n]
            rec_sum[n] += rec[n]
        ap_sum += ap
        if per_user is not None:
            # prec[max_n] is hits / max_n, exactly, so this recovers the hit count
            per_user.append((u, ap, round(prec[max_n] * max_n)))

    count = len(users)
    return EvalReport(
        precision={n: prec_sum[n] / count for n in cutoffs},
        recall={n: rec_sum[n] / count for n in cutoffs},
        mean_ap=ap_sum / count,
        users_evaluated=count,
        ap_mode=ap_mode,
        per_user=per_user,
    )
