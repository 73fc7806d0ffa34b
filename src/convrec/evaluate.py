"""Top-N recommendation and ranking metrics.

Rankings are strictly ordered by score, ties broken toward the smaller item
index, so results are identical across platforms. By default the items a
user already interacted with (training + validation) are removed from the
candidate set before ranking; a flag disables that.
"""
from __future__ import annotations

import contextlib
import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .batch import batch_forward, forward, score_column_ranges
from .config import AP_MODES, HyperParams, thread_budget
from .data import SplitDataset, history_for, pad_left
from .model import FULL_MASK, ComponentMask, ModelParams

SCORE_CHUNK = 512  # users scored per batch_forward call
# Ranking takes BLOCK_ELEMENTS // (item_count + 1) score rows at a time, at
# least one: about 1 MB of scores, whatever the catalog size.
BLOCK_ELEMENTS = 1 << 17
# Rows longer than this are counted pair by pair against scalars, shorter ones
# with broadcast comparisons over the block; the two took equal time between
# 1000 and 1500 items.
LONG_ROW = 1024


@dataclass
class RankedList:
    items: np.ndarray  # highest score first
    scores: np.ndarray  # aligned with items


@dataclass(frozen=True)
class SharedRow:
    """One score row that every user gets, -inf at index 0, and its ranked_order."""

    scores: np.ndarray
    order: np.ndarray


@dataclass
class EvalReport:
    precision: dict[int, float]
    recall: dict[int, float]
    mean_ap: float
    users_evaluated: int
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
) -> RankedList:
    """Rank all eligible items from the user's last L actions, keep the top n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not len(history):
        raise ValueError("history must be nonempty")
    scores = forward(params, hp, pad_left(list(history), hp.order), user_index)
    if exclude_seen:
        scores[np.asarray(list(history), dtype=np.int64)] = -np.inf
    n = min(n, int(np.isfinite(scores).sum()))
    if n == 0:
        return RankedList(np.empty(0, dtype=np.int64), np.empty(0))
    # Select instead of sorting the catalog: every item scoring at least the
    # n-th largest score, boundary ties included, then rank only those.
    nth = -np.partition(-scores, n - 1)[n - 1]
    candidates = np.flatnonzero(scores >= nth)
    top = candidates[ranked_order(scores[candidates])[:n]]
    return RankedList(top, scores[top])


def score_matrix(
    params: ModelParams,
    hp: HyperParams,
    histories: list[list[int]],
    users: list[int],
    comp_mask: ComponentMask = FULL_MASK,
    out: np.ndarray | None = None,
    pool: ThreadPoolExecutor | None = None,
    workers: int = 1,
) -> np.ndarray:
    """Inference scores over all items for many users, SCORE_CHUNK per batch.

    The scores go into ``out`` when it is given, shape (len(users), item_count + 1).
    Each batch's product is shared by up to ``workers`` threads, the caller
    and ``pool``'s (see batch_forward).
    """
    prev = np.asarray([pad_left(h, hp.order) for h in histories], dtype=np.int64)
    users_arr = np.asarray(users, dtype=np.int64)
    if out is None:
        out = np.empty((len(users), params.item_count + 1))
    for lo in range(0, len(users), SCORE_CHUNK):
        hi = min(lo + SCORE_CHUNK, len(users))
        batch_forward(params, hp, prev[lo:hi], users_arr[lo:hi], comp_mask, out=out[lo:hi], pool=pool,
                      workers=workers)
    return out


def _flat_pairs(item_sets) -> tuple[np.ndarray, np.ndarray]:
    """The (row, item) pairs of one item collection per row, row by row."""
    sizes = np.fromiter(map(len, item_sets), np.int64, len(item_sets))
    rows = np.repeat(np.arange(len(item_sets)), sizes)
    return rows, np.fromiter(itertools.chain.from_iterable(item_sets), np.int64, rows.size)


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """True entries per row, summed as bytes into the narrowest total that cannot wrap.

    Casting each byte to int64, as count_nonzero(axis=1) does, took 4-7x as
    long as a uint16 total, and on rows of 22k items twice as long as
    count_nonzero row by row.
    """
    total = np.uint16 if mask.shape[1] <= np.iinfo(np.uint16).max else np.int64
    return mask.view(np.uint8).sum(axis=1, dtype=total).astype(np.int64)


def eligible_and_ranks(scores: np.ndarray, rows: np.ndarray, items: np.ndarray):
    """Eligible (finite) items per row of a score block, and the rank of each
    (row, item) pair: 1 + the items scoring higher + the items scoring equal
    at a smaller index, its 1-based position in ``ranked_order(row)``. NaN
    compares false, so it is never ahead."""
    values = scores[rows, items]
    eligible = _row_counts(np.isfinite(scores))
    if scores.shape[1] > LONG_ROW:
        # On long rows comparing against a scalar, several times faster than a
        # broadcast comparison, outweighs making two calls per pair. An equal
        # score before item i is ahead of it, one after it is not.
        ahead = np.array(
            [
                np.count_nonzero(scores[r, :i] >= v) + np.count_nonzero(scores[r, i:] > v)
                for r, i, v in zip(rows.tolist(), items.tolist(), values.tolist())
            ],
            dtype=np.int64,
        )
        return eligible, ahead + 1
    pair_rows = scores[rows]
    ahead = pair_rows > values[:, None]
    ahead |= (pair_rows == values[:, None]) & (np.arange(scores.shape[1]) < items[:, None])
    return eligible, _row_counts(ahead) + 1


def metrics_for_ranking(scores: np.ndarray, relevant, cutoffs, ap_mode: str):
    """Metrics for a block of masked score rows (the model's path).

    ``relevant[i]`` is row i's set of held-out items. Each relevant item's
    rank is counted by eligible_and_ranks, not read off a sort of the whole
    row. Returns what ranked_metrics returns.
    """
    rows, items = _flat_pairs(relevant)
    eligible, ranks = eligible_and_ranks(scores, rows, items)
    return ranked_metrics(rows, scores[rows, items], ranks, eligible, cutoffs, ap_mode)


def shared_row_ranks(row: np.ndarray, order: np.ndarray, rows: np.ndarray, items: np.ndarray,
                     seen: tuple[np.ndarray, np.ndarray], n_rows: int):
    """What eligible_and_ranks would count on ``n_rows`` copies of one score row
    with each copy's seen items set to -inf, from one sort of the row.

    ``order`` is ranked_order(row); an item's position in it is the number of
    items ahead of it in the unmasked row. ``seen`` holds the (row, item)
    pairs to mask, repeats allowed. Masking a seen item ahead of a finite or
    +inf item moves it behind, so a pair's rank is its position + 1 less the
    row's distinct seen items ahead of it; a row's eligible count is the
    finite count less its finite distinct seen items. Returns each pair's
    masked value, the eligible count of each row and each pair's rank; a rank
    is exact where the masked value is above -inf, and the others never rank.
    NaN sorts last, so it is never ahead. Costs O(pairs + seen) after the sort.
    """
    width = row.size
    pos = np.empty(width, dtype=np.int64)
    pos[order] = np.arange(width)
    finite = np.isfinite(row)
    # each row's distinct seen items as row * width + position: sorted, a row's
    # keys are its seen items in ranked order. np.unique took 25x as long as
    # this sort on 48k keys.
    keys = np.sort(seen[0] * width + pos[seen[1]])
    keys = keys[np.diff(keys, prepend=-1) != 0]
    seen_finite = keys[finite[order[keys % width]]] // width
    eligible = np.count_nonzero(finite) - np.bincount(seen_finite, minlength=n_rows)
    at = pos[items]
    pair_keys = rows * width + at
    ahead = np.searchsorted(keys, pair_keys)
    ranks = at + 1 - (ahead - np.searchsorted(keys, rows * width))
    values = row[items]
    masked = ahead < keys.size
    masked[masked] = keys[ahead[masked]] == pair_keys[masked]
    values[masked] = -np.inf
    return values, eligible, ranks


def ranked_metrics(rows: np.ndarray, values: np.ndarray, ranks: np.ndarray, eligible: np.ndarray, cutoffs,
                   ap_mode: str):
    """Precision, recall and AP from each (row, relevant item) pair's masked
    score and rank and each row's eligible count, as eligible_and_ranks or
    shared_row_ranks count them.

    Items at -inf (padding, excluded history) or NaN never rank; +inf scores
    rank first without being eligible, and the ranking holds ``eligible``
    items. Returns the precision and recall at each cutoff, shape
    ``(len(cutoffs), rows)``, and the AP of each row.
    """
    n_rows = eligible.size
    sizes = np.bincount(rows, minlength=n_rows)
    hit = (values > -np.inf) & (ranks <= eligible[rows])
    rows, ranks = rows[hit], ranks[hit]
    order = np.lexsort((ranks, rows))
    rows, ranks = rows[order], ranks[order]

    hits = np.array([np.bincount(rows[ranks <= n], minlength=n_rows) for n in cutoffs])
    cutoff_col = np.asarray(cutoffs)[:, None]
    precision, recall = hits / cutoff_col, hits / sizes

    # AP numerator: each row's hit terms summed by np.sum, whose pairwise
    # order over more than 8 terms the rows of one 2-D sum share
    counts = np.bincount(rows, minlength=n_rows)
    starts = np.cumsum(counts) - counts
    terms = (np.arange(ranks.size) - starts[rows] + 1) / ranks
    numerator = np.zeros(n_rows)
    for h in np.unique(counts[counts > 0]).tolist():
        sel = np.flatnonzero(counts == h)
        numerator[sel] = np.sum(terms[starts[sel, None] + np.arange(h)], axis=1)
    denom = eligible if ap_mode == "paper_literal" else np.minimum(sizes, eligible)
    ap = np.divide(numerator, denom, out=np.zeros(n_rows), where=denom > 0)
    return precision, recall, ap


def _in_order_total(values: np.ndarray) -> float:
    """values[0] + values[1] + ..., left to right, as a Python float; np.sum would add pairwise."""
    return float(np.add.accumulate(values)[-1])


def evaluate_scores(
    split: SplitDataset,
    score_rows,
    cutoffs=(1, 5, 10),
    ap_mode: str = "standard",
    exclude_seen: bool = True,
    part: str = "test",
    collect_per_user: bool = False,
) -> EvalReport:
    """Average per-user metrics against the held-out part of the split.

    ``score_rows(users, histories)`` returns a writable array with one score
    row per user, with -inf at index 0 and at any item that must never rank.
    Users are scored SCORE_CHUNK at a time and ranked a block of rows at a
    time, BLOCK_ELEMENTS // (item_count + 1) rows, at least one; no users x
    items matrix is held.

    ``score_rows`` may instead be a SharedRow, one row that every user gets
    (the POP baseline): its ranks are counted from its one sort by
    shared_row_ranks, with no score block at all.

    The model and the POP baseline are both evaluated here. Users whose
    held-out part is empty are excluded from all averages.
    """
    if ap_mode not in AP_MODES:
        raise ValueError(f"ap_mode must be one of {AP_MODES}")
    if part not in ("test", "validation"):
        raise ValueError(f"part must be 'test' or 'validation', got {part!r}")
    held = split.test if part == "test" else split.validation
    users = [u for u in split.users() if held[u]]
    if not users:
        raise ValueError(f"no users with a nonempty {part} part")
    histories = [history_for(split, u, part) for u in users]
    relevant = [set(held[u]) for u in users]
    cutoffs = tuple(dict.fromkeys(cutoffs))  # a repeated cutoff is reported once

    if isinstance(score_rows, SharedRow):
        rows, items = _flat_pairs(relevant)
        seen = _flat_pairs(histories if exclude_seen else [])
        values, eligible, ranks = shared_row_ranks(score_rows.scores, score_rows.order, rows, items, seen,
                                                   len(users))
        precision, recall, ap = ranked_metrics(rows, values, ranks, eligible, cutoffs, ap_mode)
    else:
        block_rows = max(1, BLOCK_ELEMENTS // (split.item_count + 1))
        precision, recall, ap = [], [], []
        for lo in range(0, len(users), SCORE_CHUNK):
            hi = min(lo + SCORE_CHUNK, len(users))
            scores = score_rows(users[lo:hi], histories[lo:hi])
            for b in range(lo, hi, block_rows):
                e = min(b + block_rows, hi)
                block = scores[b - lo : e - lo]
                if exclude_seen:
                    block[_flat_pairs(histories[b:e])] = -np.inf
                p, r, a = metrics_for_ranking(block, relevant[b:e], cutoffs, ap_mode)
                precision.append(p)
                recall.append(r)
                ap.append(a)
        precision, recall, ap = (np.concatenate(m, axis=-1) for m in (precision, recall, ap))

    per_user = None
    if collect_per_user:
        top = cutoffs.index(max(cutoffs))
        # precision at the largest cutoff is hits / max_n, exactly, so this recovers the hit count
        hits = np.rint(precision[top] * cutoffs[top]).astype(np.int64)
        per_user = list(zip(users, ap.tolist(), hits.tolist()))
    count = len(users)
    return EvalReport(
        precision={n: _in_order_total(precision[i]) / count for i, n in enumerate(cutoffs)},
        recall={n: _in_order_total(recall[i]) / count for i, n in enumerate(cutoffs)},
        mean_ap=_in_order_total(ap) / count,
        users_evaluated=count,
        per_user=per_user,
    )


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
) -> EvalReport:
    """The model's metrics against the held-out part (see evaluate_scores).

    Each chunk's product is split into ranges of item columns, one per CPU
    (thread_budget) where the ranges are large enough; the calling thread
    scores the first range and a pool that lives as long as this call the
    others. Ranking stays on the calling thread.
    """
    # One chunk's buffer for every chunk: fresh chunk-sized arrays above
    # malloc's mmap threshold fault in new pages on each call.
    buffer = np.empty((SCORE_CHUNK, params.item_count + 1))
    # as many threads as a full chunk has ranges: a catalog too small to split has no pool
    workers = len(score_column_ranges(SCORE_CHUNK, buffer.shape[1], params.out_w.shape[1], thread_budget()))

    with ThreadPoolExecutor(workers - 1) if workers > 1 else contextlib.nullcontext() as pool:

        def score_rows(users, histories):
            return score_matrix(params, hp, histories, users, comp_mask, out=buffer[: len(users)], pool=pool,
                                workers=workers)

        return evaluate_scores(
            split, score_rows, cutoffs, ap_mode, exclude_seen, part, collect_per_user
        )
