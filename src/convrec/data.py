"""Interaction ingestion, sequence building, splitting, and instance generation.

Item index 0 is reserved for padding throughout the package: its embedding is
pinned to the zero vector and it never appears as a target or negative.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

from .errors import DataError, EmptyDatasetError, ParseError, open_input

PADDING_INDEX = 0


@dataclass(frozen=True)
class Interaction:
    user: str
    item: str
    timestamp: float


@dataclass
class UserSequence:
    user_index: int
    items: list[int]


@dataclass
class SequenceData:
    """Filtered, densely indexed per-user sequences plus the id maps."""

    sequences: list[UserSequence]  # position u-1 holds user_index u
    user_ids: list[str]  # index -> original id; slot 0 unused
    item_ids: list[str]

    @property
    def user_count(self) -> int:
        return len(self.user_ids) - 1

    @property
    def item_count(self) -> int:
        return len(self.item_ids) - 1


@dataclass
class SplitDataset:
    """Per-user chronological prefix split. Slot 0 of each list is unused."""

    train: list[list[int]]
    validation: list[list[int]]
    test: list[list[int]]
    user_count: int
    item_count: int
    user_ids: list[str] = field(default_factory=list)
    item_ids: list[str] = field(default_factory=list)

    def users(self) -> range:
        return range(1, self.user_count + 1)


@dataclass(frozen=True)
class TrainingInstance:
    user: int
    prev: tuple[int, ...]  # exactly L entries, oldest first, left-padded
    targets: tuple[int, ...]  # 1..T entries


def load_interactions(path: str, fmt: str = "tsv") -> list[Interaction]:
    """Parse a UTF-8 interaction log.

    Rows are ``user item timestamp`` or ``user item rating timestamp``; the
    rating, when present, is discarded (all feedback is treated as implicit).
    Lines starting with '#' are skipped. Raises DataError if the file cannot
    be opened, ParseError with the offending line number, EmptyDatasetError
    if nothing was parsed.
    """
    if fmt not in ("tsv", "csv"):
        raise ValueError(f"format must be tsv or csv, got {fmt!r}")
    out: list[Interaction] = []
    with open_input(path, DataError) as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            cols = [c.strip() for c in stripped.split(",")] if fmt == "csv" else stripped.split()
            if len(cols) < 3:
                raise ParseError(line_no, f"expected >=3 columns, got {len(cols)}")
            if len(cols) > 4:
                raise ParseError(line_no, f"expected <=4 columns, got {len(cols)}")
            # 4-column rows carry a rating in third position; it is dropped.
            ts_text = cols[2] if len(cols) == 3 else cols[3]
            try:
                ts = float(ts_text)
            except ValueError:
                raise ParseError(line_no, f"bad timestamp {ts_text!r}") from None
            out.append(Interaction(cols[0], cols[1], ts))
    if not out:
        raise EmptyDatasetError(f"{path}: no interactions parsed")
    return out


def build_sequences(interactions: list[Interaction], min_feedback: int) -> SequenceData:
    """Deduplicate, filter cold-start users/items to fixpoint, and index densely.

    Users and items with fewer than ``min_feedback`` interactions are removed
    repeatedly until no removal changes anything, so the threshold is
    guaranteed to hold in the output. Surviving ids are numbered from 1 in
    order of first appearance; 0 stays reserved for padding.
    """
    if min_feedback < 1:
        raise ValueError("min_feedback must be >= 1")

    seen: set[tuple[str, str, float]] = set()
    rows: list[Interaction] = []
    for it in interactions:
        key = (it.user, it.item, it.timestamp)
        if key not in seen:
            seen.add(key)
            rows.append(it)

    while True:
        user_counts: dict[str, int] = {}
        item_counts: dict[str, int] = {}
        for it in rows:
            user_counts[it.user] = user_counts.get(it.user, 0) + 1
            item_counts[it.item] = item_counts.get(it.item, 0) + 1
        bad_users = {u for u, c in user_counts.items() if c < min_feedback}
        bad_items = {i for i, c in item_counts.items() if c < min_feedback}
        if not bad_users and not bad_items:
            break
        rows = [it for it in rows if it.user not in bad_users and it.item not in bad_items]
        if not rows:
            raise EmptyDatasetError("cold-start filtering removed every interaction")

    user_ids: list[str] = [""]
    item_ids: list[str] = [""]
    user_map: dict[str, int] = {}
    item_map: dict[str, int] = {}
    per_user: dict[int, list[tuple[float, int, int]]] = {}
    for pos, it in enumerate(rows):
        if it.user not in user_map:
            user_map[it.user] = len(user_ids)
            user_ids.append(it.user)
        if it.item not in item_map:
            item_map[it.item] = len(item_ids)
            item_ids.append(it.item)
        u = user_map[it.user]
        per_user.setdefault(u, []).append((it.timestamp, pos, item_map[it.item]))

    sequences = []
    for u in range(1, len(user_ids)):
        entries = sorted(per_user[u])  # timestamp, then input order for ties
        sequences.append(UserSequence(u, [e[2] for e in entries]))
    return SequenceData(sequences, user_ids, item_ids)


def _prefix_len(ratio: float, n: int) -> int:
    # ceil with a small epsilon so float noise at exact boundaries (e.g.
    # 0.8 * 5 evaluating to 4.0000000000000002) cannot shift the split
    return math.ceil(ratio * n - 1e-9)


def chronological_split(
    seqdata: SequenceData, ratios: tuple[float, float, float] = (0.7, 0.1, 0.2)
) -> SplitDataset:
    """Per-user prefix split at the ceil(70%) and ceil(80%) boundaries."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("split ratios must sum to 1")
    if any(r < 0 for r in ratios):
        raise ValueError("split ratios must be non-negative")
    n_users = seqdata.user_count
    train: list[list[int]] = [[] for _ in range(n_users + 1)]
    val: list[list[int]] = [[] for _ in range(n_users + 1)]
    test: list[list[int]] = [[] for _ in range(n_users + 1)]
    for seq in seqdata.sequences:
        items = seq.items
        n = len(items)
        c1 = _prefix_len(ratios[0], n)
        c2 = _prefix_len(ratios[0] + ratios[1], n)
        if c1 == 0:
            continue  # user without any training action is dropped
        train[seq.user_index] = items[:c1]
        val[seq.user_index] = items[c1:c2]
        test[seq.user_index] = items[c2:]
    return SplitDataset(
        train, val, test, n_users, seqdata.item_count, seqdata.user_ids, seqdata.item_ids
    )


def pad_left(items: list[int] | tuple[int, ...], length: int) -> tuple[int, ...]:
    """Left-pad with the padding index to exactly ``length`` entries."""
    if len(items) >= length:
        return tuple(items[-length:])
    return (PADDING_INDEX,) * (length - len(items)) + tuple(items)


def generate_instances(
    split: SplitDataset, order: int, num_targets: int, part: str = "train"
) -> list[TrainingInstance]:
    """Expand the split into (user, previous-L, next-T) triplets.

    Training instances come from sliding a window of ``order + num_targets``
    over each user's training prefix; a shorter prefix yields one left-padded
    instance whose targets are its last min(T, len) actions. Validation
    instances take each validation action as a target start and draw history
    from the training prefix plus earlier validation actions.
    """
    if order < 1 or num_targets < 1:
        raise ValueError("order and num_targets must be >= 1")
    if part not in ("train", "validation"):
        raise ValueError(f"part must be train or validation, got {part!r}")
    L, T = order, num_targets
    out: list[TrainingInstance] = []
    for u in split.users():
        if part == "train":
            seq = split.train[u]
            n = len(seq)
            if n == 0:
                continue
            if n >= L + T:
                for off in range(n - L - T + 1):
                    out.append(
                        TrainingInstance(
                            u, tuple(seq[off : off + L]), tuple(seq[off + L : off + L + T])
                        )
                    )
            else:
                k = min(T, n)
                out.append(TrainingInstance(u, pad_left(seq[: n - k], L), tuple(seq[n - k :])))
        else:
            body = split.validation[u]
            if not body:
                continue
            full = split.train[u] + body
            start = len(split.train[u])
            for t in range(start, len(full)):
                prev = pad_left(full[max(0, t - L) : t], L)
                out.append(TrainingInstance(u, prev, tuple(full[t : t + T])))
    return out


_SPLIT_KEYS = ("user_count", "item_count", "user_ids", "item_ids", "train", "validation", "test")


def save_split(path: str, split: SplitDataset) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({k: getattr(split, k) for k in _SPLIT_KEYS}, fh)


def load_split(path: str) -> SplitDataset:
    """Read a split written by save_split.

    Raises DataError when the file is missing or not JSON, a key is missing,
    the id maps or the per-user lists do not match the user and item
    counts, or an entry of train, validation or test is not a list of item
    ids in 1..item_count.
    """
    with open_input(path, DataError) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise DataError(f"{path}: not a JSON split file ({exc})") from None
    missing = [k for k in _SPLIT_KEYS if not isinstance(payload, dict) or k not in payload]
    if missing:
        raise DataError(f"{path}: split is missing {', '.join(missing)}")
    split = SplitDataset(**{k: payload[k] for k in _SPLIT_KEYS})
    _check_split(path, split)
    return split


def _check_split(path: str, split: SplitDataset) -> None:
    users, items = split.user_count, split.item_count
    if type(users) is not int or type(items) is not int or min(users, items) < 1:
        raise DataError(f"{path}: user_count and item_count must be integers >= 1")
    for key, length in (("user_ids", users + 1), ("item_ids", items + 1), ("train", users + 1),
                        ("validation", users + 1), ("test", users + 1)):
        if not isinstance(getattr(split, key), list) or len(getattr(split, key)) != length:
            raise DataError(f"{path}: {key} must be a list of {length} entries")
    seqs = list(itertools.chain(split.train, split.validation, split.test))
    try:
        # set lookups keep the pass over every id in C; a Python loop cost as much as the parse
        if set(map(type, seqs)) == {list} and set(range(1, items + 1)).issuperset(itertools.chain(*seqs)):
            return
    except TypeError:  # an unhashable id, such as a nested list
        pass
    raise DataError(f"{path}: train, validation and test must be lists of item ids in 1..{items}")


def history_for(split: SplitDataset, user: int, part: str = "test") -> list[int]:
    """Items known before the evaluated part: train (+ validation for test)."""
    if part == "test":
        return split.train[user] + split.validation[user]
    return split.train[user]
