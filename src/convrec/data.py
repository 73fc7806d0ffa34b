"""Interaction ingestion, sequence building, splitting, and instance generation.

Item index 0 is reserved for padding throughout the package: its embedding is
pinned to the zero vector and it never appears as a target or negative.
"""
from __future__ import annotations

import itertools
import math
import operator
import os
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, EmptyDatasetError, ParseError, open_input

PADDING_INDEX = 0
# the Caser protocol's split of each user's actions, oldest first; the test part takes the last 20%
TRAIN_SHARE, VALIDATION_SHARE = 0.7, 0.1


class Interactions(NamedTuple):
    """A parsed log as three aligned columns, one entry per row in file order."""

    users: list[str]
    items: list[str]
    timestamps: np.ndarray  # float64


class Ragged:
    """Runs laid end to end: run s is ``flat[offsets[s]:offsets[s + 1]]``, made a Python value only when read."""

    def __init__(self, flat, offsets: np.ndarray):
        self.flat, self.offsets, self.lengths = flat, offsets, np.diff(offsets)

    def __len__(self) -> int:
        return self.lengths.size

    def __getitem__(self, index):
        s = range(len(self))[index]
        return self._run(self.flat[self.offsets[s] : self.offsets[s + 1]])

    def __iter__(self):
        flat, bounds = self._run(self.flat), self.offsets.tolist()
        return (flat[a:b] for a, b in zip(bounds, bounds[1:]))

    def __eq__(self, other):
        same = type(other) is type(self) and np.array_equal(self.offsets, other.offsets)
        return same and self._equal(self.flat, other.flat)


class ItemLists(Ragged):
    """Item lists laid end to end in one int64 array; a list of ints when read."""

    _run, _equal = staticmethod(np.ndarray.tolist), staticmethod(np.array_equal)

    @classmethod
    def of(cls, seqs) -> "ItemLists":
        """``seqs`` if it is ItemLists, else its lists; an item that is not an integer within int64 raises ConfigError."""
        if isinstance(seqs, ItemLists):
            return seqs
        seqs = list(seqs)
        offsets = np.append(0, np.cumsum(np.fromiter(map(len, seqs), np.int64, len(seqs))))
        try:
            flat = np.fromiter(map(operator.index, itertools.chain.from_iterable(seqs)), np.int64, offsets[-1])
        except (TypeError, OverflowError):
            raise ConfigError("item ids must be integers within int64") from None
        return cls(flat, offsets)

    def span(self, lo: int, hi: int) -> "ItemLists":
        """Lists lo..hi-1, as views."""
        return ItemLists(self.flat[self.offsets[lo] : self.offsets[hi]], self.offsets[lo : hi + 1] - self.offsets[lo])

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The (list, item) pair of every item, list by list."""
        return np.repeat(np.arange(len(self)), self.lengths), self.flat

    def distinct(self) -> "ItemLists":
        """Each list's distinct items, ascending."""
        width = int(self.flat.max(initial=0)) + 1
        keys = np.sort(self.pairs()[0] * width + self.flat)  # np.unique took 18x as long on 12k keys
        keys = keys[run_starts(keys)]
        return ItemLists(keys % width, np.append(0, np.cumsum(np.bincount(keys // width, minlength=len(self)))))

    def last(self, length: int) -> np.ndarray:
        """(lists, length): each list's last ``length`` items, left-padded with PADDING_INDEX."""
        at = self.offsets[1:, None] - length + np.arange(length)
        return np.append(PADDING_INDEX, self.flat)[np.where(at >= self.offsets[:-1, None], at + 1, 0)]


class Ids(Ragged):
    """Ids laid end to end in one str, offsets counting code points; a str when read."""

    _run, _equal = staticmethod(str), staticmethod(operator.eq)

    @classmethod
    def of(cls, names) -> "Ids":
        if isinstance(names, Ids):
            return names
        names = list(names)
        return cls("".join(names), np.append(0, np.cumsum(np.fromiter(map(len, names), np.int64, len(names)))))

    def index(self, name: str, start: int = 0) -> int:
        """The first slot from ``start`` on that holds ``name``, as list.index finds it; ValueError if none does."""
        slots = np.flatnonzero(self.lengths[start:] == len(name)) + start  # only an id of its length can be it
        return int(slots[[self.flat[a : a + len(name)] for a in self.offsets[slots].tolist()].index(name)])


class SequenceData(NamedTuple):
    """Filtered, densely indexed sequences: seqs[u] is user u's items, oldest first; slot 0 (user 0) is empty."""

    seqs: ItemLists
    user_ids: Ids  # index -> original id; slot 0 is ""
    item_ids: Ids


def _runs(flat: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> ItemLists:
    """ItemLists whose list k is ``flat[starts[k] : starts[k] + lengths[k]]``."""
    offsets = np.append(0, np.cumsum(lengths))
    return ItemLists(flat[np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1])], offsets)


def joined(parts: list[ItemLists], slots: np.ndarray) -> ItemLists:
    """List k holds the items of list ``slots[k]`` of each of ``parts`` in turn."""
    starts = [p.offsets[slots] + base for p, base in zip(parts, np.cumsum([0] + [p.flat.size for p in parts]))]
    lengths = np.column_stack([p.lengths[slots] for p in parts]).ravel()
    runs = _runs(np.concatenate([p.flat for p in parts]), np.column_stack(starts).ravel(), lengths)
    return ItemLists(runs.flat, runs.offsets[:: len(parts)])


@dataclass
class SplitDataset:
    """Per-user chronological prefix split: one item list per user in each part, slot 0 (user 0) unused and
    empty. Lists given for a part or an id list are turned into ItemLists or Ids here, once."""

    train: ItemLists
    validation: ItemLists
    test: ItemLists
    user_count: int
    item_count: int
    user_ids: Ids = field(default_factory=list)
    item_ids: Ids = field(default_factory=list)

    def __post_init__(self):
        self.train, self.validation, self.test = map(ItemLists.of, (self.train, self.validation, self.test))
        self.user_ids, self.item_ids = map(Ids.of, (self.user_ids, self.item_ids))

    def users(self) -> range:
        return range(1, self.user_count + 1)

    def users_with(self, *parts: ItemLists) -> np.ndarray:
        """The users, ascending, with an item in any of ``parts``."""
        return np.flatnonzero(sum(p.lengths[1 : self.user_count + 1] for p in parts)) + 1


@dataclass(frozen=True)
class TrainingInstances:
    """(user, previous-L, next-T) triplets as aligned arrays, one row per instance."""

    prev: np.ndarray  # (n, L) int64, oldest first, left-padded with PADDING_INDEX
    users: np.ndarray  # (n,) int64
    targets: np.ndarray  # (n, T) int64, right-padded with PADDING_INDEX
    target_mask: np.ndarray  # (n, T) float64, 1.0 where targets holds an item

    def __len__(self) -> int:
        return self.users.size


def load_interactions(path: str, fmt: str = "tsv") -> Interactions:
    """Parse a UTF-8 interaction log.

    Rows are ``user item timestamp`` or ``user item rating timestamp``; the
    rating, when present, is discarded (all feedback is treated as implicit).
    Lines starting with '#' are skipped. Only \\n, \\r\\n and \\r end a line.
    Raises ConfigError for a ``fmt`` other than tsv or csv, DataError if the
    file cannot be opened or is not UTF-8, ParseError with the offending line
    number (also for a timestamp that is not finite), EmptyDatasetError if
    nothing was parsed.
    """
    if fmt not in ("tsv", "csv"):
        raise ConfigError(f"format must be tsv or csv, got {fmt!r}")
    with open_input(path, DataError) as fh:
        try:
            # text mode turns \r\n and \r into \n, as iterating the file would; str.splitlines() would
            # also break at \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029
            lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    users, items, stamps = [], [], []
    for line_no, line in enumerate(lines, start=1):
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
        if not math.isfinite(ts):  # NaN would defeat deduplication and sort arbitrarily
            raise ParseError(line_no, f"timestamp {ts_text!r} is not finite")
        users.append(cols[0])
        items.append(cols[1])
        stamps.append(ts)
    if not stamps:
        raise EmptyDatasetError(f"{path}: no interactions parsed")
    return Interactions(users, items, np.fromiter(stamps, np.float64, len(stamps)))


def _renumber(codes: np.ndarray, names) -> tuple[np.ndarray, Ids]:
    """Code -> index from 1 in order of first appearance in ``codes``, and index -> name with slot 0 empty."""
    at = np.arange(codes.size)
    first = np.full(len(names), codes.size)
    np.minimum.at(first, codes, at)  # np.unique plus an argsort took 7x as long on a 60k-row log
    present = codes[first[codes] == at]  # each code at its first row
    index = np.zeros(len(names), np.int64)
    index[present] = np.arange(1, present.size + 1)
    return index, Ids.of(["", *map(names.__getitem__, present.tolist())])


def run_starts(*keys: np.ndarray) -> np.ndarray:
    """True where a row starts a run of equal (key, ...) rows: on sorted keys, the first of each distinct row."""
    first = np.zeros(keys[0].size, dtype=bool)
    first[:1] = True
    for key in keys:
        first[1:] |= key[1:] != key[:-1]
    return first


def _distinct_rows(pair: np.ndarray, ts: np.ndarray, by_time: np.ndarray) -> np.ndarray:
    """The first of each set of rows equal in (user, item) code pair and timestamp, in input order."""
    order = by_time[np.argsort(pair[by_time], kind="stable")]  # equal rows side by side, in input order
    return np.sort(order[run_starts(pair[order], ts[order])])


def build_sequences(interactions, min_feedback: int) -> SequenceData:
    """Deduplicate, filter cold-start users/items to fixpoint, and index densely.

    ``interactions`` is the three columns of ``Interactions`` or any three aligned sequences, such as
    ``zip(*rows)``. Rows equal in user, item and timestamp count once. Users and items with fewer than
    ``min_feedback`` rows are removed until a pass removes nothing, so the threshold holds in the output.
    Survivors are numbered from 1 (0 is padding) in order of first appearance; each user's items are
    ordered by timestamp, ties in input order. A ``min_feedback`` below 1 raises ConfigError.
    """
    if min_feedback < 1:
        raise ConfigError(f"min_feedback must be >= 1, got {min_feedback}")
    users, items, timestamps = interactions
    n = len(users)
    # a row's user (item) code is the first row that holds the same user (item)
    user, item = (np.fromiter(map({}.setdefault, names, range(n)), np.int64, n) for names in (users, items))
    # + 0.0 turns -0.0 into 0.0, so the sorts and comparisons below see one zero
    ts = np.asarray(timestamps, dtype=np.float64) + 0.0
    by_time = np.argsort(ts, kind="stable")  # ties keep input order
    rows = _distinct_rows(user * n + item, ts, by_time)
    while True:
        u, i = user[rows], item[rows]
        keep = (np.bincount(u, minlength=n)[u] >= min_feedback) & (np.bincount(i, minlength=n)[i] >= min_feedback)
        if keep.all():
            break
        rows = rows[keep]
        if not rows.size:
            raise EmptyDatasetError("cold-start filtering removed every interaction")

    user_index, user_ids = _renumber(user[rows], users)
    item_index, item_ids = _renumber(item[rows], items)
    timeline = by_time[np.bincount(rows, minlength=n)[by_time] > 0]  # the survivors by timestamp
    owner = user_index[user[timeline]]
    order = timeline[np.argsort(owner, kind="stable")]  # by user, then timestamp, then input order
    offsets = np.append(0, np.cumsum(np.bincount(owner, minlength=len(user_ids))))  # owner 0 has no items
    return SequenceData(ItemLists(item_index[item[order]], offsets), user_ids, item_ids)


def chronological_split(seqdata: SequenceData) -> SplitDataset:
    """Per-user prefix split at the ceil(70%) and ceil(80%) boundaries: train, validation, test."""
    seqs, user_ids, item_ids = seqdata
    start, end = seqs.offsets[:-1], seqs.offsets[1:]
    # ceil with a small epsilon so float noise at exact boundaries (e.g.
    # 0.8 * 5 evaluating to 4.0000000000000002) cannot shift the split
    c1, c2 = (start + np.ceil(r * (end - start) - 1e-9).astype(np.int64)
              for r in (TRAIN_SHARE, TRAIN_SHARE + VALIDATION_SHARE))
    bounds = [start, c1, c2, end]  # slot 0, the unused user 0, is empty in seqs and so in each part
    parts = [_runs(seqs.flat, a, b - a) for a, b in zip(bounds, bounds[1:])]
    return SplitDataset(*parts, len(seqs) - 1, len(item_ids) - 1, user_ids, item_ids)


def generate_instances(
    split: SplitDataset, order: int, num_targets: int, part: str = "train"
) -> TrainingInstances:
    """Expand the training prefixes into (user, previous-L, next-T) triplets.

    A window of ``order + num_targets`` slides over each user's training
    prefix; a shorter prefix yields one left-padded instance whose targets
    are its last min(T, len) actions. Every window of every user is read
    with one gather from the padded prefixes laid end to end. An order or
    num_targets below 1, or a part other than "train", raises ConfigError.
    """
    if order < 1 or num_targets < 1:
        raise ConfigError("order and num_targets must be >= 1")
    if part != "train":
        raise ConfigError(f"part must be train, got {part!r}")
    L, T = order, num_targets
    users = split.users_with(split.train)
    prefixes = joined([split.train], users)
    n = prefixes.lengths
    # left-pad each prefix to at least one window; a prefix shorter than T
    # becomes L padding items, the prefix, and padding up to T targets
    width = np.maximum(n, L + T)
    windows = width - (L + T) + 1
    begin = np.cumsum(width) - width  # where each padded prefix starts
    flat = np.zeros(width.sum(), np.int64)
    left = np.where(n >= T, width - n, L)  # padding before each prefix
    flat[np.repeat(begin + left - prefixes.offsets[:-1], n) + np.arange(n.sum())] = prefixes.flat
    starts = np.repeat(begin - (np.cumsum(windows) - windows), windows)
    gathered = flat[(starts + np.arange(starts.size))[:, None] + np.arange(L + T)]
    targets = gathered[:, L:]
    return TrainingInstances(
        gathered[:, :L], np.repeat(users, windows), targets, (targets != PADDING_INDEX).astype(np.float64)
    )


# Split file, little-endian (README "Split files"): header, the int32 offset
# and item id arrays, then the user and item ids as two UTF-8 blocks.
SPLIT_MAGIC, SPLIT_VERSION = b"CSPL", 1
_HEADER = struct.Struct("<4s8I")  # magic, version, users, items, 2 id block bytes, 3 part lengths


def save_split(path: str, split: SplitDataset) -> None:
    blocks = [ids.flat.encode("utf-8") for ids in (split.user_ids, split.item_ids)]
    parts = [split.train, split.validation, split.test]
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(SPLIT_MAGIC, SPLIT_VERSION, split.user_count, split.item_count,
                              *map(len, blocks), *(p.flat.size for p in parts)))
        for runs in [split.user_ids, split.item_ids, *parts]:
            fh.write(runs.offsets.astype("<i4"))
        for part in parts:
            fh.write(part.flat.astype("<i4"))
        fh.writelines(blocks)


def load_split(path: str) -> SplitDataset:
    """Read a split written by save_split. Raises DataError when the file is missing or not a binary
    split of this version (a JSON split included), the header's sections do not fill it exactly
    (checked before anything past the header is read), an id block is not UTF-8, an offset array
    does not rise from 0 to the length of its section, or an item id lies outside 1..item_count."""
    refresh = "; re-run `convrec prepare` to write it"
    with open_input(path, DataError, "rb") as fh:
        head = fh.read(_HEADER.size)
        if head[:4] != SPLIT_MAGIC or len(head) < _HEADER.size:
            raise DataError(f"{path}: not a binary split file{refresh}")
        _, version, users, items, user_bytes, item_bytes, *part_lens = _HEADER.unpack(head)
        if version != SPLIT_VERSION:
            raise DataError(f"{path}: unsupported split version {version}{refresh}")
        if min(users, items) < 1:
            raise DataError(f"{path}: user_count and item_count must be >= 1")
        # int32 counts: user id offsets, item id offsets, three part offsets, three parts' item ids
        ends = list(itertools.accumulate([users + 2, items + 2] + [users + 2] * 3 + part_lens))
        need, size = _HEADER.size + 4 * ends[-1] + user_bytes + item_bytes, os.fstat(fh.fileno()).st_size
        if need != size:
            raise DataError(f"{path}: the header's sections take {need} bytes, the file has {size}")
        body = fh.read()
    ints = np.frombuffer(body, "<i4", ends[-1]).astype(np.int64)
    user_off, item_off, *part_offs = np.split(ints[: ends[4]], ends[:4])
    blocks = body[4 * ends[-1] :]
    try:
        user_text, item_text = blocks[:user_bytes].decode("utf-8"), blocks[user_bytes:].decode("utf-8")
    except UnicodeDecodeError:
        raise DataError(f"{path}: an id block is not UTF-8") from None
    # id offsets count code points, so one decode checks a block and an id is one slice of it
    for off, end in zip([user_off, item_off, *part_offs], [len(user_text), len(item_text), *part_lens]):
        if off[0] != 0 or off[-1] != end or np.any(off[1:] < off[:-1]):
            raise DataError(f"{path}: an offset array does not rise from 0 to the length of its section")
    flat = ints[ends[4] :]  # the item ids of train, validation and test, end to end
    if flat.size and (flat.min() < 1 or flat.max() > items):
        raise DataError(f"{path}: train, validation and test must hold item ids in 1..{items}")
    parts = np.split(flat, [part_lens[0], part_lens[0] + part_lens[1]])
    return SplitDataset(*map(ItemLists, parts, part_offs), users, items, Ids(user_text, user_off), Ids(item_text, item_off))
