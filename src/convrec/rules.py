"""Sequential association rules with skip steps, and the intensity statistic.

A rule is a contiguous antecedent window followed, exactly ``skip + 1``
positions after its end, by a single consequent item. Support counts
sequences (at most one count per sequence regardless of repeats inside it);
confidence is support(rule) / support(antecedent).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ItemLists, run_starts
from .errors import ConfigError


@dataclass(frozen=True)
class Rule:
    antecedent: tuple[int, ...]
    consequent: int
    skip: int
    support: int
    confidence: float


@dataclass(frozen=True)
class MiningConfig:
    """The defaults are the paper's setting for sequential intensity."""

    max_order: int = 5
    max_skip: int = 0
    minsup: int = 5
    minconf: float = 0.5

    def __post_init__(self):
        if self.max_order < 1:
            raise ConfigError("max_order must be >= 1")
        if self.max_skip < 0:
            raise ConfigError("max_skip must be >= 0")
        if self.minsup < 1:
            raise ConfigError("minsup must be >= 1")
        if not 0.0 < self.minconf <= 1.0:
            raise ConfigError("minconf must lie in (0, 1]")


def mine_rules(sequences, cfg: MiningConfig) -> list[Rule]:
    """All rules meeting the support and confidence thresholds.

    ``sequences`` is ItemLists or one item list per sequence. Item ids must
    be integers within int64, as ``Rule`` declares; any other item, or no
    sequence at all, raises ConfigError.

    Antecedents grow one length at a time over arrays of occurrences: each
    occurrence is a pattern code and the flat position of the pattern's last
    item, with the sequences laid end to end. The occurrences stay ordered by
    (pattern, position) and pattern codes follow the order of the antecedent
    tuples, so each grouping is one stable sort and a pass of differences.
    Since the sequence support of a contiguous pattern can only shrink when
    the pattern grows, an antecedent below minsup is dropped together with
    its whole subtree.
    """
    seqs = ItemLists.of(sequences)
    if not len(seqs):
        raise ConfigError("sequences must be nonempty")
    seq_of, flat = seqs.pairs()
    if not flat.size:
        return []
    room = np.repeat(seqs.offsets[1:], seqs.lengths) - np.arange(flat.size) - 1  # positions after each one

    # length 1: every position, in (item, position) order; an item's code is its place among the distinct items
    end = np.argsort(flat, kind="stable")
    first = run_starts(flat[end])
    ids = flat[end[first]]
    pat = np.cumsum(first) - 1  # the item code at each position of end
    code = np.empty_like(pat)
    code[end] = pat
    sup_x = np.bincount(pat[run_starts(pat, seq_of[end])], minlength=ids.size)
    antecedents = np.arange(ids.size)[:, None]  # item codes of each pattern

    rules: list[Rule] = []
    for _ in range(cfg.max_order):
        kept = sup_x >= cfg.minsup
        antecedents, sup_x = antecedents[kept], sup_x[kept]
        has_next = kept[pat] & (room[end] > 0)
        pat, end = (np.cumsum(kept) - 1)[pat[has_next]], end[has_next]
        if not pat.size:
            break
        found = []
        room_end = room[end]
        for skip in range(cfg.max_skip + 1):
            reach = room_end > skip
            s_pat, s_end = pat[reach], end[reach]
            if not s_pat.size:
                break
            cons = code[s_end + skip + 1]
            # both codes lie below len(flat), so the key fits int64 up to about 3.0e9 items
            order = np.argsort(s_pat * ids.size + cons, kind="stable")
            s_pat, s_end, cons = s_pat[order], s_end[order], cons[order]
            first = run_starts(s_pat, cons)
            starts = np.flatnonzero(first)
            # sequences per group: count the first row of each (group, sequence) run
            support = np.add.reduceat(first | run_starts(seq_of[s_end]), starts, dtype=np.int64)
            g_pat, g_cons = s_pat[starts], cons[starts]
            conf = support / sup_x[g_pat]
            hit = (support >= cfg.minsup) & (conf >= cfg.minconf)
            found.append((g_pat[hit], g_cons[hit], np.full(hit.sum(), skip), support[hit], conf[hit]))
            if skip == 0:
                # each (antecedent, consequent) group is a pattern one item longer,
                # and its skip-0 support is that pattern's support
                sizes = np.diff(np.append(starts, s_end.size))
                extended = (np.column_stack([antecedents[g_pat], g_cons]), support,
                            np.repeat(np.arange(starts.size), sizes), s_end + 1)
        rules.extend(_to_rules(ids, antecedents, *map(np.concatenate, zip(*found))))
        antecedents, sup_x, pat, end = extended
    return rules


def _to_rules(ids, antecedents, pat, cons, skip, support, conf) -> list[Rule]:
    """Rules of one antecedent length, ordered by (antecedent, skip, consequent)."""
    order = np.lexsort((cons, skip, pat))
    ante = ids[antecedents[pat[order]]].tolist()
    return [
        Rule(tuple(a), c, s, n, f)
        for a, c, s, n, f in zip(ante, ids[cons[order]].tolist(), skip[order].tolist(),
                                 support[order].tolist(), conf[order].tolist())
    ]


def sequential_intensity(sequences) -> float:
    """Mined-rule count divided by the number of sequences (users), with the paper's setting."""
    seqs = ItemLists.of(sequences)
    if not len(seqs):
        raise ConfigError("user count must be >= 1")
    return len(mine_rules(seqs, MiningConfig())) / len(seqs)


def rules_to_csv(rules: list[Rule], item_ids: list[str]) -> str:
    """CSV dump with the items' original ids; antecedent items joined with '|'."""
    lines = ["antecedent,consequent,skip,support,confidence"]
    for r in rules:
        ante = "|".join(item_ids[i] for i in r.antecedent)
        lines.append(f"{ante},{item_ids[r.consequent]},{r.skip},{r.support},{r.confidence:.6f}")
    return "\n".join(lines) + "\n"
