"""Sequential association rules with skip steps, and the intensity statistic.

A rule is a contiguous antecedent window followed, exactly ``skip + 1``
positions after its end, by a single consequent item. Support counts
sequences (at most one count per sequence regardless of repeats inside it);
confidence is support(rule) / support(antecedent).
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rule:
    antecedent: tuple[int, ...]
    consequent: int
    skip: int
    support: int
    confidence: float


@dataclass(frozen=True)
class MiningConfig:
    max_order: int = 5
    max_skip: int = 0
    minsup: int = 5
    minconf: float = 0.5

    def __post_init__(self):
        if self.max_order < 1:
            raise ValueError("max_order must be >= 1")
        if self.max_skip < 0:
            raise ValueError("max_skip must be >= 0")
        if self.minsup < 1:
            raise ValueError("minsup must be >= 1")
        if not 0.0 < self.minconf <= 1.0:
            raise ValueError("minconf must lie in (0, 1]")


def mine_rules(sequences, cfg: MiningConfig) -> list[Rule]:
    """All rules meeting the support and confidence thresholds.

    Antecedents are grown by prefix extension; since the sequence support of
    a contiguous pattern can only shrink when the pattern grows, any
    antecedent below minsup is pruned together with its whole subtree.
    """
    seqs = [list(seq) for seq in sequences]
    if not seqs:
        raise ValueError("sequences must be nonempty")

    # occurrence index for single items: pattern -> {seq id -> [end positions]}
    occurrences: dict[tuple[int, ...], dict[int, list[int]]] = {}
    for sid, seq in enumerate(seqs):
        for pos, item in enumerate(seq):
            occurrences.setdefault((item,), {}).setdefault(sid, []).append(pos)

    rules: list[Rule] = []
    frontier = [(pat, occ) for pat, occ in occurrences.items() if len(occ) >= cfg.minsup]
    while frontier:
        pattern, occ = frontier.pop()
        sup_x = len(occ)
        # emit rules for this antecedent
        for skip in range(cfg.max_skip + 1):
            counts: dict[int, set[int]] = {}
            for sid, ends in occ.items():
                seq = seqs[sid]
                for end in ends:
                    follow = end + skip + 1
                    if follow < len(seq):
                        counts.setdefault(seq[follow], set()).add(sid)
            for consequent, sids in counts.items():
                sup_xy = len(sids)
                conf = sup_xy / sup_x
                if sup_xy >= cfg.minsup and conf >= cfg.minconf:
                    rules.append(Rule(pattern, consequent, skip, sup_xy, conf))
        # extend the antecedent by one item
        if len(pattern) < cfg.max_order:
            children: dict[tuple[int, ...], dict[int, list[int]]] = {}
            for sid, ends in occ.items():
                seq = seqs[sid]
                for end in ends:
                    if end + 1 < len(seq):
                        child = pattern + (seq[end + 1],)
                        children.setdefault(child, {}).setdefault(sid, []).append(end + 1)
            frontier.extend((pat, c) for pat, c in children.items() if len(c) >= cfg.minsup)

    rules.sort(key=lambda r: (len(r.antecedent), r.antecedent, r.skip, r.consequent))
    return rules


def sequential_intensity(sequences, cfg: MiningConfig | None = None) -> float:
    """Mined-rule count divided by the number of sequences (users)."""
    seqs = [list(seq) for seq in sequences]
    if not seqs:
        raise ValueError("user count must be >= 1")
    if cfg is None:
        cfg = MiningConfig(max_order=5, max_skip=0, minsup=5, minconf=0.5)
    return len(mine_rules(seqs, cfg)) / len(seqs)


def rules_to_csv(rules: list[Rule], item_ids: list[str] | None = None) -> str:
    """CSV dump; antecedent items joined with '|'."""

    def name(idx: int) -> str:
        return item_ids[idx] if item_ids else str(idx)

    lines = ["antecedent,consequent,skip,support,confidence"]
    for r in rules:
        ante = "|".join(name(i) for i in r.antecedent)
        lines.append(f"{ante},{name(r.consequent)},{r.skip},{r.support},{r.confidence:.6f}")
    return "\n".join(lines) + "\n"
