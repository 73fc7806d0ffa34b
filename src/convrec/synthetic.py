"""Planted-pattern synthetic interaction logs.

Items are grouped into genres and each next action mixes two signals:

* personalization: a draw from the user's preferred genre cluster;
* sequence: an order-2 genre transition table built from a successor
  permutation of the previous genre (point-level), a skip map of the
  genre before it (point-level with skip), and a set of special genre
  pairs with their own joint target (union-level).

Item popularity stays near uniform, so a popularity ranker has little to
work with, a pure latent-factor model can only learn the clusters, and the
convolutional paths are needed to pick up the transition structure.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError


class Interaction(NamedTuple):
    """One generated log row; ``build_sequences(zip(*rows), n)`` reads a list of them."""

    user: str
    item: str
    timestamp: float


@dataclass(frozen=True)
class SyntheticSpec:
    num_users: int = 2000
    num_items: int = 500
    seq_len: int = 30
    num_genres: int = 50
    num_clusters: int = 10
    genres_per_cluster: int = 5
    num_special_pairs: int = 40
    p_sequential: float = 0.7
    p_successor: float = 0.75  # within the sequential draw, vs the skip map
    seed: int = 7777


def build_transition(spec: SyntheticSpec, rng: np.random.Generator):
    """Order-2 genre table as (successor permutation, skip map, pair overrides).

    Both point-level maps are permutations, so the genre chain has no
    popularity sink for a frequency ranker to exploit.
    """
    successor = rng.permutation(spec.num_genres)
    skip_map = rng.permutation(spec.num_genres)
    pair_target: dict[tuple[int, int], int] = {}
    while len(pair_target) < spec.num_special_pairs:
        g1, g2 = rng.integers(0, spec.num_genres, size=2)
        pair_target[(int(g1), int(g2))] = int(rng.integers(0, spec.num_genres))
    return successor, skip_map, pair_target


def generate_interactions(spec: SyntheticSpec = SyntheticSpec()) -> list[Interaction]:
    rng = np.random.default_rng(spec.seed)
    items_per_genre = spec.num_items // spec.num_genres
    if items_per_genre < 1:
        raise ConfigError("need at least one item per genre")
    if spec.num_clusters * spec.genres_per_cluster != spec.num_genres:
        raise ConfigError("clusters must partition the genres")

    successor, skip_map, pair_target = build_transition(spec, rng)
    # clusters partition the genres and users spread evenly across clusters,
    # keeping global item popularity close to uniform
    clusters = rng.permutation(spec.num_genres).reshape(spec.num_clusters, spec.genres_per_cluster)
    user_cluster = np.arange(spec.num_users) % spec.num_clusters

    def draw_item(genre: int) -> int:
        return int(genre * items_per_genre + rng.integers(0, items_per_genre)) + 1

    rows: list[Interaction] = []
    for u in range(spec.num_users):
        preferred = clusters[user_cluster[u]]
        genre_hist: list[int] = []
        for t in range(spec.seq_len):
            if t >= 2 and rng.random() < spec.p_sequential:
                g1, g2 = genre_hist[-2], genre_hist[-1]
                if (g1, g2) in pair_target:
                    genre = pair_target[(g1, g2)]
                elif rng.random() < spec.p_successor:
                    genre = int(successor[g2])
                else:
                    genre = int(skip_map[g1])
            else:
                genre = int(preferred[rng.integers(0, len(preferred))])
            genre_hist.append(genre)
            rows.append(Interaction(f"u{u + 1}", f"i{draw_item(genre)}", float(t)))
    return rows
