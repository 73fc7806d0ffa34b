import struct
from pathlib import Path

import numpy as np
import pytest

from convrec.config import HyperParams
from convrec.data import SplitDataset, build_sequences, chronological_split
from convrec.model import init_params
from convrec.synthetic import SyntheticSpec, generate_interactions


@pytest.fixture(scope="session")
def tiny_hp() -> HyperParams:
    return HyperParams(
        latent_dim=6,
        order=4,
        num_targets=2,
        heights=(1, 2, 4),
        num_h_filters=2,
        num_v_filters=2,
        dropout=0.0,
        l2=0.0,
        lr=1e-3,
        num_negatives=3,
    )


@pytest.fixture(scope="session")
def tiny_split() -> SplitDataset:
    """Small planted-pattern dataset: 80 users, 120 items, length 20."""
    rows = generate_interactions(
        SyntheticSpec(num_users=80, num_items=120, seq_len=20, num_genres=10,
                      num_clusters=5, genres_per_cluster=2, num_special_pairs=8, seed=97)
    )
    return chronological_split(build_sequences(zip(*rows), 1))


def pad_left(items, length: int) -> tuple[int, ...]:
    """Reference window: the last ``length`` items, left-padded with the padding index 0."""
    items = tuple(items)[-length:]
    return (0,) * (length - len(items)) + items


# 150 users on the 50000-item generator see 2,891 items: with latent_dim 64
# the Adam buffer holds more than two parts of training.ADAM_MIN_PART
LARGE_HP = HyperParams(latent_dim=64, order=3, num_targets=1, heights=(1, 2, 3), num_h_filters=2,
                       num_v_filters=1, dropout=0.3, l2=1e-6, lr=1e-3)


@pytest.fixture(scope="session")
def large_split() -> SplitDataset:
    rows = generate_interactions(SyntheticSpec(num_users=150, num_items=50000, seq_len=20, seed=3))
    return chronological_split(build_sequences(zip(*rows), 1))


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs for this process, whatever the machine has; CASER_THREADS unset."""
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delenv("CASER_THREADS", raising=False)


@pytest.fixture
def tiny_params(tiny_hp, tiny_split):
    rng = np.random.default_rng(123)
    params = init_params(tiny_hp, tiny_split.user_count, tiny_split.item_count, rng)
    # random biases so bias terms participate in oracle comparisons
    params.fc_b[:] = rng.normal(scale=0.2, size=params.fc_b.shape)
    params.out_b[1:] = rng.normal(scale=0.2, size=tiny_split.item_count)
    return params


# The split file's layout, read here independently of convrec.data
SPLIT_HEADER = ("magic", "version", "users", "items", "user_bytes", "item_bytes", "train", "validation", "test")
SPLIT_ARRAYS = ("user_offsets", "item_offsets", "train_offsets", "validation_offsets", "test_offsets",
                "train", "validation", "test")


def _rewrite_split(src, dst, corrupt) -> None:
    """Copy a split file after ``corrupt(header, sections)`` edits it.

    ``header`` maps the header fields to their values; ``sections`` maps each
    int32 array to a list of ints and each id block ("user_ids", "item_ids")
    to a bytearray. The header is written as edited, not recomputed.
    """
    raw = Path(src).read_bytes()
    header = dict(zip(SPLIT_HEADER, struct.unpack_from("<4s8I", raw)))
    users, items = header["users"], header["items"]
    counts = [users + 2, items + 2] + [users + 2] * 3 + [header[p] for p in ("train", "validation", "test")]
    ints = np.frombuffer(raw, "<i4", sum(counts), offset=36)
    sections = {name: arr.tolist() for name, arr in zip(SPLIT_ARRAYS, np.split(ints, np.cumsum(counts)[:-1]))}
    blocks = raw[36 + 4 * sum(counts):]
    sections["user_ids"] = bytearray(blocks[: header["user_bytes"]])
    sections["item_ids"] = bytearray(blocks[header["user_bytes"]:])
    corrupt(header, sections)
    out = [struct.pack("<4s8I", *header.values())]
    out += [np.asarray(sections[name], "<i4").tobytes() for name in SPLIT_ARRAYS if name in sections]
    out += [bytes(sections[name]) for name in ("user_ids", "item_ids") if name in sections]
    Path(dst).write_bytes(b"".join(out))


@pytest.fixture
def rewrite_split():
    return _rewrite_split
