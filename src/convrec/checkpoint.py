"""Binary checkpoint format: magic, version, hyperparameters, tensors.

Layout (all integers little-endian u32, floats little-endian f64):

    b"CASR" | version | hp_json_len | hp_json
    tensor_count
    per tensor: name_len | name | ndim | dims... | row-major data

Round trips are bit-exact.
"""
from __future__ import annotations

import dataclasses
import json
import struct

import numpy as np

from .config import HyperParams
from .errors import CheckpointError, open_input
from .model import ModelParams

MAGIC = b"CASR"
VERSION = 1


def save_checkpoint(path: str, params: ModelParams, hp: HyperParams) -> None:
    hp_json = json.dumps(dataclasses.asdict(hp)).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(hp_json)))
        fh.write(hp_json)
        tensors = list(params.tensors())
        fh.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors:
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read(fh, size: int, path: str) -> bytes:
    buf = fh.read(size)
    if len(buf) != size:
        raise CheckpointError(f"{path}: truncated checkpoint")
    return buf


def load_checkpoint(path: str, expect_hp: HyperParams | None = None) -> tuple[ModelParams, HyperParams]:
    """Load and validate a checkpoint.

    With ``expect_hp`` set, the stored hyperparameters must agree on every
    field that determines tensor shapes.
    """
    with open_input(path, CheckpointError, "rb") as fh:
        if _read(fh, 4, path) != MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a checkpoint")
        (version,) = struct.unpack("<I", _read(fh, 4, path))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        (hp_len,) = struct.unpack("<I", _read(fh, 4, path))
        try:
            hp_dict = json.loads(_read(fh, hp_len, path).decode("utf-8"))
            hp_dict["heights"] = tuple(hp_dict.get("heights") or ())
            hp = HyperParams(**hp_dict)
        except (ValueError, TypeError) as exc:
            raise CheckpointError(f"{path}: bad hyperparameter block ({exc})") from exc

        tensors: dict[str, np.ndarray] = {}
        (count,) = struct.unpack("<I", _read(fh, 4, path))
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read(fh, 4, path))
            name = _read(fh, name_len, path).decode("utf-8")
            (ndim,) = struct.unpack("<I", _read(fh, 4, path))
            shape = struct.unpack(f"<{ndim}I", _read(fh, 4 * ndim, path))
            try:
                arr = tensors[name] = np.empty(shape, dtype="<f8")
            except (ValueError, MemoryError):
                raise CheckpointError(f"{path}: cannot allocate tensor {name} of shape {shape}") from None
            if fh.readinto(arr) != arr.nbytes:  # straight into the array, without a bytes copy
                raise CheckpointError(f"{path}: truncated checkpoint")
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after tensors")

    h_names = sorted((n for n in tensors if n.startswith("h_filters.")), key=lambda n: int(n.split(".")[1]))
    required = ["user_emb", "item_emb", "v_filters", "fc_w", "fc_b", "out_w", "out_b"]
    missing = [n for n in required if n not in tensors]
    if missing or len(h_names) != len(hp.heights):
        raise CheckpointError(f"{path}: tensor set mismatch (missing {missing})")
    params = ModelParams(
        user_emb=tensors["user_emb"],
        item_emb=tensors["item_emb"],
        h_filters=[tensors[n] for n in h_names],
        v_filters=tensors["v_filters"],
        fc_w=tensors["fc_w"],
        fc_b=tensors["fc_b"],
        out_w=tensors["out_w"],
        out_b=tensors["out_b"],
    )
    _validate_shapes(path, params, hp)
    _validate_padding_rows(path, params)
    if expect_hp is not None:
        _check_structural(path, hp, expect_hp)
    return params, hp


def _validate_shapes(path: str, params: ModelParams, hp: HyperParams) -> None:
    d = hp.latent_dim
    item_rows = params.item_emb.shape[0]
    ok = (
        params.user_emb.ndim == 2
        and params.user_emb.shape[1] == d
        and params.item_emb.shape[1] == d
        and params.v_filters.shape == (hp.num_v_filters, hp.order)
        and params.fc_w.shape == (d, hp.fc_input_dim)
        and params.fc_b.shape == (d,)
        and params.out_w.shape == (item_rows, 2 * d)
        and params.out_b.shape == (item_rows,)
        and all(
            f.shape == (hp.num_h_filters, h, d) for f, h in zip(params.h_filters, hp.heights)
        )
    )
    if not ok:
        raise CheckpointError(f"{path}: tensor shapes inconsistent with stored hyperparameters")


def _validate_padding_rows(path: str, params: ModelParams) -> None:
    """Padded windows and masked history slots read these rows as zeros."""
    for name in ("user_emb", "item_emb", "out_w", "out_b"):
        table = getattr(params, name)
        if len(table) == 0 or np.any(table[0]):
            raise CheckpointError(f"{path}: padding row 0 of {name} is missing or not zero")


# hyperparameters that fix tensor shapes
STRUCTURAL_KEYS = ("latent_dim", "order", "heights", "num_h_filters", "num_v_filters")


def _check_structural(path: str, hp: HyperParams, expect: HyperParams) -> None:
    for name in STRUCTURAL_KEYS:
        if getattr(hp, name) != getattr(expect, name):
            raise CheckpointError(
                f"{path}: shape mismatch, checkpoint has {name}={getattr(hp, name)} "
                f"but run config wants {name}={getattr(expect, name)}"
            )
