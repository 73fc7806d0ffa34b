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
import math
import os
import struct

import numpy as np

from .config import HyperParams
from .errors import CheckpointError, ConfigError, open_input
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


def _read(fh, size: int, path: str, end: int) -> bytes:
    # checked before reading, so a corrupt length cannot ask for more than the file holds
    if size > end - fh.tell():
        raise CheckpointError(f"{path}: truncated checkpoint")
    return fh.read(size)


def load_checkpoint(path: str, expect_hp: HyperParams | None = None) -> tuple[ModelParams, HyperParams]:
    """Load and validate a checkpoint.

    With ``expect_hp`` set, the stored hyperparameters must agree on every
    field that determines tensor shapes.
    """
    with open_input(path, CheckpointError, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        if _read(fh, 4, path, end) != MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a checkpoint")
        (version,) = struct.unpack("<I", _read(fh, 4, path, end))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        (hp_len,) = struct.unpack("<I", _read(fh, 4, path, end))
        try:
            hp_dict = json.loads(_read(fh, hp_len, path, end).decode("utf-8"))
            hp_dict["heights"] = tuple(hp_dict.get("heights") or ())
            hp = HyperParams(**hp_dict)
        except (ValueError, TypeError, ConfigError) as exc:
            raise CheckpointError(f"{path}: bad hyperparameter block ({exc})") from exc

        tensors: dict[str, np.ndarray] = {}
        (count,) = struct.unpack("<I", _read(fh, 4, path, end))
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read(fh, 4, path, end))
            try:
                name = _read(fh, name_len, path, end).decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: tensor name is not UTF-8") from None
            (ndim,) = struct.unpack("<I", _read(fh, 4, path, end))
            shape = struct.unpack(f"<{ndim}I", _read(fh, 4 * ndim, path, end))
            if 8 * math.prod(shape) > end - fh.tell():
                raise CheckpointError(f"{path}: truncated checkpoint, no room for tensor {name} of shape {shape}")
            try:  # over 64 dimensions, or a zero dimension among huge ones
                arr = tensors[name] = np.empty(shape, dtype="<f8")
            except ValueError:
                raise CheckpointError(f"{path}: impossible tensor {name} of shape {shape}") from None
            fh.readinto(arr)  # straight into the array, without a bytes copy
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after tensors")

    h_names = [f"h_filters.{j}" for j in range(len(hp.heights))]
    required = ["user_emb", "item_emb", *h_names, "v_filters", "fc_w", "fc_b", "out_w", "out_b"]
    if set(tensors) != set(required):
        raise CheckpointError(f"{path}: tensor set mismatch, expected {required}, got {sorted(tensors)}")
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
        params.user_emb.ndim == params.item_emb.ndim == 2
        and params.user_emb.shape[1] == params.item_emb.shape[1] == d
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
