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
from .model import PADDED, ModelParams, param_shapes

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
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))  # the buffer itself on a little-endian host, no copy


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

        headers = []  # (name, shape, data offset); the data is skipped here
        (count,) = struct.unpack("<I", _read(fh, 4, path, end))
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read(fh, 4, path, end))
            try:
                name = _read(fh, name_len, path, end).decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: tensor name is not UTF-8") from None
            (ndim,) = struct.unpack("<I", _read(fh, 4, path, end))
            shape = struct.unpack(f"<{ndim}I", _read(fh, 4 * ndim, path, end))
            nbytes = 8 * math.prod(shape)
            if nbytes > end - fh.tell():
                raise CheckpointError(f"{path}: truncated checkpoint, no room for tensor {name} of shape {shape}")
            headers.append((name, shape, fh.tell()))
            fh.seek(nbytes, os.SEEK_CUR)
        if fh.tell() != end:
            raise CheckpointError(f"{path}: trailing bytes after tensors")

        found = [(name, shape) for name, shape, _ in headers]
        rows = {name: shape[0] for name, shape in found if shape}  # the user and item counts
        layout = param_shapes(hp, rows.get("user_emb", 0) - 1, rows.get("item_emb", 0) - 1)
        if found != layout:
            raise CheckpointError(f"{path}: tensors {found} inconsistent with stored hyperparameters, expected {layout}")
        params = ModelParams.empty(layout)  # not zeroed: every element is read below
        for (_, view), (_, _, offset) in zip(params.tensors(), headers):
            fh.seek(offset)
            fh.readinto(view)  # straight into the buffer, without a bytes copy

    for name in PADDED:  # padded windows and masked history slots read these rows as zeros
        table = getattr(params, name)
        if len(table) == 0 or np.any(table[0]):
            raise CheckpointError(f"{path}: padding row 0 of {name} is missing or not zero")
    if expect_hp is not None:
        _check_structural(path, hp, expect_hp)
    return params, hp


# hyperparameters that fix tensor shapes
STRUCTURAL_KEYS = ("latent_dim", "order", "heights", "num_h_filters", "num_v_filters")


def _check_structural(path: str, hp: HyperParams, expect: HyperParams) -> None:
    for name in STRUCTURAL_KEYS:
        if getattr(hp, name) != getattr(expect, name):
            raise CheckpointError(
                f"{path}: shape mismatch, checkpoint has {name}={getattr(hp, name)} "
                f"but run config wants {name}={getattr(expect, name)}"
            )
