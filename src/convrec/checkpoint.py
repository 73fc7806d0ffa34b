"""Binary checkpoint format v2: a fixed header, the hyperparameters, the parameter buffer.

Layout (integers little-endian u32, floats little-endian f64):

    b"CASR" | version | user_count | item_count | hp_json_len     (20 bytes)
    hp_json                                                       (UTF-8)
    params.buffer                                                 (f64, param_shapes order)

The tensor layout is not stored: it is ``model.param_shapes`` of the stored
hyperparameters and counts, so the file size is known from the header and
the JSON alone. Version 1 files, which stored a shape header per tensor,
are refused. Round trips are bit-exact.
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
VERSION = 2
HEADER = struct.Struct("<4s4I")  # magic, version, user_count, item_count, hp_json_len


def save_checkpoint(path: str, params: ModelParams, hp: HyperParams) -> None:
    hp_json = json.dumps(dataclasses.asdict(hp)).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, VERSION, params.user_count, params.item_count, len(hp_json)))
        fh.write(hp_json)
        fh.write(np.ascontiguousarray(params.buffer, dtype="<f8"))  # the buffer itself on a little-endian host, no copy


def load_checkpoint(path: str) -> tuple[ModelParams, HyperParams]:
    """Load and validate a checkpoint; every size is checked before anything is allocated."""
    with open_input(path, CheckpointError, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(HEADER.size)
        if len(header) < HEADER.size:
            raise CheckpointError(f"{path}: truncated checkpoint, {len(header)} bytes is shorter than the header")
        magic, version, users, items, hp_len = HEADER.unpack(header)
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a checkpoint")
        if version != VERSION:
            raise CheckpointError(
                f"{path}: checkpoint version {version} is not supported, only version {VERSION}; "
                f"re-run `convrec train` to write one"
            )
        if users < 1 or items < 1:
            raise CheckpointError(f"{path}: user_count {users} and item_count {items} must be >= 1")
        if hp_len > size - HEADER.size:
            raise CheckpointError(f"{path}: truncated checkpoint, no room for a {hp_len}-byte hyperparameter block")
        try:
            hp_dict = json.loads(fh.read(hp_len).decode("utf-8"))
            hp_dict["heights"] = tuple(hp_dict.get("heights") or ())
            hp = HyperParams(**hp_dict)
        except (ValueError, TypeError, ConfigError) as exc:
            raise CheckpointError(f"{path}: bad hyperparameter block ({exc})") from exc

        layout = param_shapes(hp, users, items)
        expected = HEADER.size + hp_len + 8 * sum(math.prod(shape) for _, shape in layout)
        if size != expected:
            fault = "truncated checkpoint" if size < expected else "trailing bytes after the parameters"
            raise CheckpointError(f"{path}: {fault}, {size} bytes where the header and hyperparameters give {expected}")
        params = ModelParams.empty(layout)  # not zeroed: every element is read below
        fh.readinto(params.buffer)  # straight into the buffer, without a bytes copy

    for name in PADDED:  # padded windows and masked history slots read these rows as zeros
        if np.any(getattr(params, name)[0]):
            raise CheckpointError(f"{path}: padding row 0 of {name} is not zero")
    return params, hp
