import dataclasses
import struct

import numpy as np
import pytest

from convrec.checkpoint import load_checkpoint, save_checkpoint
from convrec.config import HyperParams
from convrec.errors import CheckpointError
from convrec.model import init_params

HP = HyperParams(latent_dim=10, order=5, num_targets=2, heights=(1, 3, 5),
                 num_h_filters=2, num_v_filters=3)


def _params(hp=HP, seed=0):
    p = init_params(hp, 7, 33, np.random.default_rng(seed))
    p.fc_b[:] = np.random.default_rng(seed + 1).normal(size=p.fc_b.shape)
    return p


def test_roundtrip_is_bit_exact(tmp_path):
    p = _params()
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, p, HP)
    loaded, hp = load_checkpoint(path)
    assert hp == HP
    for (na, a), (nb, b) in zip(p.tensors(), loaded.tensors()):
        assert na == nb
        assert a.dtype == b.dtype == np.float64
        assert np.array_equal(a, b)
        assert a.tobytes() == b.tobytes()


def test_save_load_save_identical_bytes(tmp_path):
    p = _params(seed=3)
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(p1, p, HP)
    loaded, hp = load_checkpoint(p1)
    save_checkpoint(p2, loaded, hp)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), _params(), HP)
    raw = bytearray(path.read_bytes())
    raw[0] = ord(b"X")
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(str(path))


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), _params(), HP)
    path.write_bytes(path.read_bytes()[:-17])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(str(path))


def test_every_truncation_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), _params(), HP)
    raw = path.read_bytes()
    for cut in range(0, len(raw), 7):
        path.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))


def test_impossible_tensor_shape_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), _params(), HP)
    raw = bytearray(path.read_bytes())
    (hp_len,) = struct.unpack_from("<I", raw, 8)
    # magic, version, hp length, hp block, tensor count, name length, "user_emb", ndim
    dims_at = 12 + hp_len + 4 + 4 + len("user_emb") + 4
    struct.pack_into("<2I", raw, dims_at, 2**31 - 1, 2**31 - 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(str(path))


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), _params(), HP)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(str(path))


def test_structural_mismatch_rejected(tmp_path):
    path = str(tmp_path / "model.ckpt")
    hp10 = dataclasses.replace(HP, latent_dim=10)
    save_checkpoint(path, _params(hp10), hp10)
    hp20 = dataclasses.replace(HP, latent_dim=20)
    with pytest.raises(CheckpointError, match="latent_dim"):
        load_checkpoint(path, expect_hp=hp20)
    # matching expectation loads fine
    load_checkpoint(path, expect_hp=hp10)


def test_matching_nonstructural_fields_may_differ(tmp_path):
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, _params(), HP)
    expect = dataclasses.replace(HP, dropout=0.9, lr=123.0)
    load_checkpoint(path, expect_hp=expect)  # only shape fields are compared


@pytest.mark.parametrize("name, value", [("item_emb", 0.25), ("item_emb", np.nan), ("user_emb", 0.25),
                                         ("out_w", -1.0), ("out_b", 1e-300)])
def test_nonzero_padding_row_rejected(tmp_path, name, value):
    p = _params()
    getattr(p, name)[0] = value
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, p, HP)
    with pytest.raises(CheckpointError, match=f"padding row 0 of {name}"):
        load_checkpoint(path)
