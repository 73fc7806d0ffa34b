import dataclasses
import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

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


# sha256 of the v1 file below, as the per-tensor writer and initialiser
# produced it before the parameters moved into one flat buffer
GOLDEN_SHA256 = "d744e4e51675aca94f8eeb9d588a92738da6921d75b22aa1bf5f59761fde9c30"


def test_v1_checkpoint_bytes_are_pinned(tmp_path):
    """The file format, the tensor order and the init draw order, byte for byte.

    Nothing here calls BLAS, so the bytes do not depend on the platform.
    """
    path = tmp_path / "golden.ckpt"
    save_checkpoint(str(path), init_params(HP, 7, 30, np.random.default_rng(0)), HP)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256


def test_save_writes_tensors_without_copies(tmp_path):
    """Planted-large-size parameters (27.8 MB; out_w alone is 18 MB) are written from their own buffers."""
    hp = HyperParams()
    params = init_params(hp, 1000, 22537, np.random.default_rng(0))
    tracemalloc.start()
    try:
        save_checkpoint(str(tmp_path / "large.ckpt"), params, hp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


class _Reordered:
    """Writes the tensors of some params after an edit of their list."""

    def __init__(self, params, edit):
        self.params, self.edit = params, edit

    def tensors(self):
        tensors = list(self.params.tensors())
        self.edit(tensors)
        return tensors


@pytest.mark.parametrize("edit", [lambda t: t.pop(3), lambda t: t.append(t[3]), lambda t: t.reverse(),
                                  lambda t: t.insert(3, t.pop(4))], ids=["missing", "duplicate", "reversed", "swapped"])
def test_tensors_off_the_layout_rejected(tmp_path, edit):
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, _Reordered(_params(), edit), HP)
    with pytest.raises(CheckpointError, match="inconsistent with stored hyperparameters"):
        load_checkpoint(path)


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


def _corrupted(tmp_path, edit):
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), _params(), HP)
    raw = bytearray(path.read_bytes())
    edit(raw)
    path.write_bytes(bytes(raw))
    return str(path)


def test_bad_hyperparameter_value_is_a_checkpoint_error(tmp_path):
    def zero_order(raw):
        at = raw.index(b'"order": 5')
        raw[at + len('"order": ')] = ord("0")

    with pytest.raises(CheckpointError, match="hyperparameter"):
        load_checkpoint(_corrupted(tmp_path, zero_order))


def test_non_utf8_tensor_name_is_a_checkpoint_error(tmp_path):
    def break_name(raw):
        raw[raw.index(b"user_emb")] = 0xFF

    with pytest.raises(CheckpointError, match="UTF-8"):
        load_checkpoint(_corrupted(tmp_path, break_name))


def test_huge_ndim_is_refused_before_allocating(tmp_path):
    def huge_ndim(raw):
        struct.pack_into("<I", raw, raw.index(b"user_emb") + len("user_emb"), 2**31 - 1)

    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(_corrupted(tmp_path, huge_ndim))


TINY_HP = HyperParams(latent_dim=2, order=2, num_targets=1, heights=(1, 2), num_h_filters=1, num_v_filters=1)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "tiny.ckpt"
    save_checkpoint(str(path), init_params(TINY_HP, 2, 3, np.random.default_rng(0)), TINY_HP)
    return path, path.read_bytes()


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_every_single_byte_change_loads_or_is_a_checkpoint_error(tiny_checkpoint, data):
    path, raw = tiny_checkpoint
    at = data.draw(st.integers(0, len(raw) - 1))
    value = data.draw(st.integers(0, 255).filter(lambda v: v != raw[at]))
    path.write_bytes(raw[:at] + bytes([value]) + raw[at + 1 :])
    try:
        load_checkpoint(str(path))
    except CheckpointError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_any_truncation_is_a_checkpoint_error(tiny_checkpoint, data):
    path, raw = tiny_checkpoint
    path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))
