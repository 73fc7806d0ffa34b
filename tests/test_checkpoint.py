import hashlib
import re
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


# sha256 of the v2 file below, and of its last 1606 * 8 bytes: the parameter
# buffer, equal to the tensor data of the v1 file that the per-tensor writer
# and initialiser produced before the parameters moved into one flat buffer
GOLDEN_SHA256 = "927589b750d331721d224704fa8eef23852f769ba9b21296d8ca7b1d826c439f"
GOLDEN_BUFFER_SHA256 = "649fbfc39ac03acb14c4b29d7d665e3a4e782c96e0ff2d0246848c7f9deded39"


def test_v2_checkpoint_bytes_are_pinned(tmp_path):
    """The file format, the tensor order and the init draw order, byte for byte.

    Nothing here calls BLAS, so the bytes do not depend on the platform.
    """
    path = tmp_path / "golden.ckpt"
    save_checkpoint(str(path), init_params(HP, 7, 30, np.random.default_rng(0)), HP)
    raw = path.read_bytes()
    assert hashlib.sha256(raw).hexdigest() == GOLDEN_SHA256
    assert hashlib.sha256(raw[-1606 * 8 :]).hexdigest() == GOLDEN_BUFFER_SHA256


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


@pytest.mark.parametrize("cut", [slice(-17), slice(19)], ids=["data", "header"])
def test_truncated_file_rejected(tmp_path, cut):
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), _params(), HP)
    path.write_bytes(path.read_bytes()[cut])
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


def _load_traced(path):
    """load_checkpoint, asserting that it allocates under 1 MB on the way."""
    tracemalloc.start()
    try:
        return load_checkpoint(path)
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 1 << 20


def test_impossible_tensor_shape_rejected(tmp_path):
    """A latent_dim whose tables could not fit in any file is refused before they are allocated."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), _params(), HP)
    raw = path.read_bytes()
    (hp_len,) = struct.unpack_from("<I", raw, 16)
    hp_json = raw[20 : 20 + hp_len].replace(b'"latent_dim": 10', b'"latent_dim": 2147483647')
    path.write_bytes(raw[:16] + struct.pack("<I", len(hp_json)) + hp_json + raw[20 + hp_len :])
    with pytest.raises(CheckpointError, match="truncated"):
        _load_traced(str(path))


# header fields, as HEADER = "<4s4I" packs them: magic, version, user_count, item_count, hp_json_len
HEADER_EDITS = {
    "user_count+1": (8, lambda v: v + 1, "truncated"),
    "item_count 2**31-1": (12, lambda v: 2**31 - 1, "truncated"),
    "hp_json_len 2**32-1": (16, lambda v: 2**32 - 1, "truncated"),
    "version 1": (4, lambda v: 1, "re-run `convrec train`"),
    "user_count 0": (8, lambda v: 0, "must be >= 1"),
    "item_count 0": (12, lambda v: 0, "must be >= 1"),
}


@pytest.mark.parametrize("offset, edit, message", HEADER_EDITS.values(), ids=HEADER_EDITS)
def test_header_edit_is_refused_before_allocating(tmp_path, offset, edit, message):
    def edit_field(raw):
        struct.pack_into("<I", raw, offset, edit(struct.unpack_from("<I", raw, offset)[0]))

    with pytest.raises(CheckpointError, match=re.escape(message)):
        _load_traced(_corrupted(tmp_path, edit_field))


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), _params(), HP)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(str(path))


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


@pytest.mark.parametrize("old, new", [(b'"order": 5', b'"order": 0'), (b'"latent_dim": 10', b'"latent_dim":1e1')],
                         ids=["zero order", "float latent_dim"])
def test_bad_hyperparameter_value_is_a_checkpoint_error(tmp_path, old, new):
    def edit(raw):
        at = raw.index(old)
        raw[at : at + len(old)] = new

    with pytest.raises(CheckpointError, match="hyperparameter"):
        load_checkpoint(_corrupted(tmp_path, edit))


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
