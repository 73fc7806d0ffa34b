"""Network parameters, activations, component masks and the conv layers.

The network embeds the previous L items as an L x d matrix, runs horizontal
(windowed, max-pooled) and vertical (per-item weighting) convolutions over
it, projects the concatenated conv outputs to a d-dim sequence embedding
through one fully-connected layer, and scores every item from the
concatenation of that embedding with the user embedding. batch.py composes
these layers into the forward and backward passes.

All arithmetic is float64. Item row 0 and output row 0 are pinned to zero
(padding) and the padding score is forced to -inf so it can never be ranked.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import HyperParams
from .errors import ConfigError


# --------------------------------------------------------------------------
# activations

def activate(x: np.ndarray, kind: str) -> np.ndarray:
    if kind == "identity":
        return np.asarray(x, dtype=float)
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "tanh":
        return np.tanh(x)
    if kind == "sigmoid":
        return sigmoid(x)
    raise ConfigError(f"unknown activation {kind!r}")


def activate_grad(pre: np.ndarray, kind: str) -> np.ndarray:
    """Derivative w.r.t. the pre-activation. relu'(0) is defined as 0."""
    if kind == "identity":
        return np.ones_like(pre)
    if kind == "relu":
        return (pre > 0).astype(float)
    if kind == "tanh":
        t = np.tanh(pre)
        return 1.0 - t * t
    if kind == "sigmoid":
        s = sigmoid(pre)
        return s * (1.0 - s)
    raise ConfigError(f"unknown activation {kind!r}")


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# --------------------------------------------------------------------------
# parameters

@dataclass(frozen=True)
class ComponentMask:
    """Which of the three feature paths are active.

    p: personalization (user embedding), h: horizontal conv, v: vertical conv.
    With h and v both off the convolutional sequence embedding is removed
    entirely (z = 0), which reduces scoring to the plain latent-factor form.
    """

    p: bool = True
    h: bool = True
    v: bool = True

    def __post_init__(self):
        if not (self.p or self.h or self.v):
            raise ConfigError("at least one component must stay enabled")

    @classmethod
    def from_code(cls, code: str) -> "ComponentMask":
        letters = set(code.strip().lower())
        if not letters or letters - {"p", "v", "h"}:
            raise ConfigError(f"mask code must use letters p, v, h; got {code!r}")
        return cls(p="p" in letters, h="h" in letters, v="v" in letters)

    @property
    def code(self) -> str:
        return "".join(c for c, on in (("p", self.p), ("v", self.v), ("h", self.h)) if on)


FULL_MASK = ComponentMask()


# tables whose row 0 is padding: never a real user or item, pinned to zero
PADDED = ("user_emb", "item_emb", "out_w", "out_b")

# the HyperParams fields that param_shapes reads
SHAPE_KEYS = ("latent_dim", "order", "heights", "num_h_filters", "num_v_filters")


def param_shapes(hp: HyperParams, user_count: int, item_count: int) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every learnable tensor, in buffer and checkpoint order."""
    d = hp.latent_dim
    return [
        ("user_emb", (user_count + 1, d)),
        ("item_emb", (item_count + 1, d)),
        *((f"h_filters.{j}", (hp.num_h_filters, h, d)) for j, h in enumerate(hp.heights)),
        ("v_filters", (hp.num_v_filters, hp.order)),
        ("fc_w", (d, hp.fc_input_dim)),
        ("fc_b", (d,)),
        ("out_w", (item_count + 1, 2 * d)),
        ("out_b", (item_count + 1,)),
    ]


class ModelParams:
    """All learnable tensors, each a view of one flat C-contiguous float64 buffer.

    ``layout`` is a param_shapes list; the views follow it end to end, so
    whole-model operations (copy, Adam) run once over ``buffer``. h_filters
    is a list over ascending heights; entry j has shape
    (num_h_filters, heights[j], d). v_filters is (num_v_filters, L).
    """

    user_emb: np.ndarray  # (user_count+1, d); row 0 unused, kept zero
    item_emb: np.ndarray  # (item_count+1, d); row 0 pinned zero
    h_filters: list[np.ndarray]
    v_filters: np.ndarray
    fc_w: np.ndarray  # (d, n + d*num_v)
    fc_b: np.ndarray  # (d,)
    out_w: np.ndarray  # (item_count+1, 2d); row 0 pinned zero
    out_b: np.ndarray  # (item_count+1,); entry 0 pinned zero

    def __init__(self, layout: list[tuple[str, tuple[int, ...]]], buffer: np.ndarray):
        """Views of a flat float64 buffer of the layout's total size."""
        self.layout = layout
        self.buffer = buffer
        self._views = []
        self.h_filters = []
        offset = 0
        for name, shape in layout:
            view = self.buffer[offset : offset + math.prod(shape)].reshape(shape)
            offset += view.size
            self._views.append((name, view))
            if name.startswith("h_filters."):
                self.h_filters.append(view)
            else:
                setattr(self, name, view)

    @property
    def latent_dim(self) -> int:
        return self.item_emb.shape[1]

    @property
    def user_count(self) -> int:
        return self.user_emb.shape[0] - 1

    @property
    def item_count(self) -> int:
        return self.item_emb.shape[0] - 1

    def tensors(self):
        """Stable (name, array) iteration used by Adam, checkpoints, and L2."""
        return iter(self._views)

    @classmethod
    def empty(cls, layout: list[tuple[str, tuple[int, ...]]]) -> "ModelParams":
        """Views of an uninitialised buffer, for a caller that writes every element."""
        return cls(layout, np.empty(sum(math.prod(shape) for _, shape in layout)))

    def copy(self) -> "ModelParams":
        return ModelParams(self.layout, self.buffer.copy())

    def __reduce__(self):  # pickle and deepcopy the buffer once and rebuild the views on it
        return ModelParams, (self.layout, self.buffer)

    def pin_rows(self) -> None:
        """Re-zero the padding rows; call after every update."""
        for name in PADDED:
            getattr(self, name)[0] = 0.0


def _glorot(rng: np.random.Generator, out: np.ndarray, fan_in: int, fan_out: int) -> None:
    """rng.uniform(-a, a) drawn into ``out`` in place: the same bits and stream, without a temporary."""
    a = np.sqrt(6.0 / (fan_in + fan_out))
    rng.random(out=out)
    out *= 2 * a
    out += -a


def init_params(hp: HyperParams, user_count: int, item_count: int, rng: np.random.Generator) -> ModelParams:
    """Glorot-uniform weights, zero biases, pinned padding rows."""
    if user_count < 1 or item_count < 1:
        raise ConfigError("user_count and item_count must be >= 1")
    d = hp.latent_dim
    params = ModelParams.empty(param_shapes(hp, user_count, item_count))
    params.fc_b[:] = 0.0
    params.out_b[:] = 0.0
    _glorot(rng, params.user_emb, user_count + 1, d)
    _glorot(rng, params.item_emb, item_count + 1, d)
    for f, h in zip(params.h_filters, hp.heights):
        _glorot(rng, f, h * d, 1)
    _glorot(rng, params.v_filters, hp.order, 1)
    _glorot(rng, params.fc_w, hp.fc_input_dim, d)
    _glorot(rng, params.out_w, 2 * d, item_count + 1)
    params.pin_rows()
    return params


# --------------------------------------------------------------------------
# convolution layers and dropout

def horizontal_conv(
    E: np.ndarray, h_filters: list[np.ndarray], conv_act: str, argmax: bool = True
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray] | None]:
    """Slide each h x d filter over the rows of every E in a (B, L, d) batch.

    Per height the windows are a strided (W, B, h*d) view of E, made
    contiguous once, and scored by one stacked matmul with the (h*d, n_h)
    filters. Returns the activated values max-pooled over windows, (B, n)
    with heights ascending, per height the pre-activations (B, n_h, W) and,
    if ``argmax`` (only the backward reads it), per height the winning window
    of each filter (B, n_h), ties to the smallest window index, else None.
    """
    E = np.ascontiguousarray(E)
    B, L, d = E.shape
    pooled, pre_list, amax_list = [], [], []
    for filt in h_filters:
        n_h, h, _ = filt.shape
        n_windows = L - h + 1
        if n_windows < 1:
            raise ConfigError(f"filter height {h} exceeds sequence length {L}")
        windows = np.ndarray((n_windows, B, h * d), E.dtype, E, strides=(E.strides[1], E.strides[0], E.strides[2]))
        pre = (windows @ filt.reshape(n_h, h * d).T).transpose(1, 2, 0)
        vals = activate(pre, conv_act)
        pooled.append(vals.max(axis=2))
        pre_list.append(pre)
        if argmax:
            amax_list.append(vals.argmax(axis=2))
    return np.concatenate(pooled, axis=1), pre_list, amax_list if argmax else None


def vertical_conv(E: np.ndarray, v_filters: np.ndarray) -> np.ndarray:
    """Weighted sums over the rows of E (..., L, d), one d-vector per filter.

    The vectors are concatenated filter-major into (..., n_v * d). No
    activation and no pooling: each filter is a learned aggregator of the L
    previous items' embeddings.
    """
    return np.einsum("...ld,kl->...kd", E, v_filters).reshape(*E.shape[:-2], -1)


def dropout_mask_for(hp: HyperParams, rng: np.random.Generator, rows: int) -> np.ndarray | None:
    """Inverted-dropout masks over the conv concatenation, one per row; None at rate 0."""
    if hp.dropout <= 0.0:
        return None
    keep = rng.random((rows, hp.fc_input_dim)) >= hp.dropout
    return keep / (1.0 - hp.dropout)
