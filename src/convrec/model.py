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

from dataclasses import dataclass

import numpy as np

from .config import HyperParams


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
    raise ValueError(f"unknown activation {kind!r}")


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
    raise ValueError(f"unknown activation {kind!r}")


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
            raise ValueError("at least one component must stay enabled")

    @classmethod
    def from_code(cls, code: str) -> "ComponentMask":
        letters = set(code.strip().lower())
        if not letters or letters - {"p", "v", "h"}:
            raise ValueError(f"mask code must use letters p, v, h; got {code!r}")
        return cls(p="p" in letters, h="h" in letters, v="v" in letters)

    @property
    def code(self) -> str:
        return "".join(c for c, on in (("p", self.p), ("v", self.v), ("h", self.h)) if on)


FULL_MASK = ComponentMask()


@dataclass
class ModelParams:
    """All learnable tensors.

    h_filters is a list over ascending heights; entry j has shape
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

    @property
    def latent_dim(self) -> int:
        return self.item_emb.shape[1]

    @property
    def user_count(self) -> int:
        return self.user_emb.shape[0] - 1

    @property
    def item_count(self) -> int:
        return self.item_emb.shape[0] - 1

    @property
    def heights(self) -> tuple[int, ...]:
        return tuple(f.shape[1] for f in self.h_filters)

    def tensors(self):
        """Stable (name, array) iteration used by Adam, checkpoints, and L2."""
        yield "user_emb", self.user_emb
        yield "item_emb", self.item_emb
        for j, f in enumerate(self.h_filters):
            yield f"h_filters.{j}", f
        yield "v_filters", self.v_filters
        yield "fc_w", self.fc_w
        yield "fc_b", self.fc_b
        yield "out_w", self.out_w
        yield "out_b", self.out_b

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.user_emb.copy(),
            self.item_emb.copy(),
            [f.copy() for f in self.h_filters],
            self.v_filters.copy(),
            self.fc_w.copy(),
            self.fc_b.copy(),
            self.out_w.copy(),
            self.out_b.copy(),
        )

    def pin_rows(self) -> None:
        """Re-zero the padding rows; call after every update."""
        self.user_emb[0] = 0.0
        self.item_emb[0] = 0.0
        self.out_w[0] = 0.0
        self.out_b[0] = 0.0


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def init_params(hp: HyperParams, user_count: int, item_count: int, rng: np.random.Generator) -> ModelParams:
    """Glorot-uniform weights, zero biases, pinned padding rows."""
    if user_count < 1 or item_count < 1:
        raise ValueError("user_count and item_count must be >= 1")
    d = hp.latent_dim
    user_emb = _glorot(rng, (user_count + 1, d), user_count + 1, d)
    item_emb = _glorot(rng, (item_count + 1, d), item_count + 1, d)
    h_filters = [
        _glorot(rng, (hp.num_h_filters, h, d), h * d, 1) for h in hp.heights
    ]
    v_filters = _glorot(rng, (hp.num_v_filters, hp.order), hp.order, 1)
    fc_w = _glorot(rng, (d, hp.fc_input_dim), hp.fc_input_dim, d)
    fc_b = np.zeros(d)
    out_w = _glorot(rng, (item_count + 1, 2 * d), 2 * d, item_count + 1)
    out_b = np.zeros(item_count + 1)
    params = ModelParams(user_emb, item_emb, h_filters, v_filters, fc_w, fc_b, out_w, out_b)
    params.pin_rows()
    return params


# --------------------------------------------------------------------------
# convolution layers and dropout

def horizontal_conv(
    E: np.ndarray, h_filters: list[np.ndarray], conv_act: str
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Slide each h x d filter over the rows of every E in a (B, L, d) batch.

    Per height the windows are gathered once, im2col style, and scored by one
    stacked matmul (W, B, h*d) @ (h*d, n_h). Returns the activated values
    max-pooled over windows, (B, n) with heights ascending, and per height the
    pre-activations (B, n_h, W) and the winning window of each filter (B, n_h).
    Ties in the max go to the smallest window index (np.argmax semantics),
    which fixes the backprop routing deterministically.
    """
    B, L, d = E.shape
    pooled, pre_list, amax_list = [], [], []
    for filt in h_filters:
        n_h, h, _ = filt.shape
        n_windows = L - h + 1
        if n_windows < 1:
            raise ValueError(f"filter height {h} exceeds sequence length {L}")
        idx = np.arange(n_windows)[:, None] + np.arange(h)
        windows = E[:, idx].reshape(B, n_windows, h * d).transpose(1, 0, 2)
        pre = (windows @ filt.reshape(n_h, h * d).T).transpose(1, 2, 0)
        vals = activate(pre, conv_act)
        pooled.append(vals.max(axis=2))
        pre_list.append(pre)
        amax_list.append(vals.argmax(axis=2))
    return np.concatenate(pooled, axis=1), pre_list, amax_list


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
