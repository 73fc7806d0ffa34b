"""Hyperparameter and run configuration.

A run is described by a flat ``key = value`` text file; every key can be
overridden on the command line. Unknown keys are rejected so that typos in
an experiment config never pass silently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError, open_input

ACTIVATIONS = ("identity", "sigmoid", "tanh", "relu")


@dataclass(frozen=True)
class HyperParams:
    """Model hyperparameters.

    latent_dim      -- embedding width d
    order           -- number of previous items fed to the network (L)
    num_targets     -- future items treated as positives per instance (T)
    heights         -- horizontal filter heights; empty means 1..order
    num_h_filters   -- horizontal filters per height
    num_v_filters   -- vertical (per-item weighting) filters
    num_negatives   -- negatives sampled per target (or per instance, see flag)
    """

    latent_dim: int = 50
    order: int = 5
    num_targets: int = 3
    heights: tuple[int, ...] = ()
    num_h_filters: int = 16
    num_v_filters: int = 4
    conv_act: str = "relu"
    fc_act: str = "relu"
    vertical_act: str = "identity"  # applied to the vertical conv output; off by default
    dropout: float = 0.5
    l2: float = 1e-6
    lr: float = 1e-3
    num_negatives: int = 3
    negatives_per_instance: bool = False

    def __post_init__(self):
        if not self.heights:
            object.__setattr__(self, "heights", tuple(range(1, self.order + 1)))
        else:
            object.__setattr__(self, "heights", tuple(sorted(set(int(h) for h in self.heights))))
        if self.latent_dim < 1:
            raise ConfigError("latent_dim must be >= 1")
        if self.order < 1:
            raise ConfigError("order must be >= 1")
        if self.num_targets < 1:
            raise ConfigError("num_targets must be >= 1")
        if any(h < 1 or h > self.order for h in self.heights):
            raise ConfigError(f"every filter height must lie in 1..{self.order}")
        if self.num_h_filters < 1 or self.num_v_filters < 1:
            raise ConfigError("filter counts must be >= 1")
        for name in ("conv_act", "fc_act", "vertical_act"):
            if getattr(self, name) not in ACTIVATIONS:
                raise ConfigError(f"{name} must be one of {ACTIVATIONS}")
        for name in ("dropout", "l2", "lr"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        if self.l2 < 0:
            raise ConfigError("l2 must be >= 0")
        if self.lr < 0:
            raise ConfigError("lr must be >= 0")
        if self.num_negatives < 1:
            raise ConfigError("num_negatives must be >= 1")

    @property
    def total_h_filters(self) -> int:
        return len(self.heights) * self.num_h_filters

    @property
    def fc_input_dim(self) -> int:
        return self.total_h_filters + self.latent_dim * self.num_v_filters


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


class RunConfig:
    """Fully resolved configuration of one run (data + model + training).

    The model keys, with their types and defaults, are the fields of
    HyperParams; ``heights`` is kept as its comma-list text, empty -> 1..order.
    """

    DEFAULTS: dict = {
        "data": "",
        "format": "tsv",
        "min_feedback": 5,
        **{
            f.name: ",".join(map(str, f.default)) if f.name == "heights" else f.default
            for f in fields(HyperParams)
        },
        "exclude_history_negatives": False,
        "exclude_seen": True,
        "batch_size": 100,
        "epochs": 30,
        "patience": 5,
        "seed": 42,
        "eval_n": "1,5,10",
        "ap_mode": "standard",
    }

    def __init__(self):
        self.__dict__.update(self.DEFAULTS)
        self.explicit: set[str] = set()  # keys set via file or override

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(cls.DEFAULTS)

    @classmethod
    def from_sources(cls, path: str | None = None, overrides: dict[str, str] | None = None) -> "RunConfig":
        """Build a config from an optional file plus override pairs."""
        cfg = cls()
        if path is not None:
            cfg.apply(parse_config_file(path))
        if overrides:
            cfg.apply(overrides)
        return cfg

    def apply(self, pairs: dict[str, str]) -> None:
        for key, raw in pairs.items():
            if key not in self.DEFAULTS:
                raise ConfigError(f"unknown config key: {key}")
            default = self.DEFAULTS[key]
            try:
                if isinstance(default, bool):
                    value = _parse_bool(raw)
                elif isinstance(default, int):
                    value = int(raw)
                elif isinstance(default, float):
                    value = float(raw)
                else:
                    value = raw.strip()
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc
            setattr(self, key, value)
            self.explicit.add(key)
        # fail on a bad value now, not inside or after training
        self.eval_cutoffs()
        self.height_list()
        for key in ("batch_size", "epochs", "patience"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def hyperparams(self) -> HyperParams:
        values = {f.name: getattr(self, f.name) for f in fields(HyperParams)}
        values["heights"] = self.height_list()
        return HyperParams(**values)

    def height_list(self) -> tuple[int, ...]:
        if not self.heights.strip():
            return ()
        try:
            return tuple(int(h) for h in self.heights.split(","))
        except ValueError:
            raise ConfigError(
                f"heights must be empty or a comma list of integers, got {self.heights!r}"
            ) from None

    def eval_cutoffs(self) -> tuple[int, ...]:
        try:
            cutoffs = tuple(int(n) for n in self.eval_n.split(","))
            if min(cutoffs) >= 1:
                return cutoffs
        except ValueError:
            pass
        raise ConfigError(f"eval_n must be a comma list of integers >= 1, got {self.eval_n!r}")

    def to_pairs(self) -> dict[str, str]:
        pairs = {}
        for key in self.DEFAULTS:
            value = getattr(self, key)
            if isinstance(value, bool):
                value = "true" if value else "false"
            pairs[key] = str(value)
        return pairs

    def resolved_text(self) -> str:
        return "\n".join(f"{k} = {v}" for k, v in self.to_pairs().items()) + "\n"


def parse_config_file(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` file; '#' starts a comment line."""
    pairs: dict[str, str] = {}
    with open_input(path, ConfigError) as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {stripped!r}")
            key, _, value = stripped.partition("=")
            pairs[key.strip()] = value.strip()
    return pairs


def parse_override_args(args: list[str]) -> dict[str, str]:
    """Parse repeated ``--set key=value`` payloads."""
    pairs: dict[str, str] = {}
    for item in args:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, value = item.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs

