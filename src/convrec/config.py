"""Hyperparameter and run configuration.

A run is described by a flat ``key = value`` text file; every key can be
overridden on the command line. Unknown keys are rejected so that typos in
an experiment config never pass silently.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, fields

from .errors import ConfigError, open_input, utf8_lines

ACTIVATIONS = ("identity", "sigmoid", "tanh", "relu")
AP_MODES = ("standard", "paper_literal")


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
        for f in fields(self):  # a checkpoint's JSON block can hold 2.0 where an int belongs
            if f.type == "int" and type(getattr(self, f.name)) is not int:
                raise ConfigError(f"{f.name} must be an integer")
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


@dataclass(frozen=True)
class Ranking:
    """How a ranking is scored against the held-out items; the evaluation keys' one home.

    cutoffs         -- the N of Prec@N and Recall@N; a repeated one is kept once, at its first place
    ap_mode         -- AP's denominator: "standard" min(relevant, eligible), "paper_literal" eligible
    exclude_seen    -- the user's items before the held-out part never rank
    """

    cutoffs: tuple[int, ...] = (1, 5, 10)
    ap_mode: str = "standard"
    exclude_seen: bool = True

    def __post_init__(self):
        object.__setattr__(self, "cutoffs", tuple(dict.fromkeys(self.cutoffs)))
        if not self.cutoffs or not all(type(n) is int and n >= 1 for n in self.cutoffs):
            raise ConfigError(f"cutoffs (eval_n) must be one or more integers >= 1, got {self.cutoffs}")
        if self.ap_mode not in AP_MODES:
            raise ConfigError(f"ap_mode must be one of {AP_MODES}, got {self.ap_mode!r}")


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
    The evaluation keys take their defaults from Ranking, ``eval_n`` being
    its cutoffs as comma-list text.
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
        "exclude_seen": Ranking.exclude_seen,
        "batch_size": 100,
        "epochs": 30,
        "patience": 5,
        "seed": 42,
        "eval_n": ",".join(map(str, Ranking.cutoffs)),
        "ap_mode": Ranking.ap_mode,
    }

    def __init__(self):
        self.__dict__.update(self.DEFAULTS)
        self.explicit: set[str] = set()  # keys set via file or override

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
        if self.format not in ("tsv", "csv"):
            raise ConfigError(f"format must be tsv or csv, got {self.format!r}")
        if self.min_feedback < 1:
            raise ConfigError(f"min_feedback must be >= 1, got {self.min_feedback}")
        self.ranking()
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

    def ranking(self) -> Ranking:
        try:
            cutoffs = tuple(int(n) for n in self.eval_n.split(","))
        except ValueError:
            raise ConfigError(f"eval_n must be a comma list of integers >= 1, got {self.eval_n!r}") from None
        return Ranking(cutoffs, self.ap_mode, self.exclude_seen)

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


def thread_budget(wanted: int | None = None) -> int:
    """How many threads or processes to run: ``wanted`` (by default one per CPU
    this process may run on), capped by the CASER_THREADS environment variable
    when it is set, and at least 1.

    Raises ConfigError when CASER_THREADS is set to something other than an integer.
    """
    if wanted is None:
        wanted = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    cap = os.environ.get("CASER_THREADS")
    if cap:
        try:
            wanted = min(wanted, int(cap))
        except ValueError:
            raise ConfigError(f"CASER_THREADS must be an integer, got {cap!r}") from None
    return max(1, wanted)


def run_parts(run, parts: int) -> None:
    """``run(0)``, ..., ``run(parts - 1)``, returning once every call has.

    ``run(0)`` runs on the calling thread and each other part on a thread of
    its own, started and joined here, so no thread outlives the call; one
    part starts no thread. The first error, by part, is raised only after
    every part has stopped.
    """
    errors = [None] * parts

    def other(part):
        try:
            run(part)
        except BaseException as exc:  # raised again on the calling thread
            errors[part] = exc

    threads = []
    try:
        for part in range(1, parts):
            thread = threading.Thread(target=other, args=(part,))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def parse_config_file(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` file; '#' starts a comment line."""
    pairs: dict[str, str] = {}
    with open_input(path, ConfigError) as fh:
        for line_no, line in enumerate(utf8_lines(fh, path, ConfigError), start=1):
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

