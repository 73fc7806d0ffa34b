"""Command-line entry point.

Subcommands: prepare, train, evaluate, recommend, mine-rules, ablate,
grad-check, inspect, sweep. Every run prints its fully resolved config so
experiments can be reproduced from the log alone. Exit codes: 0 success,
1 runtime failure, 2 usage/config error.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import sys
from pathlib import Path

from . import ablation, rules
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, parse_override_args, thread_budget
from .data import build_sequences, chronological_split, joined, load_interactions, load_split, save_split
from .errors import CheckpointError, ConfigError, ConvrecError
from .evaluate import evaluate, recommend_top_n
from .gradients import TOY_HP, gradient_check
from .model import SHAPE_KEYS
from .training import map_trials, train

# Binary despite the name: the benchmark (perfbench/harness.py) writes a split under this name.
SPLIT_FILE = "split.json"


def _build_config(args) -> RunConfig:
    overrides = parse_override_args(args.overrides)
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = str(args.seed)
    if getattr(args, "data", None) is not None:
        overrides["data"] = args.data
    if getattr(args, "exclude_history", False):
        overrides["exclude_history_negatives"] = "true"
    return RunConfig.from_sources(args.config, overrides)


def _resolve_split(args, cfg: RunConfig):
    if getattr(args, "data_dir", None):
        return load_split(str(Path(args.data_dir) / SPLIT_FILE))
    if not cfg.data:
        raise ConfigError("either --data-dir or a data path in the config is required")
    seqdata = build_sequences(load_interactions(cfg.data, cfg.format), cfg.min_feedback)
    return chronological_split(seqdata)


def _check_out_dirs(*paths) -> None:
    """Refuse an output path whose directory is missing, before the work whose result it would hold."""
    for path in filter(None, paths):
        if not Path(path).parent.is_dir():
            raise ConvrecError(f"{path}: directory {Path(path).parent} does not exist")


def _load_model(path: str, split, cfg: RunConfig):
    """Load a checkpoint; refuse it unless its tables fit the split's user and item counts,
    and its shapes fit every shape key that ``cfg`` sets explicitly."""
    params, hp = load_checkpoint(path)
    got, want = (params.user_count, params.item_count), (split.user_count, split.item_count)
    if got != want:
        raise CheckpointError(f"{path}: checkpoint has (users, items) = {got}, the split {want}")
    explicit = [name for name in SHAPE_KEYS if name in cfg.explicit]
    wanted = cfg.hyperparams() if explicit else None
    for name in explicit:
        if getattr(hp, name) != getattr(wanted, name):
            raise CheckpointError(
                f"{path}: shape mismatch, checkpoint has {name}={getattr(hp, name)} "
                f"but run config wants {name}={getattr(wanted, name)}"
            )
    return params, hp


def _train_kwargs(cfg: RunConfig) -> dict:
    """train's keyword arguments from the run config: every subcommand that trains passes these."""
    return dict(seed=cfg.seed, epochs=cfg.epochs, batch_size=cfg.batch_size, patience=cfg.patience,
                exclude_history_negatives=cfg.exclude_history_negatives, ranking=cfg.ranking())


def _print_config(cfg: RunConfig) -> None:
    print("# resolved config")
    for line in cfg.resolved_text().splitlines():
        print(line)


def _epoch_printer(row) -> None:
    print(
        f"epoch {row.epoch:3d}  loss {row.train_loss:.4f}  "
        f"val_MAP {row.val_map:.4f}  val_P@1 {row.val_prec1:.4f}  ({row.wall_ms:.0f} ms)"
    )


# --------------------------------------------------------------------------
# subcommands

def cmd_prepare(args) -> int:
    cfg = _build_config(args)
    _print_config(cfg)
    split = _resolve_split(args, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_split(str(out / SPLIT_FILE), split)
    print(f"users={split.user_count} items={split.item_count}")
    print(f"prepared dataset in {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _build_config(args)
    _print_config(cfg)
    _check_out_dirs(args.checkpoint, args.log)
    split = _resolve_split(args, cfg)
    hp = cfg.hyperparams()
    result = train(split, hp, **_train_kwargs(cfg), progress=_epoch_printer if not args.quiet else None)
    Path(args.checkpoint + ".cfg").write_text(cfg.resolved_text(), encoding="utf-8")  # first: no checkpoint without it
    save_checkpoint(args.checkpoint, result.params, hp)
    if args.log:
        result.write_log(args.log)
    print(f"best epoch {result.best_epoch}, checkpoint written to {args.checkpoint}")
    return 0


def cmd_evaluate(args) -> int:
    thread_budget()  # a bad CASER_THREADS fails before the split and checkpoint load
    cfg = _build_config(args)
    _check_out_dirs(args.csv, args.per_user)
    split = _resolve_split(args, cfg)
    params, hp = _load_model(args.checkpoint, split, cfg)
    ranking = cfg.ranking()
    report = evaluate(params, hp, split, ranking, part=args.part, collect_per_user=bool(args.per_user))
    print(report.table())
    if args.csv:
        Path(args.csv).write_text(report.to_csv(), encoding="utf-8")
    if args.per_user:
        with open(args.per_user, "w", encoding="utf-8") as fh:
            fh.write("user\tAP\thits@{}\n".format(max(ranking.cutoffs)))
            for user, ap, hits in report.per_user:
                fh.write(f"{split.user_ids[user]}\t{ap:.6f}\t{hits}\n")
    return 0


def cmd_recommend(args) -> int:
    if args.N < 1:
        raise ConfigError(f"--N must be >= 1, got {args.N}")
    cfg = _build_config(args)
    split = _resolve_split(args, cfg)
    params, hp = _load_model(args.checkpoint, split, cfg)
    try:
        user = split.user_ids.index(args.user, 1)  # slot 0 is the padding entry
    except ValueError:
        raise ConvrecError(f"unknown user id {args.user!r}") from None
    history = split.train[user] + split.validation[user] + split.test[user]
    ranked = recommend_top_n(params, hp, history, user, args.N, exclude_seen=cfg.exclude_seen)
    for rank, (item, score) in enumerate(zip(ranked.items, ranked.scores), start=1):
        print(f"{rank}\t{split.item_ids[item]}\t{score:.6f}")
    return 0


def cmd_mine_rules(args) -> int:
    mining_cfg = rules.MiningConfig(max_order=args.max_order, max_skip=args.max_skip, minsup=args.minsup, minconf=args.minconf)
    cfg = _build_config(args)
    _check_out_dirs(args.out)
    split = _resolve_split(args, cfg)
    parts = [split.train, split.validation, split.test]
    sequences = joined(parts, split.users_with(*parts))
    mined = rules.mine_rules(sequences, mining_cfg)
    csv_text = rules.rules_to_csv(mined, list(split.item_ids))
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
    else:
        sys.stdout.write(csv_text)
    # the defaults are the SI setting: the rules just mined are the SI rules
    si = len(mined) / len(sequences) if mining_cfg == rules.MiningConfig() else rules.sequential_intensity(sequences)
    print(f"rules={len(mined)} users={len(sequences)} SI={si:.4f}")
    return 0


def cmd_ablate(args) -> int:
    cfg = _build_config(args)
    _print_config(cfg)
    masks = [m.strip() for m in args.masks.split(",") if m.strip()]
    ablation.resolve_masks(masks)  # a bad or missing --masks code fails before the split is read
    _check_out_dirs(args.out)
    split = _resolve_split(args, cfg)
    hp = cfg.hyperparams()
    rows = ablation.run_ablation(split, hp, masks, **_train_kwargs(cfg))
    csv_text = ablation.ablation_csv(rows)
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
    print(csv_text, end="")
    return 0


def cmd_grad_check(args) -> int:
    hp = dataclasses.replace(TOY_HP, dropout=args.dropout, l2=args.l2)
    report = gradient_check(hp=hp, seed=args.seed, step=args.step)
    print(report)
    return 0 if report.passed() else 1


def cmd_inspect(args) -> int:
    params, hp = load_checkpoint(args.checkpoint)
    if args.filters:
        print("filter,position,weight")
        for k, row in enumerate(params.v_filters):
            for pos, w in enumerate(row, start=1):
                print(f"{k},{pos},{float(w)!r}")  # repr round-trips exactly
    else:
        print(f"latent_dim={hp.latent_dim} order={hp.order} heights={hp.heights}")
        print(f"users={params.user_count} items={params.item_count}")
        for name, arr in params.tensors():
            print(f"{name}: shape={arr.shape}")
    return 0


def _sweep_trial(payload):
    cfg, hp, split_path, combo = payload
    result = train(load_split(split_path), hp, **_train_kwargs(cfg))
    return combo, result.best_val_map, result.best_epoch


def cmd_sweep(args) -> int:
    cfg = _build_config(args)
    _print_config(cfg)
    if not args.data_dir:
        raise ConfigError("sweep requires --data-dir (run prepare first)")
    split_path = str(Path(args.data_dir) / SPLIT_FILE)
    load_split(split_path)  # fail fast

    grid: dict[str, list[str]] = {}
    for spec in args.grid:
        if "=" not in spec:
            raise ConfigError(f"--grid expects key=v1,v2,... got {spec!r}")
        key, _, values = spec.partition("=")
        key = key.strip()
        grid[key] = [v.strip() for v in values.split(",") if v.strip()]
        if not grid[key]:
            raise ConfigError(f"--grid {key} has no values")
    if not grid:
        raise ConfigError("sweep needs at least one --grid key=v1,v2")

    base_pairs = cfg.to_pairs()
    keys = sorted(grid)
    combos = list(itertools.product(*(grid[k] for k in keys)))
    payloads = []
    for values in combos:  # every trial's config is checked before the first trial trains
        combo = dict(zip(keys, values))
        trial_cfg = RunConfig.from_sources(None, {**base_pairs, **combo})
        payloads.append((trial_cfg, trial_cfg.hyperparams(), split_path, combo))

    results = map_trials(_sweep_trial, payloads, thread_budget(args.jobs))

    print("val_MAP,best_epoch," + ",".join(keys))
    best = None
    for combo, val_map, best_epoch in results:
        print(f"{val_map:.6f},{best_epoch}," + ",".join(combo[k] for k in keys))
        if best is None or val_map > best[1]:
            best = (combo, val_map)
    print("best: " + " ".join(f"{k}={best[0][k]}" for k in keys) + f" val_MAP={best[1]:.6f}")
    return 0


# --------------------------------------------------------------------------

_CONFIG = [  # the options of every subcommand that reads a config
    ("--config", dict(help="flat key = value config file")),
    ("--set", dict(dest="overrides", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key (repeatable)")),
    ("--seed", dict(type=int, help="shortcut for --set seed=...")),
    ("--data", dict(help="shortcut for --set data=...")),
]
_DATA_DIR = ("--data-dir", dict(help="directory written by prepare"))
_CHECKPOINT = ("--checkpoint", dict(required=True))

SUBCOMMANDS = {  # name: (help, handler, options as (flag, add_argument keywords))
    "prepare": ("ingest, filter, and split a dataset", cmd_prepare, [
        *_CONFIG, ("--out", dict(required=True, help="output directory"))]),
    "train": ("train a model", cmd_train, [
        *_CONFIG, _DATA_DIR,
        ("--checkpoint", dict(required=True, help="checkpoint output path")),
        ("--log", dict(help="per-epoch CSV log path")),
        ("--exclude-history", dict(action="store_true",
                                   help="exclude the user's whole training history from negatives")),
        ("--quiet", dict(action="store_true"))]),
    "evaluate": ("evaluate a checkpoint on the held-out part", cmd_evaluate, [
        *_CONFIG, _DATA_DIR, _CHECKPOINT,
        ("--part", dict(choices=("test", "validation"), default="test")),
        ("--csv", dict(help="write the report as CSV")),
        ("--per-user", dict(help="write per-user TSV (user, AP, hits)"))]),
    "recommend": ("top-N recommendations for one user", cmd_recommend, [
        *_CONFIG, _DATA_DIR, _CHECKPOINT,
        ("--user", dict(required=True, help="original user id")), ("--N", dict(type=int, default=10))]),
    "mine-rules": ("mine sequential association rules", cmd_mine_rules, [
        *_CONFIG, _DATA_DIR,
        ("--max-order", dict(type=int, default=rules.MiningConfig.max_order)),
        ("--max-skip", dict(type=int, default=rules.MiningConfig.max_skip)),
        ("--minsup", dict(type=int, default=rules.MiningConfig.minsup)),
        ("--minconf", dict(type=float, default=rules.MiningConfig.minconf)),
        ("--out", dict(help="rule CSV output path (default stdout)"))]),
    "ablate": ("train and evaluate component-masked variants", cmd_ablate, [
        *_CONFIG, _DATA_DIR,
        ("--masks", dict(default="p,v,h,pv,ph,vh,pvh", help="comma list; 'pop' evaluates the popularity baseline")),
        ("--out", dict(help="CSV output path"))]),
    "grad-check": ("finite-difference gradient verification", cmd_grad_check, [
        ("--seed", dict(type=int, default=0)), ("--step", dict(type=float, default=1e-5)),
        ("--dropout", dict(type=float, default=0.0)), ("--l2", dict(type=float, default=0.0))]),
    "inspect": ("dump checkpoint contents", cmd_inspect, [
        _CHECKPOINT, ("--filters", dict(action="store_true", help="dump vertical filter weights as CSV"))]),
    "sweep": ("grid search over config values", cmd_sweep, [
        *_CONFIG, ("--data-dir", dict(required=False)),
        ("--grid", dict(action="append", default=[], metavar="KEY=V1,V2[,...]")),
        ("--jobs", dict(type=int, default=1, help="parallel trials (capped by CASER_THREADS)"))]),
}


class _UsageError(Exception):
    """A usage error met by the parser that lists one subcommand; the message must list them all."""


class _OneCommandParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser(command: str | None = None, every: bool = True) -> argparse.ArgumentParser:
    """The parser with every subcommand listed, or with ``every`` off only ``command``.

    Only ``command`` declares its options: each subcommand and option costs a
    help formatter. The parser of ``command`` alone raises _UsageError where
    a usage error would be printed.
    """
    parser = (argparse.ArgumentParser if every else _OneCommandParser)(prog="convrec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in SUBCOMMANDS.items():
        if not every and name != command:
            continue
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options if name == command else []:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top level takes no option with a value, so the first subcommand name is the subcommand
    command = next((arg for arg in argv if arg in SUBCOMMANDS), None)
    try:
        # Named first, the subcommand takes every later argument, its --help
        # too: only a usage error, which lists every subcommand, needs the rest.
        try:
            args = build_parser(command, every=argv[:1] != [command]).parse_args(argv)
        except _UsageError:
            args = build_parser(command).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe fails here, not at exit
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvrecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # nothing left for the exit flush
        return 1
    except MemoryError as exc:  # an allocation too large for this machine
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output file that cannot be written
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
