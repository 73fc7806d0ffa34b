"""Command-line entry point.

Subcommands: prepare, train, evaluate, recommend, mine-rules, ablate,
grad-check, inspect, sweep. Every run prints its fully resolved config so
experiments can be reproduced from the log alone. Exit codes: 0 success,
1 runtime failure, 2 usage/config error.
"""
from __future__ import annotations

import argparse
import itertools
import os
import sys
from pathlib import Path

from . import ablation, rules
from .checkpoint import STRUCTURAL_KEYS, load_checkpoint, save_checkpoint
from .config import RunConfig, parse_override_args
from .data import build_sequences, chronological_split, load_interactions, load_split, save_split
from .errors import CheckpointError, ConfigError, ConvrecError
from .evaluate import evaluate, recommend_top_n
from .gradients import gradient_check
from .training import train


def _config_parser() -> argparse.ArgumentParser:
    """The config options, declared once and copied into each subcommand that reads a config."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    p.add_argument("--seed", type=int, help="shortcut for --set seed=...")
    p.add_argument("--data", help="shortcut for --set data=...")
    return p


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
        return load_split(str(Path(args.data_dir) / "split.json"))
    if not cfg.data:
        raise ConfigError("either --data-dir or a data path in the config is required")
    interactions = load_interactions(cfg.data, cfg.format)
    seqdata = build_sequences(interactions, cfg.min_feedback)
    return chronological_split(seqdata)


def _load_model(path: str, split, expect_hp=None):
    """Load a checkpoint; refuse it unless its tables fit the split's user and item counts."""
    params, hp = load_checkpoint(path, expect_hp=expect_hp)
    got, want = (params.user_count, params.item_count), (split.user_count, split.item_count)
    if got != want:
        raise CheckpointError(f"{path}: checkpoint has (users, items) = {got}, the split {want}")
    return params, hp


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
    interactions = load_interactions(cfg.data, cfg.format)
    seqdata = build_sequences(interactions, cfg.min_feedback)
    split = chronological_split(seqdata)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_split(str(out / "split.json"), split)
    print(f"users={split.user_count} items={split.item_count}")
    print(f"prepared dataset in {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _build_config(args)
    _print_config(cfg)
    split = _resolve_split(args, cfg)
    hp = cfg.hyperparams()
    result = train(
        split, hp, seed=cfg.seed, epochs=cfg.epochs, batch_size=cfg.batch_size,
        patience=cfg.patience, exclude_history_negatives=cfg.exclude_history_negatives,
        progress=_epoch_printer if not args.quiet else None,
    )
    save_checkpoint(args.checkpoint, result.params, hp)
    Path(args.checkpoint + ".cfg").write_text(cfg.resolved_text(), encoding="utf-8")
    if args.log:
        result.write_log(args.log)
    print(f"best epoch {result.best_epoch}, checkpoint written to {args.checkpoint}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _build_config(args)
    expect = cfg.hyperparams() if cfg.explicit & set(STRUCTURAL_KEYS) else None
    split = _resolve_split(args, cfg)
    params, hp = _load_model(args.checkpoint, split, expect)
    report = evaluate(
        params, hp, split, cutoffs=cfg.eval_cutoffs(), ap_mode=cfg.ap_mode,
        exclude_seen=cfg.exclude_seen, part=args.part, collect_per_user=bool(args.per_user),
    )
    print(report.table())
    if args.csv:
        Path(args.csv).write_text(report.to_csv(), encoding="utf-8")
    if args.per_user:
        with open(args.per_user, "w", encoding="utf-8") as fh:
            fh.write("user\tAP\thits@{}\n".format(max(cfg.eval_cutoffs())))
            for user, ap, hits in report.per_user:
                fh.write(f"{split.user_ids[user]}\t{ap:.6f}\t{hits}\n")
    return 0


def cmd_recommend(args) -> int:
    if args.N < 1:
        raise ConfigError(f"--N must be >= 1, got {args.N}")
    cfg = _build_config(args)
    split = _resolve_split(args, cfg)
    params, hp = _load_model(args.checkpoint, split)
    try:
        user = split.user_ids.index(args.user)
    except ValueError:
        raise ConvrecError(f"unknown user id {args.user!r}") from None
    history = split.train[user] + split.validation[user] + split.test[user]
    ranked = recommend_top_n(params, hp, history, user, args.N, exclude_seen=cfg.exclude_seen)
    for rank, (item, score) in enumerate(zip(ranked.items, ranked.scores), start=1):
        print(f"{rank}\t{split.item_ids[item]}\t{score:.6f}")
    return 0


def cmd_mine_rules(args) -> int:
    cfg = _build_config(args)
    split = _resolve_split(args, cfg)
    sequences = [
        split.train[u] + split.validation[u] + split.test[u]
        for u in split.users()
        if split.train[u] or split.validation[u] or split.test[u]
    ]
    mining_cfg = rules.MiningConfig(
        max_order=args.max_order, max_skip=args.max_skip,
        minsup=args.minsup, minconf=args.minconf,
    )
    mined = rules.mine_rules(sequences, mining_cfg)
    csv_text = rules.rules_to_csv(mined, split.item_ids)
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
    else:
        sys.stdout.write(csv_text)
    si = rules.sequential_intensity(sequences)
    print(f"rules={len(mined)} users={len(sequences)} SI={si:.4f}")
    return 0


def cmd_ablate(args) -> int:
    cfg = _build_config(args)
    _print_config(cfg)
    split = _resolve_split(args, cfg)
    hp = cfg.hyperparams()
    masks = [m.strip() for m in args.masks.split(",") if m.strip()]
    rows = ablation.run_ablation(
        split, hp, masks, seed=cfg.seed, epochs=cfg.epochs,
        batch_size=cfg.batch_size, patience=cfg.patience,
        cutoffs=cfg.eval_cutoffs(),
    )
    csv_text = ablation.ablation_csv(rows)
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
    print(csv_text, end="")
    return 0


def cmd_grad_check(args) -> int:
    hp = None
    if args.dropout or args.l2:
        from .gradients import TOY_HP
        import dataclasses as _dc

        hp = _dc.replace(TOY_HP, dropout=args.dropout, l2=args.l2)
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
    cfg_pairs, split_path, grid_keys = payload
    cfg = RunConfig.from_sources(None, cfg_pairs)
    split = load_split(split_path)
    hp = cfg.hyperparams()
    result = train(
        split, hp, seed=cfg.seed, epochs=cfg.epochs,
        batch_size=cfg.batch_size, patience=cfg.patience,
    )
    combo = {k: cfg_pairs[k] for k in grid_keys}
    return combo, result.best_val_map, result.best_epoch


def cmd_sweep(args) -> int:
    cfg = _build_config(args)
    _print_config(cfg)
    if not args.data_dir:
        raise ConfigError("sweep requires --data-dir (run prepare first)")
    split_path = str(Path(args.data_dir) / "split.json")
    load_split(split_path)  # fail fast

    grid: dict[str, list[str]] = {}
    for spec in args.grid:
        if "=" not in spec:
            raise ConfigError(f"--grid expects key=v1,v2,... got {spec!r}")
        key, _, values = spec.partition("=")
        key = key.strip()
        if key not in RunConfig.field_names():
            raise ConfigError(f"unknown config key in grid: {key}")
        grid[key] = [v.strip() for v in values.split(",") if v.strip()]
    if not grid:
        raise ConfigError("sweep needs at least one --grid key=v1,v2")

    base_pairs = cfg.to_pairs()
    keys = sorted(grid)
    combos = list(itertools.product(*(grid[k] for k in keys)))
    payloads = []
    for combo in combos:
        pairs = dict(base_pairs)
        pairs.update({k: v for k, v in zip(keys, combo)})
        payloads.append((pairs, split_path, keys))

    jobs = max(1, args.jobs)
    cap = os.environ.get("CASER_THREADS")
    if cap:
        try:
            jobs = min(jobs, max(1, int(cap)))
        except ValueError:
            raise ConfigError(f"CASER_THREADS must be an integer, got {cap!r}") from None

    if jobs == 1:
        results = [_sweep_trial(p) for p in payloads]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_trial, payloads))

    print("val_MAP,best_epoch," + ",".join(keys))
    best = None
    for combo, val_map, best_epoch in results:
        print(f"{val_map:.6f},{best_epoch}," + ",".join(combo[k] for k in keys))
        if best is None or val_map > best[1]:
            best = (combo, val_map)
    print("best: " + " ".join(f"{k}={best[0][k]}" for k in keys) + f" val_MAP={best[1]:.6f}")
    return 0


# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="convrec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    config = [_config_parser()]

    p = sub.add_parser("prepare", help="ingest, filter, and split a dataset", parents=config)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model", parents=config)
    p.add_argument("--data-dir", help="directory written by prepare")
    p.add_argument("--checkpoint", required=True, help="checkpoint output path")
    p.add_argument("--log", help="per-epoch CSV log path")
    p.add_argument("--exclude-history", action="store_true",
                   help="exclude the user's whole training history from negatives")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on the held-out part", parents=config)
    p.add_argument("--data-dir", help="directory written by prepare")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--part", choices=("test", "validation"), default="test")
    p.add_argument("--csv", help="write the report as CSV")
    p.add_argument("--per-user", help="write per-user TSV (user, AP, hits)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("recommend", help="top-N recommendations for one user", parents=config)
    p.add_argument("--data-dir", help="directory written by prepare")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--user", required=True, help="original user id")
    p.add_argument("--N", type=int, default=10)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("mine-rules", help="mine sequential association rules", parents=config)
    p.add_argument("--data-dir", help="directory written by prepare")
    p.add_argument("--max-order", type=int, default=5)
    p.add_argument("--max-skip", type=int, default=0)
    p.add_argument("--minsup", type=int, default=5)
    p.add_argument("--minconf", type=float, default=0.5)
    p.add_argument("--out", help="rule CSV output path (default stdout)")
    p.set_defaults(func=cmd_mine_rules)

    p = sub.add_parser("ablate", help="train and evaluate component-masked variants", parents=config)
    p.add_argument("--data-dir", help="directory written by prepare")
    p.add_argument("--masks", default="p,v,h,pv,ph,vh,pvh", help="comma list; 'pop' evaluates the popularity baseline")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("grad-check", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--l2", type=float, default=0.0)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("inspect", help="dump checkpoint contents")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--filters", action="store_true", help="dump vertical filter weights as CSV")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("sweep", help="grid search over config values", parents=config)
    p.add_argument("--data-dir", required=False)
    p.add_argument("--grid", action="append", default=[], metavar="KEY=V1,V2[,...]")
    p.add_argument("--jobs", type=int, default=1, help="parallel trials (capped by CASER_THREADS)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvrecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
