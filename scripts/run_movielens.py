#!/usr/bin/env python3
"""MovieLens-1M protocol run: n=5 filtering, 70/10/20 split, full training.

Expects the ratings file (UserID::MovieID::Rating::Timestamp). Convert the
'::' separators first, e.g.:

    sed 's/::/\t/g' ml-1m/ratings.dat > ml1m.tsv
    python scripts/run_movielens.py --data ml1m.tsv

The reference point for this protocol is MAP around 0.15 with tuned
hyperparameters; the defaults below are the tuned single-run settings.
A full run takes on the order of an hour on a 4-core desktop.
"""
import argparse
import sys
import time

from convrec.config import HyperParams
from convrec.data import build_sequences, chronological_split, load_interactions
from convrec.evaluate import evaluate
from convrec.rules import sequential_intensity
from convrec.training import train


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data", required=True, help="tab-separated user item rating timestamp")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--latent-dim", type=int, default=50)
    ap.add_argument("--order", type=int, default=5)
    ap.add_argument("--targets", type=int, default=3)
    ap.add_argument("--skip-intensity", action="store_true",
                    help="skip the sequential-intensity computation")
    args = ap.parse_args()

    interactions = load_interactions(args.data, fmt="tsv")
    data = build_sequences(interactions, min_feedback=5)
    print(f"{len(data.user_ids) - 1} users, {len(data.item_ids) - 1} items after filtering")
    if not args.skip_intensity:
        si = sequential_intensity(data.seqs.span(1, len(data.seqs)))  # slot 0 is no user's sequence
        print(f"sequential intensity: {si:.4f}")
    split = chronological_split(data)

    hp = HyperParams(latent_dim=args.latent_dim, order=args.order, num_targets=args.targets,
                     heights=tuple(range(1, args.order + 1)), num_h_filters=16,
                     num_v_filters=4, dropout=0.5, l2=1e-6, lr=1e-3)
    t0 = time.time()
    result = train(
        split, hp, seed=args.seed, epochs=args.epochs, batch_size=100, patience=5,
        progress=lambda r: print(
            f"epoch {r.epoch:3d} loss {r.train_loss:.4f} val_MAP {r.val_map:.4f} ({r.wall_ms:.0f} ms)"
        ),
    )
    print(f"training finished in {time.time() - t0:.0f}s, best epoch {result.best_epoch}")
    report = evaluate(result.params, hp, split)
    print(report.table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
