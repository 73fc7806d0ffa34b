#!/usr/bin/env python3
"""Planted-pattern experiment: full model vs personalization-only vs POP.

Generates the synthetic corpus (2000 users, 500 items, length-30 sequences
mixing cluster preferences with an order-2 genre transition table), trains
the full model and the personalization-only variant on five seeds, and
prints the test-MAP table with the margin gates.
"""
import argparse
import sys
import time

from convrec.ablation import evaluate_pop
from convrec.config import HyperParams
from convrec.data import build_sequences, chronological_split
from convrec.evaluate import evaluate
from convrec.model import ComponentMask
from convrec.synthetic import SyntheticSpec, generate_interactions
from convrec.training import train


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--users", type=int, default=2000)
    args = ap.parse_args()

    spec = SyntheticSpec(num_users=args.users)
    split = chronological_split(build_sequences(zip(*generate_interactions(spec)), 1))
    print(f"corpus: {split.user_count} users, {split.item_count} items")

    hp = HyperParams(latent_dim=32, order=5, num_targets=2, heights=(1, 2, 3, 4, 5),
                     num_h_filters=4, num_v_filters=2, dropout=0.5, l2=1e-6, lr=1e-3)
    pop = evaluate_pop(split).mean_ap
    print(f"POP baseline MAP: {pop:.4f}")

    p_mask = ComponentMask(p=True, h=False, v=False)
    rows = []
    for seed in (int(s) for s in args.seeds.split(",")):
        t0 = time.time()
        full = train(split, hp, seed=seed, epochs=args.epochs, batch_size=100, patience=5)
        map_full = evaluate(full.params, hp, split).mean_ap
        p_only = train(split, hp, seed=seed, epochs=args.epochs, batch_size=100,
                       patience=5, comp_mask=p_mask)
        map_p = evaluate(p_only.params, hp, split, comp_mask=p_mask).mean_ap
        gate = map_full >= 1.5 * pop and map_full >= 1.1 * map_p
        rows.append(gate)
        print(f"seed {seed}: pvh {map_full:.4f}  p {map_p:.4f}  "
              f"vsPOP {map_full / pop:.2f}x  vsP {map_full / map_p:.2f}x  "
              f"{'PASS' if gate else 'MISS'}  ({time.time() - t0:.0f}s)")
    print(f"gates passed in {sum(rows)}/{len(rows)} seeds")
    return 0 if sum(rows) >= len(rows) - 1 else 1


if __name__ == "__main__":
    sys.exit(main())
