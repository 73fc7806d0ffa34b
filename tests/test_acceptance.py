"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The planted-pattern experiment (criteria 6 and 7) trains ten models, one
process per CPU, and takes a few minutes; everything else is fast.
"""
import os
import time

import numpy as np
import pytest

from convrec.ablation import evaluate_pop
from convrec.checkpoint import load_checkpoint
from convrec.cli import main as cli_main
from convrec.config import HyperParams, thread_budget
from convrec.data import ItemLists, build_sequences, chronological_split
from convrec.evaluate import evaluate, metrics_for_ranking, ranked_order
from convrec.gradients import gradient_check
from convrec.model import FULL_MASK, ComponentMask, init_params, vertical_conv
from convrec.rules import MiningConfig, mine_rules
from convrec.synthetic import SyntheticSpec, generate_interactions
from convrec.training import map_trials, train


def _report(number: int, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number}: {status}{' — ' + detail if detail else ''}")
    assert passed, f"criterion {number} failed: {detail}"


# --------------------------------------------------------------------------
# 1. gradient correctness on the toy configuration

def test_criterion_1_gradient_check():
    start = time.monotonic()
    report = gradient_check(seed=0, num_instances=2, step=1e-5)
    elapsed = time.monotonic() - start
    worst = max(tc.max_rel_err for tc in report.per_tensor.values())
    _report(
        1,
        report.passed() and elapsed < 30.0,
        f"max rel err {worst:.2e} over {len(report.per_tensor)} tensors in {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 2. sliding vertical convolution == weighted row sum

def test_criterion_2_vertical_identity():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        L = int(rng.integers(1, 10))
        d = int(rng.integers(1, 60))
        k = int(rng.integers(1, 6))
        E = rng.normal(size=(L, d))
        filters = rng.normal(size=(k, L))
        fast = vertical_conv(E, filters)
        slid = np.concatenate(
            [[float(np.dot(f, E[:, j])) for j in range(d)] for f in filters]
        )
        worst = max(worst, float(np.max(np.abs(fast - slid))))
    elapsed = time.monotonic() - start
    _report(2, worst < 1e-12 and elapsed < 5.0, f"max abs diff {worst:.1e} in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 3. conv-free masking reduces exactly to the latent-factor form

def test_criterion_3_reduction_identity():
    hp = HyperParams(latent_dim=12, order=5, num_targets=2, heights=(1, 2, 3, 4, 5),
                     num_h_filters=2, num_v_filters=2, dropout=0.0, l2=0.0)
    rng = np.random.default_rng(33)
    params = init_params(hp, 100, 200, rng)
    params.fc_b[:] = rng.normal(size=hp.latent_dim)  # biases must not leak through
    params.out_b[1:] = rng.normal(size=200)
    from convrec.batch import batch_forward

    mask = ComponentMask(p=True, h=False, v=False)
    ok = True
    for user in range(1, 101):
        prev = rng.integers(1, 201, size=hp.order)
        scores = batch_forward(params, hp, prev[None], np.array([user]), mask).scores[0]
        direct = params.out_w[:, hp.latent_dim :] @ params.user_emb[user] + params.out_b
        direct[0] = -np.inf
        if not np.array_equal(ranked_order(scores), ranked_order(direct)):
            ok = False
            break
    _report(3, ok, "rankings identical for 100 random users")


# --------------------------------------------------------------------------
# 4. metrics against a brute-force reference

def _ref_prec_recall(ranked, relevant, n):
    top = set(ranked[:n])
    return len(top & relevant) / n, len(top & relevant) / len(relevant)


def _ref_ap(ranked, relevant, mode, cutoff):
    num = 0.0
    for n in range(1, cutoff + 1):
        if ranked[n - 1] in relevant:
            num += len(set(ranked[:n]) & relevant) / n
    denom = cutoff if mode == "paper_literal" else min(len(relevant), cutoff)
    return num / denom if denom else 0.0


def _metrics_of_list(ranked, relevant, n, mode="standard"):
    """metrics_for_ranking on one score row that ranks ranked[:n] in list order:
    n..1 there and -inf in every other column, so n items are eligible."""
    row = np.full((1, max(ranked + list(relevant)) + 1), -np.inf)
    row[0, ranked[:n]] = np.arange(n, 0, -1)
    precision, recall, ap = metrics_for_ranking(row, ItemLists.of([relevant]), (n,), mode)
    return float(precision[0, 0]), float(recall[0, 0]), float(ap[0])


def test_criterion_4_metric_oracle():
    rng = np.random.default_rng(4)
    exact = True
    for _ in range(1000):
        universe = int(rng.integers(3, 50))
        ranked = [int(x) for x in rng.permutation(np.arange(1, universe + 1))]
        n_rel = int(rng.integers(1, universe))
        relevant = set(
            int(x) for x in rng.choice(np.arange(1, universe + 1), size=n_rel, replace=False)
        )
        n = int(rng.integers(1, universe + 1))
        cutoff = int(rng.integers(1, universe + 1))
        if _metrics_of_list(ranked, relevant, n)[:2] != _ref_prec_recall(ranked, relevant, n):
            exact = False
            break
        for mode in ("standard", "paper_literal"):
            got = _metrics_of_list(ranked, relevant, cutoff, mode)[2]
            want = _ref_ap(ranked, relevant, mode, cutoff)
            if abs(got - want) > 1e-12:
                exact = False
                break
        if not exact:
            break
    hand = _metrics_of_list([4, 8, 9, 1], {4, 9}, 4)[2]
    hand_ok = abs(hand - 5.0 / 6.0) <= 1e-12
    _report(4, exact and hand_ok, f"1000 random instances exact; hand case AP={hand:.4f}")


# --------------------------------------------------------------------------
# 5. rule miner vs exhaustive enumeration

def test_criterion_5_rule_miner_oracle():
    from tests.test_rules import brute_force_rules

    start = time.monotonic()
    rng = np.random.default_rng(5)
    identical = True
    for corpus in range(50):
        n_seqs = int(rng.integers(1, 51))
        alphabet = int(rng.integers(2, 16))
        seqs = [
            [int(x) for x in rng.integers(0, alphabet, size=rng.integers(1, 21))]
            for _ in range(n_seqs)
        ]
        cfg = MiningConfig(
            max_order=int(rng.integers(1, 6)),
            max_skip=int(rng.integers(0, 3)),
            minsup=int(rng.integers(1, 5)),
            minconf=float(rng.uniform(0.05, 1.0)),
        )
        if mine_rules(seqs, cfg) != brute_force_rules(seqs, cfg):
            identical = False
            break
    elapsed = time.monotonic() - start
    _report(5, identical and elapsed < 60.0, f"50 corpora, skips 0-2, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 6 & 7. planted-pattern end-to-end gates

GATE_HP = HyperParams(
    latent_dim=32, order=5, num_targets=2, heights=(1, 2, 3, 4, 5),
    num_h_filters=4, num_v_filters=2, dropout=0.5, l2=1e-6, lr=1e-3,
)
GATE_SEEDS = (1, 2, 3, 4, 5)


def _gate_map(payload):
    """Test MAP of one planted-pattern training, run in a worker process of map_trials."""
    split, seed, mask = payload
    result = train(split, GATE_HP, seed=seed, epochs=30, batch_size=100, patience=5, comp_mask=mask)
    return evaluate(result.params, GATE_HP, split, comp_mask=mask).mean_ap


@pytest.fixture(scope="module")
def planted_runs():
    rows = generate_interactions(SyntheticSpec())  # 2000 users, 500 items, len 30
    split = chronological_split(build_sequences(zip(*rows), 1))
    pop_map = evaluate_pop(split).mean_ap
    start = time.monotonic()
    p_mask = ComponentMask(p=True, h=False, v=False)
    payloads = [(split, seed, mask) for seed in GATE_SEEDS for mask in (FULL_MASK, p_mask)]
    maps = map_trials(_gate_map, payloads, thread_budget())  # one process per CPU
    runs = [(seed, maps[2 * k], maps[2 * k + 1]) for k, seed in enumerate(GATE_SEEDS)]
    return {"pop": pop_map, "runs": runs, "elapsed": time.monotonic() - start}


def test_criterion_6_planted_pattern_gates(planted_runs):
    pop = planted_runs["pop"]
    wins = 0
    lines = []
    for seed, map_pvh, map_p in planted_runs["runs"]:
        ok = map_pvh >= 1.5 * pop and map_pvh >= 1.1 * map_p
        wins += ok
        lines.append(f"seed {seed}: pvh={map_pvh:.4f} p={map_p:.4f} pop={pop:.4f} {'ok' if ok else 'MISS'}")
    elapsed = planted_runs["elapsed"]
    detail = f"{wins}/5 seeds pass margins in {elapsed:.0f}s; " + "; ".join(lines)
    _report(6, wins >= 4 and elapsed < 900.0, detail)


def test_criterion_7_ablation_ordering(planted_runs):
    runs = planted_runs["runs"]
    mean_pvh = float(np.mean([r[1] for r in runs]))
    mean_p = float(np.mean([r[2] for r in runs]))
    per_seed = sum(1 for _, a, b in runs if a >= b)
    _report(
        7,
        mean_pvh >= mean_p and per_seed >= 4,
        f"mean MAP pvh={mean_pvh:.4f} >= p={mean_p:.4f}; ordering holds in {per_seed}/5 seeds",
    )


# --------------------------------------------------------------------------
# 8. optional real-data reproduction (non-gating; runs only when data present)

ML1M_ENV = "CONVREC_ML1M"


@pytest.mark.skipif(ML1M_ENV not in os.environ, reason="set CONVREC_ML1M to a ratings.dat-style TSV to run")
def test_criterion_8_movielens_reproduction():
    from convrec.data import load_interactions

    path = os.environ[ML1M_ENV]
    interactions = load_interactions(path, fmt="tsv")
    split = chronological_split(build_sequences(interactions, min_feedback=5))
    hp = HyperParams(latent_dim=50, order=5, num_targets=3, heights=(1, 2, 3, 4, 5),
                     num_h_filters=16, num_v_filters=4, dropout=0.5, l2=1e-6, lr=1e-3)
    result = train(split, hp, seed=1, epochs=30, batch_size=100, patience=5)
    report = evaluate(result.params, hp, split)
    target = 0.1507
    ok = abs(report.mean_ap - target) <= 0.15 * target
    _report(8, ok, f"MAP {report.mean_ap:.4f} vs reference {target} +/- 15%")


# --------------------------------------------------------------------------
# 9. bitwise-deterministic training through the CLI

def test_criterion_9_train_determinism(tmp_path):
    rows = generate_interactions(
        SyntheticSpec(num_users=40, num_items=60, seq_len=14, num_genres=6,
                      num_clusters=3, genres_per_cluster=2, num_special_pairs=3, seed=77)
    )
    data = tmp_path / "log.tsv"
    with open(data, "w") as fh:
        for r in rows:
            fh.write(f"{r.user}\t{r.item}\t{int(r.timestamp)}\n")
    args = ["--data", str(data), "--quiet", "--seed", "5",
            "--set", "min_feedback=1", "--set", "latent_dim=8", "--set", "order=4",
            "--set", "heights=1,2,3,4", "--set", "num_h_filters=2", "--set", "num_v_filters=2",
            "--set", "num_targets=2", "--set", "epochs=3", "--set", "batch_size=32"]
    ck1, ck2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    assert cli_main(["train", "--checkpoint", ck1] + args) == 0
    assert cli_main(["train", "--checkpoint", ck2] + args) == 0
    identical = open(ck1, "rb").read() == open(ck2, "rb").read()
    # and the tensors load back bit-exact
    pa, _ = load_checkpoint(ck1)
    pb, _ = load_checkpoint(ck2)
    tensors_equal = all(np.array_equal(x, y) for (_, x), (_, y) in zip(pa.tensors(), pb.tensors()))
    _report(9, identical and tensors_equal, "two runs produced byte-identical checkpoints")
