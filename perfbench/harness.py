"""Workloads, pipeline stages and correctness checks of the convrec benchmark.

One Run goes through the user's pipeline (prepare, train, evaluate, POP,
recommend, the recommend CLI and mine-rules) by calling the package's public
functions, and times those calls from here with a calibration.Clock. Every
package function is looked up on its module at call time, so a Tracer that
wraps it sees the call.
"""
from __future__ import annotations

import contextlib
import dataclasses
import importlib
import inspect
import io
import math
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from convrec.config import HyperParams
from convrec.rules import MiningConfig
from convrec.synthetic import SyntheticSpec, generate_interactions
from calibration import Clock, Sample
from spans import Tracer, patched

# Resolved through sys.modules: the package attribute ``convrec.evaluate`` is
# the function, not the submodule.
data = importlib.import_module("convrec.data")
model = importlib.import_module("convrec.model")
training = importlib.import_module("convrec.training")
evaluation = importlib.import_module("convrec.evaluate")
ablation = importlib.import_module("convrec.ablation")
checkpoint = importlib.import_module("convrec.checkpoint")
rules = importlib.import_module("convrec.rules")
cli = importlib.import_module("convrec.cli")

MIN_ROUNDS = 3
EPOCHS = 1
BATCH_SIZE = 100
TOP_N = 10
WARMUP_REQUESTS = 20
# p99 is the median of the p99s of consecutive blocks of this many requests;
# each block has ten samples beyond its p99
P99_BLOCK = 1000
CHECK_USERS = 20
# Tracing overhead: traced and untraced calls alternate, median of the pairs.
OVERHEAD_PAIRS = 5
OVERHEAD_REQUESTS = 200
OVERHEAD_USER_SHARE = 10  # train and evaluate on the first 1/10 of the users
# Called once a training step or once a ranked user: the Clock ticks on them
# inside train(), evaluate() and evaluate_pop().
TICK_TARGETS = [
    "convrec.training:sample_negative_batch",
    "convrec.evaluate:metrics_for_ranking",
    "convrec.ablation:metrics_for_ranking",
]
# The CLI defaults find no rules on the planted corpus; these find about 4k.
MINING = MiningConfig(max_skip=2, minsup=2, minconf=0.1)

# The acceptance suite's planted-pattern gate hyperparameters.
GATE_HP = HyperParams(
    latent_dim=32, order=5, num_targets=2, heights=(1, 2, 3, 4, 5),
    num_h_filters=4, num_v_filters=2, dropout=0.5, l2=1e-6, lr=1e-3,
)

END_TO_END = {
    "setup_s": "s",
    "train_inst_per_s": "inst/s",
    "eval_users_per_s": "users/s",
    "pop_eval_users_per_s": "users/s",
    "recommend_p50_ms": "ms",
    "recommend_p99_ms": "ms",
    "cli_recommend_ms": "ms",
    "mine_seqs_per_s": "seqs/s",
    "train_loss": "nats",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "data.load_interactions_s": "s",
    "data.build_sequences_s": "s",
    "data.chronological_split_s": "s",
    "data.generate_instances_s": "s",
    "data.load_split_s": "s",
    "model.init_params_s": "s",
    "model.forward_s": "s",
    "model.forward_calls": "count",
    "batch.loss_and_grads_s": "s",
    "batch.loss_and_grads_calls": "count",
    "batch.forward_s": "s",
    "batch.backward_self_s": "s",
    "gradients.zeros_like_s": "s",
    "training.adam_step_s": "s",
    "training.adam_step_calls": "count",
    "training.sample_negative_batch_s": "s",
    "training.sample_negative_batch_calls": "count",
    "training.val_evaluate_s": "s",
    "training.self_s": "s",
    "training.adam_bytes_per_step": "B",
    "training.touched_row_frac.item_emb": "frac",
    "training.touched_row_frac.out_w": "frac",
    "evaluate.score_matrix_s": "s",
    "evaluate.ranked_order_s": "s",
    "evaluate.ranked_order_calls": "count",
    "evaluate.ranked_items": "count",
    "evaluate.metrics_s": "s",
    "evaluate.test_map": "MAP",
    "ablation.evaluate_pop_s": "s",
    "ablation.ranked_order_s": "s",
    "checkpoint.save_s": "s",
    "checkpoint.load_s": "s",
    "checkpoint.bytes": "B",
    "rules.mine_rules_s": "s",
    "rules.count": "count",
    "cli.recommend_self_s": "s",
    "trace.train_ratio": "ratio",
    "trace.eval_ratio": "ratio",
    "trace.recommend_ratio": "ratio",
}


@dataclass(frozen=True)
class Round:
    """Besides one setup, one evaluate and one evaluate_pop, a round does:"""

    requests: int
    cli_calls: int
    minings: int


@dataclass(frozen=True)
class Workload:
    spec: SyntheticSpec  # its seed is replaced by --seed
    hp: HyperParams
    # train() runs (run_ablation runs with masks), EPOCHS epochs each; at most
    # MIN_ROUNDS, so that a one-round run trains once
    trains: int
    work: Round
    masks: tuple[str, ...] = ()  # run_ablation masks; empty trains one full model


_SMOKE_SPEC = SyntheticSpec(num_users=60, num_items=80, seq_len=14, num_genres=8, num_clusters=4,
                            genres_per_cluster=2, num_special_pairs=4)
_SMOKE_HP = HyperParams(latent_dim=8, order=3, num_targets=2, num_h_filters=2, num_v_filters=2)

WORKLOADS = {
    "planted-500": Workload(SyntheticSpec(), HyperParams(), 3, Round(2000, 10, 1)),
    "planted-large": Workload(SyntheticSpec(num_users=1000, num_items=50000), HyperParams(), 1, Round(1000, 3, 3)),
    "ablate-gate": Workload(SyntheticSpec(), GATE_HP, 3, Round(2000, 10, 1), ("pop", "p", "pvh")),
    # tiny corpora for the harness's own smoke test
    "smoke": Workload(_SMOKE_SPEC, _SMOKE_HP, 2, Round(1000, 2, 1)),
    "smoke-ablate": Workload(_SMOKE_SPEC, _SMOKE_HP, 2, Round(1000, 2, 1), ("pop", "p", "pvh")),
}


_STEP_SIGNATURE = inspect.signature(importlib.import_module("convrec.batch").batch_loss_and_grads)


def _step_rows(args, kwargs, result):
    return _STEP_SIGNATURE.bind(*args, **kwargs).arguments


def _adam_bytes(args, kwargs, result):
    # parameter, gradient and both moments of every tensor the update reads
    return 4 * sum(arr.nbytes for _, arr in args[0].tensors())


# (where the caller looks the name up, span name, what to keep per call)
TRACE_TARGETS = [
    ("convrec.data:load_interactions", "data.load_interactions", None),
    ("convrec.data:build_sequences", "data.build_sequences", None),
    ("convrec.data:chronological_split", "data.chronological_split", None),
    ("convrec.data:generate_instances", "data.generate_instances", None),
    ("convrec.training:generate_instances", "data.generate_instances", None),
    ("convrec.cli:load_split", "data.load_split", None),
    ("convrec.model:init_params", "model.init_params", None),
    ("convrec.training:init_params", "model.init_params", None),
    ("convrec.evaluate:forward", "model.forward", None),
    ("convrec.training:batch_loss_and_grads", "batch.loss_and_grads", _step_rows),
    ("convrec.batch:batch_forward", "batch.forward", None),
    ("convrec.evaluate:batch_forward", "batch.forward", None),
    ("convrec.gradients:GradientSet.zeros_like", "gradients.zeros_like", None),
    ("convrec.training:train", "training.train", None),
    ("convrec.ablation:train", "training.train", None),
    ("convrec.training:adam_step", "training.adam_step", _adam_bytes),
    ("convrec.training:sample_negative_batch", "training.sample_negative_batch", None),
    # train() imports evaluate from convrec.evaluate for its validation pass
    ("convrec.evaluate:evaluate", "evaluate.evaluate", None),
    ("convrec.ablation:evaluate", "evaluate.evaluate", None),
    ("convrec.evaluate:score_matrix", "evaluate.score_matrix", None),
    ("convrec.evaluate:ranked_order", "evaluate.ranked_order", lambda a, k, r: a[0].size),
    ("convrec.evaluate:metrics_for_ranking", "evaluate.metrics", None),
    ("convrec.evaluate:recommend_top_n", "evaluate.recommend_top_n", None),
    ("convrec.cli:recommend_top_n", "evaluate.recommend_top_n", None),
    ("convrec.ablation:evaluate_pop", "ablation.evaluate_pop", None),
    ("convrec.ablation:ranked_order", "ablation.ranked_order", None),
    ("convrec.ablation:run_ablation", "ablation.run_ablation", None),
    ("convrec.checkpoint:save_checkpoint", "checkpoint.save", None),
    ("convrec.cli:load_checkpoint", "checkpoint.load", None),
    ("convrec.rules:mine_rules", "rules.mine_rules", None),
    ("convrec.cli:main", "cli.main", None),
]


def full_tracer() -> Tracer:
    tracer = Tracer()
    for target, span, keep in TRACE_TARGETS:
        tracer.wrap(target, span, keep)
    return tracer


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def _spread(total: int, rounds: int) -> list[int]:
    """Split ``total`` repetitions as evenly as possible over the rounds."""
    return [total * (r + 1) // rounds - total * r // rounds for r in range(rounds)]


class Run:
    """One pass through the pipeline, its end-to-end metrics and its checks.

    After a first setup and training, the run repeats the same round of work
    until ``seconds`` have passed since it began, and at least ``min_rounds``
    times; the further trainings are spread over the first MIN_ROUNDS rounds.
    It reports medians of the samples as ``clock`` scales them; with
    ``reference`` off, of the plain wall times.
    """

    def __init__(self, name: str, seed: int, seconds: float, workdir: Path, min_rounds: int = MIN_ROUNDS,
                 reference: bool = True):
        self.workload = WORKLOADS[name]
        self.clock = Clock(reference)
        self.seed = seed
        self.seconds = seconds
        self.min_rounds = min_rounds
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.metrics: dict[str, float] = {}
        self.info: dict[str, float] = {}

    def verify(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    # ------------------------------------------------------------------ stages

    def execute(self) -> None:
        with self.clock.hooks(TICK_TARGETS):
            self._execute()
        self.info["rounds"] = self.rounds
        self.info["run_s"] = time.perf_counter() - self.start
        self.info["slowdown"] = self.clock.slowdown()
        self._summarise()

    def _execute(self) -> None:
        w, work = self.workload, self.workload.work
        self.workdir.mkdir(parents=True, exist_ok=True)
        rows = generate_interactions(dataclasses.replace(w.spec, seed=self.seed))
        self.setup_s, self.train_s, self.eval_s, self.pop_s, self.mine_s = [], [], [], [], []
        self.trainings, self.reports, self.pop_reports, self.cli_outputs = [], [], [], []
        self.latency: list[Sample] = []
        self.cli_s: list[Sample] = []
        self.check_users: list[int] = []
        self.start = time.perf_counter()
        self._setup(rows)
        self._train()
        self._prepare_serving()
        trains = _spread(w.trains - 1, MIN_ROUNDS)
        self.rounds = 0
        while self.rounds < self.min_rounds or time.perf_counter() - self.start < self.seconds:
            self._setup(rows)
            for _ in range(trains[self.rounds] if self.rounds < MIN_ROUNDS else 0):
                self._train()
            self._evaluate()
            self._evaluate_pop()
            for stage, count in [(self._recommend, work.requests), (self._cli_recommend, work.cli_calls),
                                 (self._mine, work.minings)]:
                for _ in range(count):
                    stage()
            self.rounds += 1
        del self.latency[:WARMUP_REQUESTS], self.cli_s[0]

    def _summarise(self) -> None:
        m, info, results = self.metrics, self.info, self.trainings[0]

        def median_s(samples: list[Sample]) -> float:
            return statistics.median(self.clock.seconds(samples))

        m["setup_s"] = median_s(self.setup_s)
        # run_ablation trains several models; a training is all of their train() calls
        info["train_s"] = statistics.median(sum(self.clock.seconds(group)) for group in self.train_s)
        m["train_inst_per_s"] = self.instances * sum(len(r.log) for r in results) / info["train_s"]
        m["train_loss"] = results[-1].log[-1].train_loss
        info["eval_s"] = median_s(self.eval_s)
        m["eval_users_per_s"] = self.reports[0].users_evaluated / info["eval_s"]
        info["test_map"] = self.reports[0].mean_ap
        m["pop_eval_users_per_s"] = self.pop_reports[0].users_evaluated / median_s(self.pop_s)
        # p99 over blocks, so that one burst of interference does not set it
        latency = self.clock.seconds(self.latency)
        blocks = range(0, len(latency) - P99_BLOCK + 1, P99_BLOCK)
        p99 = statistics.median(np.percentile(latency[b : b + P99_BLOCK], 99) for b in blocks)
        m["recommend_p50_ms"], m["recommend_p99_ms"] = np.percentile(latency, 50) * 1e3, p99 * 1e3
        info["recommend_samples"] = len(latency)
        m["cli_recommend_ms"] = median_s(self.cli_s) * 1e3
        m["mine_seqs_per_s"] = len(self.sequences) / median_s(self.mine_s)
        m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def _setup(self, rows) -> None:
        sample, (split, instances) = self.clock.timed(self._prepare, rows)
        self.setup_s.append(sample)
        self.attempted += 1
        if len(self.setup_s) == 1:
            self.split, self.instances = split, len(instances)
        else:
            self.verify("setup repeatable", split == self.split and len(instances) == self.instances)

    def _prepare(self, rows):
        """Everything before training: write the log, load, split, make instances, init."""
        hp = self.workload.hp
        log = self.workdir / "log.tsv"
        with open(log, "w", encoding="utf-8") as fh:
            fh.writelines(f"{r.user}\t{r.item}\t{r.timestamp!r}\n" for r in rows)
        interactions = data.load_interactions(str(log))
        split = data.chronological_split(data.build_sequences(interactions, 1))
        instances = data.generate_instances(split, hp.order, hp.num_targets, "train")
        model.init_params(hp, split.user_count, split.item_count, np.random.default_rng([self.seed, 1]))
        return split, instances

    def _train(self) -> None:
        w, split = self.workload, self.split
        if not w.masks:
            sample, result = self.clock.timed(
                training.train, split, w.hp, seed=self.seed, epochs=EPOCHS,
                batch_size=BATCH_SIZE, patience=EPOCHS,
            )
            self.train_s.append([sample])
            self.trainings.append([result])
        else:
            # time the train() calls that run_ablation makes
            calls = []

            def timing(fn):
                def wrapper(*args, **kwargs):
                    calls.append(self.clock.timed(fn, *args, **kwargs))
                    return calls[-1][1]

                return wrapper

            with patched("convrec.ablation:train", timing):
                self.ablation_rows = ablation.run_ablation(
                    split, w.hp, list(w.masks), seed=self.seed, epochs=EPOCHS,
                    batch_size=BATCH_SIZE, patience=EPOCHS,
                )
            self.train_s.append([sample for sample, _ in calls])
            self.trainings.append([result for _, result in calls])
        self.attempted += 1

    def _prepare_serving(self) -> None:
        """The CLI's inputs, a warm-up request and a warm-up CLI call."""
        split = self.split
        # the last model trained is the full one (pvh) in every workload
        self.params = self.trainings[0][-1].params
        self.history = {u: split.train[u] + split.validation[u] + split.test[u] for u in split.users()}
        self.served_users = np.array([u for u, h in self.history.items() if h], dtype=np.int64)
        self.sequences = [h for h in self.history.values() if h]
        data.save_split(str(self.workdir / "split.json"), split)
        self.checkpoint_path = self.workdir / "model.ckpt"
        checkpoint.save_checkpoint(str(self.checkpoint_path), self.params, self.workload.hp)
        self.info["checkpoint_bytes"] = self.checkpoint_path.stat().st_size
        self.request_rng = np.random.default_rng([self.seed, 2])
        self.cli_rng = np.random.default_rng([self.seed, 3])
        for _ in range(WARMUP_REQUESTS):
            self._recommend()
        self._cli_recommend()

    def _evaluate(self) -> None:
        sample, report = self.clock.timed(evaluation.evaluate, self.params, self.workload.hp, self.split)
        self.eval_s.append(sample)
        self.reports.append(report)
        self.attempted += 1

    def _evaluate_pop(self) -> None:
        sample, report = self.clock.timed(ablation.evaluate_pop, self.split)
        self.pop_s.append(sample)
        self.pop_reports.append(report)
        self.attempted += 1

    def _recommend(self) -> None:
        """One request of a closed loop with one client."""
        u = int(self.request_rng.choice(self.served_users))
        history = self.history[u]
        sample, ranked = self.clock.timed(
            evaluation.recommend_top_n, self.params, self.workload.hp, history, u, TOP_N
        )
        self.latency.append(sample)
        expected = min(TOP_N, self.split.item_count - len(set(history)))
        self.verify("recommend_top_n returns the top N", len(ranked.items) == expected)
        if len(self.check_users) < CHECK_USERS and u not in self.check_users:
            self.check_users.append(u)

    def _cli_recommend(self) -> None:
        """Cold read path: load_split, load_checkpoint, forward and rank."""
        u = int(self.cli_rng.choice(self.served_users))
        argv = ["recommend", "--data-dir", str(self.workdir), "--checkpoint", str(self.checkpoint_path),
                "--user", self.split.user_ids[u], "--N", str(TOP_N)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            sample, code = self.clock.timed(cli.main, argv)
        self.cli_s.append(sample)
        self.cli_outputs.append((u, code, out.getvalue()))
        self.attempted += 1

    def _mine(self) -> None:
        sample, result = self.clock.timed(rules.mine_rules, self.sequences, MINING)
        self.mine_s.append(sample)
        if len(self.mine_s) == 1:
            self.mined = result
            self.attempted += 1
        else:
            self.verify("mine_rules repeatable", result == self.mined)

    # ------------------------------------------------------------------ checks

    def check(self) -> None:
        """Correctness of the outputs, run untraced after the pipeline."""
        split, first = self.split, self.trainings[0]
        self.verify("train ran every epoch with a finite loss", all(
            len(r.log) == EPOCHS and all(math.isfinite(e.train_loss) for e in r.log) for r in first
        ))
        self.verify("train repeatable, bitwise", all(
            len(again) == len(first) and all(params_bitwise_equal(a.params, b.params) for a, b in zip(again, first))
            for again in self.trainings[1:]
        ))
        expected_users = sum(1 for u in split.users() if split.test[u])
        self.verify("evaluate users_evaluated", all(r.users_evaluated == expected_users for r in self.reports))
        self.verify("evaluate_pop users_evaluated",
                    all(r.users_evaluated == expected_users for r in self.pop_reports))
        self.verify("evaluate repeatable", len({r.mean_ap for r in self.reports}) == 1)
        self.verify("test_map in (0, 1]", 0.0 < self.info["test_map"] <= 1.0)
        if self.workload.masks:
            pvh = [r for r in self.ablation_rows if r.mask == "pvh"]
            self.verify("run_ablation pvh MAP equals evaluate",
                        len(pvh) == 1 and pvh[0].mean_ap == self.info["test_map"])
        self.verify("recommend_top_n equals score_matrix + ranked_order", self._top_n_agrees())
        self.verify("checkpoint round trip is bitwise", self._round_trip_bitwise())
        self.verify("cli recommend prints recommend_top_n", self._cli_agrees())
        self.verify("mined rules meet minsup and minconf", self._rules_recount())

    def _top_n_agrees(self) -> bool:
        hp = self.workload.hp
        histories = [self.history[u] for u in self.check_users]
        scores = evaluation.score_matrix(self.params, hp, histories, self.check_users)
        for row, u in enumerate(self.check_users):
            s = scores[row].copy()
            s[np.asarray(histories[row], dtype=np.int64)] = -np.inf
            top = evaluation.ranked_order(s)[: min(TOP_N, int(np.isfinite(s).sum()))]
            ranked = evaluation.recommend_top_n(self.params, hp, histories[row], u, TOP_N)
            if not np.array_equal(top, ranked.items):
                return False
        return True

    def _round_trip_bitwise(self) -> bool:
        loaded, hp = checkpoint.load_checkpoint(str(self.checkpoint_path))
        return hp == self.workload.hp and params_bitwise_equal(loaded, self.params)

    def _cli_agrees(self) -> bool:
        for u, code, out in self.cli_outputs:
            ranked = evaluation.recommend_top_n(self.params, self.workload.hp, self.history[u], u, TOP_N)
            expected = "".join(
                f"{rank}\t{self.split.item_ids[item]}\t{score:.6f}\n"
                for rank, (item, score) in enumerate(zip(ranked.items, ranked.scores), start=1)
            )
            if code != 0 or out != expected:
                return False
        return True

    def _rules_recount(self) -> bool:
        """Recount every rule's support and confidence from the sequences."""
        antecedents = {r.antecedent for r in self.mined}
        ante_sids: dict[tuple, set] = defaultdict(set)
        rule_sids: dict[tuple, set] = defaultdict(set)
        for sid, seq in enumerate(self.sequences):
            for end in range(len(seq)):
                for k in range(1, min(MINING.max_order, end + 1) + 1):
                    pattern = tuple(seq[end - k + 1 : end + 1])
                    if pattern not in antecedents:
                        continue
                    ante_sids[pattern].add(sid)
                    for skip in range(MINING.max_skip + 1):
                        if end + skip + 1 < len(seq):
                            rule_sids[(pattern, skip, seq[end + skip + 1])].add(sid)
        keys = {(r.antecedent, r.skip, r.consequent) for r in self.mined}
        if len(keys) != len(self.mined):
            return False
        for r in self.mined:
            support = len(rule_sids[(r.antecedent, r.skip, r.consequent)])
            confidence = support / len(ante_sids[r.antecedent])
            if r.support != support or r.confidence != confidence:
                return False
            if support < MINING.minsup or confidence < MINING.minconf:
                return False
        return True


def params_bitwise_equal(a, b) -> bool:
    ta, tb = list(a.tensors()), list(b.tensors())
    return len(ta) == len(tb) and all(
        na == nb and x.shape == y.shape and x.tobytes() == y.tobytes() for (na, x), (nb, y) in zip(ta, tb)
    )


def compare(plain: Run, traced: Run) -> None:
    """The traced rerun must train and score exactly as the untraced run."""
    pairs = list(zip(plain.trainings, traced.trainings))
    traced.verify("traced parameters equal untraced, bitwise", all(
        len(p) == len(t) and all(params_bitwise_equal(a.params, b.params) for a, b in zip(p, t)) for p, t in pairs
    ))
    traced.verify("traced test_map equals untraced",
                  plain.info["test_map"].hex() == traced.info["test_map"].hex())


def trace_overhead(run: Run) -> dict[str, float]:
    """Traced over untraced time of the same calls, as the median of pairs.

    Each pair times a call once with a full tracer installed and once
    without, in alternating order, so that a change of machine speed moves
    both halves of a pair alike. Training and evaluation run on the first
    1/OVERHEAD_USER_SHARE of the users, with the tables at full size.
    """
    hp, split = run.workload.hp, run.split
    head = split.user_count // OVERHEAD_USER_SHARE + 1

    def keep(part):
        return [seq if u < head else [] for u, seq in enumerate(part)]

    small = dataclasses.replace(split, train=keep(split.train), validation=keep(split.validation),
                                test=keep(split.test))
    users = np.random.default_rng([run.seed, 4]).choice(run.served_users, OVERHEAD_REQUESTS)
    stages = {
        "train": lambda: training.train(small, hp, seed=run.seed, epochs=1, batch_size=BATCH_SIZE, patience=1),
        "eval": lambda: evaluation.evaluate(run.params, hp, small),
        "recommend": lambda: [
            evaluation.recommend_top_n(run.params, hp, run.history[u], u, TOP_N) for u in users.tolist()
        ],
    }
    ratios = {}
    for name, stage in stages.items():
        pairs = []
        for i in range(OVERHEAD_PAIRS):
            elapsed = {}
            for traced in (False, True) if i % 2 == 0 else (True, False):
                with full_tracer() if traced else contextlib.nullcontext():
                    elapsed[traced] = _timed(stage)[0]
            pairs.append(elapsed[True] / elapsed[False])
        ratios[f"trace.{name}_ratio"] = statistics.median(pairs)
    return ratios


def layer_metrics(tracer: Tracer, traced: Run, overhead: dict[str, float]) -> dict[str, float]:
    total, self_time, calls = tracer.total, tracer.self_time, tracer.calls
    steps = tracer.kept["batch.loss_and_grads"]
    item_frac, out_frac = [], []
    for step in steps:
        mask = step["comp_mask"]
        prev = step["prev"]
        touched = np.unique(prev[prev != 0]).size if (mask.h or mask.v) else 0
        item_frac.append(touched / step["params"].item_emb.shape[0])
        ids = np.concatenate([step["targets"][step["target_mask"] > 0], step["negatives"][step["negative_mask"] > 0]])
        out_frac.append(np.unique(ids[ids != 0]).size / step["params"].out_w.shape[0])
    return {
        "data.load_interactions_s": total("data.load_interactions"),
        "data.build_sequences_s": total("data.build_sequences"),
        "data.chronological_split_s": total("data.chronological_split"),
        "data.generate_instances_s": total("data.generate_instances"),
        "data.load_split_s": total("data.load_split"),
        "model.init_params_s": total("model.init_params"),
        "model.forward_s": total("model.forward"),
        "model.forward_calls": calls("model.forward"),
        "batch.loss_and_grads_s": total("batch.loss_and_grads"),
        "batch.loss_and_grads_calls": calls("batch.loss_and_grads"),
        "batch.forward_s": total("batch.forward"),
        "batch.backward_self_s": self_time("batch.loss_and_grads"),
        "gradients.zeros_like_s": total("gradients.zeros_like"),
        "training.adam_step_s": total("training.adam_step"),
        "training.adam_step_calls": calls("training.adam_step"),
        "training.sample_negative_batch_s": total("training.sample_negative_batch"),
        "training.sample_negative_batch_calls": calls("training.sample_negative_batch"),
        "training.val_evaluate_s": total("evaluate.evaluate", parent="training.train"),
        "training.self_s": self_time("training.train"),
        "training.adam_bytes_per_step": statistics.mean(tracer.kept["training.adam_step"]),
        "training.touched_row_frac.item_emb": statistics.mean(item_frac),
        "training.touched_row_frac.out_w": statistics.mean(out_frac),
        "evaluate.score_matrix_s": total("evaluate.score_matrix"),
        "evaluate.ranked_order_s": total("evaluate.ranked_order"),
        "evaluate.ranked_order_calls": calls("evaluate.ranked_order"),
        "evaluate.ranked_items": sum(tracer.kept["evaluate.ranked_order"]),
        "evaluate.metrics_s": total("evaluate.metrics"),
        "evaluate.test_map": traced.info["test_map"],
        "ablation.evaluate_pop_s": total("ablation.evaluate_pop"),
        "ablation.ranked_order_s": total("ablation.ranked_order"),
        "checkpoint.save_s": total("checkpoint.save"),
        "checkpoint.load_s": total("checkpoint.load"),
        "checkpoint.bytes": traced.info["checkpoint_bytes"],
        "rules.mine_rules_s": total("rules.mine_rules"),
        "rules.count": len(traced.mined),
        "cli.recommend_self_s": self_time("cli.main"),
        **overhead,
    }
