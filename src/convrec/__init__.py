"""Convolutional sequence-embedding top-N recommender.

Embeds a user's previous L items as an L x d matrix, extracts sequential
features with horizontal (windowed, max-pooled) and vertical (per-item
weighting) convolutions, and ranks items from those features joined with a
user latent factor. Ships with its own analytic backprop, Adam training,
ranking metrics, component ablations, and a sequential-rule miner.
"""

from .config import HyperParams, RunConfig
from .data import (
    Interaction,
    SplitDataset,
    TrainingInstance,
    UserSequence,
    build_sequences,
    chronological_split,
    generate_instances,
    load_interactions,
)
from .model import ComponentMask, ModelParams, init_params
from .batch import forward
from .gradients import GradientSet, gradient_check
from .training import AdamState, TrainResult, adam_step, train
from .evaluate import EvalReport, RankedList, average_precision, evaluate, prec_recall_at, recommend_top_n
from .rules import MiningConfig, Rule, mine_rules, sequential_intensity
from .ablation import mask_history_items, masked_forward, run_ablation
from .checkpoint import load_checkpoint, save_checkpoint

__version__ = "0.1.0"

__all__ = [
    "HyperParams",
    "RunConfig",
    "Interaction",
    "UserSequence",
    "SplitDataset",
    "TrainingInstance",
    "load_interactions",
    "build_sequences",
    "chronological_split",
    "generate_instances",
    "ModelParams",
    "ComponentMask",
    "init_params",
    "forward",
    "GradientSet",
    "gradient_check",
    "AdamState",
    "adam_step",
    "train",
    "TrainResult",
    "EvalReport",
    "RankedList",
    "recommend_top_n",
    "prec_recall_at",
    "average_precision",
    "evaluate",
    "Rule",
    "MiningConfig",
    "mine_rules",
    "sequential_intensity",
    "masked_forward",
    "run_ablation",
    "mask_history_items",
    "save_checkpoint",
    "load_checkpoint",
]
