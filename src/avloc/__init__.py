"""Audio-visual temporal manipulation localization on synthetic feature streams."""

from .autodiff import Tensor, grad_check
from .config import RunConfig, load_run_config
from .data import FeatureStream, Segment, StreamAnnotation, SynthConfig, generate_dataset
from .evaluate import EvalReport, average_precision, average_recall, evaluate
from .inference import (
    InferenceConfig,
    ScoredProposal,
    fuse_bidirectional,
    score_proposals,
    soft_nms,
)
from .labels import build_boundary_map, build_frame_labels, build_prob_triplet
from .losses import LossConfig
from .model import Model, ModelConfig, build_sampling_mask, load_checkpoint, save_checkpoint
from .train import OptimConfig, train

__all__ = [
    "Tensor",
    "grad_check",
    "RunConfig",
    "load_run_config",
    "FeatureStream",
    "Segment",
    "StreamAnnotation",
    "SynthConfig",
    "generate_dataset",
    "EvalReport",
    "average_precision",
    "average_recall",
    "evaluate",
    "InferenceConfig",
    "ScoredProposal",
    "fuse_bidirectional",
    "score_proposals",
    "soft_nms",
    "build_boundary_map",
    "build_frame_labels",
    "build_prob_triplet",
    "LossConfig",
    "Model",
    "ModelConfig",
    "build_sampling_mask",
    "load_checkpoint",
    "save_checkpoint",
    "OptimConfig",
    "train",
]
