"""Dataset-level orchestration shared by the CLI and the experiment scripts.

The model's frame head emits the stacked [2, T, 3] pair of both directions
(columns start, end, content; element 1 in reversed time); fusion and
scoring read its two elements of the data array as they are. Scoring and
Soft-NMS work on [P, 3] (start, end, score) arrays; `predict_clip` returns
the kept rows as ScoredProposal objects.
"""

from __future__ import annotations

import time

from .autodiff import keep_freed_memory, no_grad
from .data import Clip, Segment, StreamAnnotation
from .inference import (
    InferenceConfig,
    ScoredProposal,
    fuse_bidirectional,
    score_proposals,
    soft_nms,
)
from .labels import merge_segments
from .model import Model


# Stages that `predict_clip` times into its `timing` accumulator, in run order.
TIMING_STAGES = ("forward", "fusion", "scoring", "soft_nms")


def predict_clip(
    model: Model, clip: Clip, infer_cfg: InferenceConfig, fusion: str = "both",
    *, timing: dict[str, float] | None = None,
) -> list[ScoredProposal]:
    """Forward pass, direction fusion, scoring, and Soft-NMS for one clip,
    highest score first. The forward pass records no autodiff graph.

    fusion="forward" skips the backward direction at scoring time (ablation
    hook); the model still runs both directions. If `timing` is given, the
    seconds spent in each of TIMING_STAGES are added to it.
    """
    if fusion not in ("both", "forward"):
        raise ValueError(f"unknown fusion mode {fusion!r}")
    keep_freed_memory()
    stream, _ = clip
    ticks = [time.perf_counter()]
    with no_grad():
        out = model.forward_full(stream)
    ticks.append(time.perf_counter())
    probs = out.probs.data[0]
    if fusion == "both":
        probs = fuse_bidirectional(probs, out.probs.data[1])
    ticks.append(time.perf_counter())
    scored = score_proposals(out.boundary_map.data, probs)
    ticks.append(time.perf_counter())
    kept = soft_nms(scored, infer_cfg)
    ticks.append(time.perf_counter())
    if timing is not None:
        for stage, begin, end in zip(TIMING_STAGES, ticks, ticks[1:]):
            timing[stage] = timing.get(stage, 0.0) + (end - begin)
    return [ScoredProposal(Segment(int(s), int(e)), x) for s, e, x in kept.tolist()]


def predict_dataset(
    model: Model, clips: list[Clip], infer_cfg: InferenceConfig, fusion: str = "both",
    *, timing: dict[str, float] | None = None,
) -> dict[str, list[ScoredProposal]]:
    """`predict_clip` on every clip, keyed by clip id. Every clip's feature
    widths are checked before the first forward pass."""
    for stream, ann in clips:
        model.check_feature_widths(stream, ann.id)
    return {ann.id: predict_clip(model, (stream, ann), infer_cfg, fusion, timing=timing)
            for stream, ann in clips}


def ground_truth_segments(annotations: list[StreamAnnotation]) -> dict[str, list]:
    """Union-merged fake segments per clip id (the evaluation ground truth)."""
    return {ann.id: merge_segments(ann) for ann in annotations}
