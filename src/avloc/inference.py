"""Turn model outputs into scored segment proposals.

Pipeline per clip: align the backward probability triplet to forward time
(reverse, swap start/end), fuse both directions by elementwise geometric
mean, score every in-range candidate from the boundary map and the fused
sequences, then Soft-NMS with Gaussian score decay and top-k retention.
All numpy; no autodiff involvement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Segment
from .labels import ProbTriplet


@dataclass(frozen=True)
class ScoredProposal:
    segment: Segment
    score: float


@dataclass(frozen=True)
class InferenceConfig:
    sigma: float = 1.0        # Gaussian decay width for Soft-NMS
    score_floor: float = 1e-4
    top_k: int = 100
    d_f: float = 1.0          # boundary-region duration for training labels

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("infer.sigma: must be > 0")
        if self.score_floor < 0:
            raise ValueError("infer.score_floor: must be >= 0")
        if self.top_k < 1:
            raise ValueError("infer.top_k: must be >= 1")
        if self.d_f <= 0:
            raise ValueError("infer.d_f: must be > 0")


def align_backward(bwd: ProbTriplet) -> ProbTriplet:
    """Re-express a backward-direction triplet in forward time.

    Reversing time swaps onset and offset roles, so the backward start
    sequence becomes the forward end sequence and vice versa; content only
    reverses.
    """
    return ProbTriplet(
        start=bwd.end[::-1].copy(),
        end=bwd.start[::-1].copy(),
        content=bwd.content[::-1].copy(),
    )


def fuse_bidirectional(fwd: ProbTriplet, bwd: ProbTriplet) -> ProbTriplet:
    if fwd.start.shape != bwd.start.shape:
        raise ValueError(
            f"fuse: sequence lengths differ, {fwd.start.shape[0]} vs {bwd.start.shape[0]}"
        )
    aligned = align_backward(bwd)
    return ProbTriplet(
        start=np.sqrt(fwd.start * aligned.start),
        end=np.sqrt(fwd.end * aligned.end),
        content=np.sqrt(fwd.content * aligned.content),
    )


def score_proposals(boundary_map: np.ndarray, probs: ProbTriplet) -> list[ScoredProposal]:
    """Score every in-range candidate (start j, duration i+1).

    score = map[i, j] * start[j] * end[j+i] * mean(content[j .. j+i]);
    j+i is the last frame of the candidate and the content mean includes
    both endpoint frames.
    """
    max_duration, t = boundary_map.shape
    if probs.start.shape[0] != t:
        raise ValueError(
            f"score: boundary map has {t} start positions but sequences have "
            f"{probs.start.shape[0]}"
        )
    csum = np.concatenate([[0.0], np.cumsum(probs.content)])
    proposals = []
    for i in range(max_duration):
        n_valid = t - i
        if n_valid <= 0:
            break
        j = np.arange(n_valid)
        content_mean = (csum[j + i + 1] - csum[j]) / (i + 1)
        scores = boundary_map[i, :n_valid] * probs.start[j] * probs.end[j + i] * content_mean
        for jj in range(n_valid):
            proposals.append(ScoredProposal(Segment(jj, jj + i + 1), float(scores[jj])))
    return proposals


def _interval_iou(starts: np.ndarray, ends: np.ndarray, start: int, end: int) -> np.ndarray:
    inter = np.clip(np.minimum(ends, end) - np.maximum(starts, start), 0, None)
    union = (ends - starts) + (end - start) - inter
    return inter / union


def soft_nms(proposals: list[ScoredProposal], cfg: InferenceConfig) -> list[ScoredProposal]:
    """Gaussian Soft-NMS: keep the current best, decay overlaps by exp(-IoU^2 / sigma).

    Proposals whose decayed score falls below cfg.score_floor are dropped;
    selection stops after cfg.top_k picks. Score ties resolve to the earliest
    proposal in input order.
    """
    sigma, score_floor, top_k = cfg.sigma, cfg.score_floor, cfg.top_k
    if not proposals:
        return []
    starts = np.array([p.segment.start for p in proposals], dtype=np.float64)
    ends = np.array([p.segment.end for p in proposals], dtype=np.float64)
    scores = np.array([p.score for p in proposals], dtype=np.float64)
    active = scores >= score_floor
    selected: list[ScoredProposal] = []
    while len(selected) < top_k and active.any():
        masked = np.where(active, scores, -np.inf)
        best = int(np.argmax(masked))  # first index wins ties
        selected.append(ScoredProposal(proposals[best].segment, float(scores[best])))
        active[best] = False
        idx = np.flatnonzero(active)
        if idx.size:
            iou = _interval_iou(starts[idx], ends[idx], proposals[best].segment.start,
                                proposals[best].segment.end)
            scores[idx] *= np.exp(-(iou ** 2) / sigma)
            active[idx] &= scores[idx] >= score_floor
    selected.sort(key=lambda p: -p.score)
    return selected


def predictions_to_json(clip_id: str, proposals: list[ScoredProposal]) -> dict:
    ordered = sorted(proposals, key=lambda p: -p.score)
    return {
        "id": clip_id,
        "proposals": [[p.segment.start, p.segment.end, p.score] for p in ordered],
    }


def predictions_from_json(obj: dict) -> tuple[str, list[ScoredProposal]]:
    try:
        clip_id = obj["id"]
        proposals = [
            ScoredProposal(Segment(int(s), int(e)), float(score))
            for s, e, score in obj["proposals"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed prediction object: {exc}") from exc
    return clip_id, proposals
