"""Turn model outputs into scored segment proposals.

Pipeline per clip: align the backward [T, 3] probability triplet (columns
start, end, content, the frame head's layout) to forward time (reverse
rows, swap the start and end columns), fuse both directions by elementwise
geometric mean, score every in-range candidate from the [L, T] boundary
map and the fused triplet, then Soft-NMS with Gaussian score decay and
top-k retention.
Scoring and Soft-NMS pass one float64 [P, 3] array of (start, end, score)
rows, the layout of the predictions file; `pipeline.predict_clip` turns
the kept rows into ScoredProposal objects. All numpy; no autodiff
involvement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DatasetFormatError, Segment, finite_float, interval_iou, segment_from_json
from .labels import in_range_mask


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


def align_backward(bwd: np.ndarray) -> np.ndarray:
    """Re-express a backward-direction [T, 3] triplet in forward time.

    Reversing time swaps onset and offset roles, so the backward start
    column becomes the forward end column and vice versa; content only
    reverses.
    """
    return bwd[::-1, [1, 0, 2]]


def fuse_bidirectional(fwd: np.ndarray, bwd: np.ndarray) -> np.ndarray:
    """Elementwise geometric mean of the forward and aligned backward triplets."""
    if fwd.shape != (len(fwd), 3) or bwd.shape != fwd.shape:
        raise ValueError(f"fuse: expected two (T, 3) triplets of equal lengths, "
                         f"got {fwd.shape} and {bwd.shape}")
    return np.sqrt(fwd * align_backward(bwd))


def score_proposals(boundary_map: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Score every in-range candidate (start j, duration i+1) as a float64 [P, 3] array.

    `probs` is a [T, 3] start / end / content triplet. Rows are
    (start, end, score), duration-major then start, with
    score = map[i, j] * start[j] * end[j+i] * mean(content[j .. j+i]);
    j+i is the last frame of the candidate and the content mean includes
    both endpoint frames.
    """
    max_duration, t = boundary_map.shape
    if probs.shape != (t, 3):
        raise ValueError(f"score: expected a ({t}, 3) triplet for the boundary map's {t} "
                         f"start positions, got {probs.shape}")
    start, end, content = probs.T
    csum = np.concatenate([[0.0], np.cumsum(content)])
    i, j = np.nonzero(in_range_mask(max_duration, t))
    content_mean = (csum[j + i + 1] - csum[j]) / (i + 1)
    scores = boundary_map[i, j] * start[j] * end[j + i] * content_mean
    return np.column_stack([j, j + i + 1, scores]).astype(np.float64, copy=False)


def soft_nms(proposals: np.ndarray, cfg: InferenceConfig) -> np.ndarray:
    """Gaussian Soft-NMS over [P, 3] (start, end, score) rows.

    Keep the current best, decay overlaps by exp(-IoU^2 / sigma). Rows
    whose decayed score falls below cfg.score_floor are dropped; selection
    stops after cfg.top_k picks. Score ties resolve to the earliest row.
    Returns the picked rows with their scores at pick time, highest score
    first (a stable sort, so equal scores keep their pick order).

    Frames are integers with start < end. A row can overlap the pick
    [s, e) only if its start lies in [s - longest, e), where `longest` is
    the longest row: a contiguous window of the rows sorted by start. Each
    pick rescores only that window; every other row would be multiplied
    by exp(-0 / sigma) = 1.0, so skipping it changes no bit.
    """
    starts, ends = proposals[:, 0], proposals[:, 1]
    by_start = np.argsort(starts, kind="stable")
    sorted_starts, sorted_ends = starts[by_start], ends[by_start]
    longest = (ends - starts).max(initial=0.0)
    scores = proposals[:, 2].copy()  # dropped and picked rows hold -inf
    scores[~(scores >= cfg.score_floor)] = -np.inf  # NaN too
    picked: list[int] = []
    picked_scores: list[float] = []
    while len(picked) < cfg.top_k and scores.size:
        best = int(np.argmax(scores))  # first index wins ties
        if scores[best] == -np.inf:
            break
        picked.append(best)
        picked_scores.append(scores[best])
        scores[best] = -np.inf
        s, e = starts[best], ends[best]
        lo, hi = np.searchsorted(sorted_starts, (s - longest, e))
        rows = by_start[lo:hi]
        window = scores[rows]
        iou = interval_iou(sorted_starts[lo:hi], sorted_ends[lo:hi], s, e)
        # -inf rows are skipped: -inf * 0.0 (exp underflow at small sigma) is NaN
        np.multiply(window, np.exp(-(iou ** 2) / cfg.sigma), out=window, where=window > -np.inf)
        window[~(window >= cfg.score_floor)] = -np.inf
        scores[rows] = window
    kept = np.column_stack([starts[picked], ends[picked], picked_scores])
    return kept[np.argsort(-kept[:, 2], kind="stable")]


def predictions_to_json(clip_id: str, proposals: list[ScoredProposal]) -> dict:
    ordered = sorted(proposals, key=lambda p: -p.score)
    return {
        "id": clip_id,
        "proposals": [[p.segment.start, p.segment.end, p.score] for p in ordered],
    }


def predictions_from_json(raw, source) -> dict[str, list[ScoredProposal]]:
    """Read the predictions file payload: a JSON array of
    {"id": str, "proposals": [[start, end, score], ...]} records.

    Ids must be unique, frames integers with 0 <= start < end and scores
    finite numbers. Anything else raises DatasetFormatError naming `source`
    and the record index.
    """
    if not isinstance(raw, list):
        raise DatasetFormatError(f"{source}: expected a JSON array of prediction records")
    preds: dict[str, list[ScoredProposal]] = {}
    for k, obj in enumerate(raw):
        where = f"{source}: record {k}"
        if not isinstance(obj, dict):
            raise DatasetFormatError(f"{where}: expected a JSON object, got {obj!r}")
        clip_id, rows = obj.get("id"), obj.get("proposals")
        if not isinstance(clip_id, str):
            raise DatasetFormatError(f"{where}: 'id' must be a string, got {clip_id!r}")
        if clip_id in preds:
            raise DatasetFormatError(f"{where}: duplicate id {clip_id!r}")
        if not isinstance(rows, list):
            raise DatasetFormatError(f"{where}: 'proposals' must be a JSON array")
        preds[clip_id] = [_proposal_from_row(row, f"{where}: proposals[{n}]")
                          for n, row in enumerate(rows)]
    return preds


def _proposal_from_row(row, where: str) -> ScoredProposal:
    if not (isinstance(row, list) and len(row) == 3):
        raise DatasetFormatError(f"{where}: expected [start, end, score], got {row!r}")
    return ScoredProposal(segment_from_json(row[:2], where), finite_float(row[2], f"{where} score"))
