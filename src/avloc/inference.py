"""Turn model outputs into scored segment proposals.

Pipeline per clip: align the backward [T, 3] probability triplet (columns
start, end, content, the frame head's layout) to forward time (reverse
rows, swap the start and end columns), fuse both directions by elementwise
geometric mean, score every in-range candidate from the [L, T] boundary
map and the fused triplet, then Soft-NMS with Gaussian score decay and
top-k retention.
Scoring and Soft-NMS pass one float64 [P, 3] array of (start, end, score)
rows, the layout of the predictions file; `pipeline.predict_clip` turns
the kept rows into ScoredProposal objects. Both read one cached candidate
layout per (L, T), and Soft-NMS runs `score_proposals`' own rows on the
[L, T] grid, with one cached decay slab per candidate length. All numpy;
no autodiff involvement.
"""

from __future__ import annotations

import functools
import math
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
        if not self.sigma > 0:
            raise ValueError("infer.sigma: must be > 0")
        if not self.score_floor >= 0:
            raise ValueError("infer.score_floor: must be >= 0")
        if self.top_k < 1:
            raise ValueError("infer.top_k: must be >= 1")
        if not self.d_f > 0:
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


@functools.lru_cache(maxsize=8)
def _candidates(max_duration: int, num_frames: int):
    """The in-range cells of an [L, T] map with L <= T, in `score_proposals`'
    row order (duration-major, then start): the boolean [L, T] mask, each
    cell's duration index i and start j, and its (start, end) frames as a
    float64 [P, 2] array. Read-only, cached per (L, T)."""
    mask = in_range_mask(max_duration, num_frames)
    i, j = np.nonzero(mask)
    frames = np.column_stack([j, j + i + 1]).astype(np.float64)
    for a in (mask, i, j, frames):
        a.flags.writeable = False
    return mask, i, j, frames


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
    _, i, j, frames = _candidates(min(max_duration, t), t)
    content_mean = (csum[j + i + 1] - csum[j]) / (i + 1)
    scores = boundary_map[i, j] * start[j] * end[j + i] * content_mean
    return np.column_stack([frames, scores])


@functools.lru_cache(maxsize=256)
def _decay_slab(max_duration: int, length: int, sigma: float) -> np.ndarray:
    """Soft-NMS decay factors exp(-IoU^2 / sigma) of the cells of an [L, T]
    map against a pick [0, length): a read-only [L, L + length - 1] array
    whose row i holds the candidates of i + 1 frames and whose column c
    those starting at frame c - (L - 1), every start that can overlap.

    The arithmetic is `data.interval_iou`'s. On integer frames every step
    up to the division is exact, so a cell's factor depends only on the two
    lengths and the offset between the starts, not on where the pick lies.
    Cached per (L, length, sigma).
    """
    starts = np.arange(1 - max_duration, length, dtype=np.float64)
    ends = starts + np.arange(1, max_duration + 1, dtype=np.float64)[:, None]
    slab = np.exp(-(interval_iou(starts, ends, 0.0, float(length)) ** 2) / sigma)
    slab.flags.writeable = False
    return slab


def _grid_shape(proposals: np.ndarray) -> tuple[int, int] | None:
    """(L, T) if the rows are exactly `score_proposals`' rows of an [L, T]
    map with L <= T and no score is +inf; otherwise None.

    O(P): the last row gives (L, T) (it is the cell [T - L, T)), and the row
    count is compared with the layout's L*T - L(L-1)/2 before any layout
    is built, so a layout is never larger than twice the rows.
    """
    if proposals.dtype != np.float64 or not len(proposals) or (proposals[:, 2] == np.inf).any():
        return None
    start, end = proposals[-1, :2].tolist()
    if not (start >= 0 and start.is_integer() and end.is_integer()):
        return None
    max_duration, t = int(end - start), int(end)
    if len(proposals) != max_duration * t - max_duration * (max_duration - 1) // 2:
        return None
    if not np.array_equal(proposals[:, :2], _candidates(max_duration, t)[3]):
        return None
    return max_duration, t


def _soft_nms_grid(proposals: np.ndarray, shape: tuple[int, int], cfg: InferenceConfig):
    """Picked caller rows and their scores, for `score_proposals`' rows of an [L, T] map."""
    max_duration, t = shape
    scores = proposals[:, 2]
    grid = np.full(shape, -np.inf)
    grid[_candidates(max_duration, t)[0]] = np.where(scores >= cfg.score_floor, scores, -np.inf)
    flat = grid.reshape(-1)
    # IoU <= 1, so every factor is at least exp(-1 / sigma). Only where that
    # can underflow to 0.0 (sigma below about 0.003) are the -inf cells
    # skipped, as -inf * 0.0 is NaN.
    can_underflow = not math.exp(-2.0 / cfg.sigma) > 0.0
    picked: list[int] = []
    picked_scores: list[float] = []
    while len(picked) < cfg.top_k:
        best = int(flat.argmax())  # the first maximum in grid order is the earliest row
        top = flat[best]
        if not top >= cfg.score_floor:
            break
        flat[best] = -np.inf
        i, j = divmod(best, t)
        picked.append(i * t - i * (i - 1) // 2 + j)  # the caller row of cell (i, j)
        picked_scores.append(top)
        lo = j + 1 - max_duration  # the slab's first column is this start
        a, b = max(lo, 0), min(j + i + 1, t)
        window = grid[:, a:b]
        np.multiply(window, _decay_slab(max_duration, i + 1, cfg.sigma)[:, a - lo:b - lo],
                    out=window, where=window > -np.inf if can_underflow else True)
    return picked, picked_scores


def _soft_nms_rows(proposals: np.ndarray, cfg: InferenceConfig):
    """Picked rows and their scores, for any rows: every active row is
    rescored at each pick."""
    starts, ends = proposals[:, 0], proposals[:, 1]
    scores = proposals[:, 2].copy()
    active = scores >= cfg.score_floor  # NaN fails too
    picked: list[int] = []
    while len(picked) < cfg.top_k and active.any():
        best = int(np.argmax(np.where(active, scores, -np.inf)))  # first index wins ties
        picked.append(best)
        active[best] = False
        idx = np.flatnonzero(active)
        if idx.size:
            iou = interval_iou(starts[idx], ends[idx], starts[best], ends[best])
            scores[idx] *= np.exp(-(iou ** 2) / cfg.sigma)
            active[idx] &= scores[idx] >= cfg.score_floor
    return picked, scores[picked]


def soft_nms(proposals: np.ndarray, cfg: InferenceConfig) -> np.ndarray:
    """Gaussian Soft-NMS over [P, 3] (start, end, score) rows.

    Keep the current best, decay overlaps by exp(-IoU^2 / sigma). Rows
    whose decayed score falls below cfg.score_floor are dropped; selection
    stops after cfg.top_k picks. Score ties resolve to the earliest row.
    Returns the picked rows with their scores at pick time, highest score
    first (a stable sort, so equal scores keep their pick order). Raises
    ValueError naming the first row whose frames are not finite with
    start < end.

    The rows `score_proposals` makes, every in-range cell of an [L, T] map,
    run on that grid: rows below the floor (and NaN rows) become -inf
    cells, each pick is one argmax over the flat grid, and the pick's
    column window, every start that can overlap it, is multiplied in place
    by a cached decay slab (`_decay_slab`). Cells outside the window would
    be multiplied by exp(-0 / sigma) = 1.0, and a cell that decays below
    the floor stays below it, so it is never the argmax while a cell at or
    above the floor remains. Any other rows (hand-made, duplicated, float
    frames) are all rescored at each pick. Both give the same bytes.
    """
    starts, ends = proposals[:, 0], proposals[:, 1]
    bad = ~((starts < ends) & np.isfinite(starts) & np.isfinite(ends))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"soft_nms: row {k} needs finite frames with start < end, "
                         f"got {proposals[k].tolist()}")
    shape = _grid_shape(proposals)
    if shape is None:
        picked, picked_scores = _soft_nms_rows(proposals, cfg)
    else:
        picked, picked_scores = _soft_nms_grid(proposals, shape, cfg)
    kept = np.column_stack([proposals[picked, :2], picked_scores])
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
