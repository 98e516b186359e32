"""Detection metrics over temporal segment predictions.

Each clip's predictions are sorted once by (-score, start, end) and matched
against its ground-truth segments through one [P, G] IoU matrix: per IoU
threshold tau, one greedy pass lets each prediction in turn take the best
still-unmatched segment with IoU >= tau, and records a TP flag per
prediction. Average precision pools the flags across clips in
(-score, clip id, start, end) order and integrates the all-point
interpolated precision-recall curve. Greedy matching is online, so recall
at a proposal budget b counts the flags of each clip's first b
predictions; average recall averages it over IoU thresholds
0.50, 0.55, ..., 0.95.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Segment, interval_iou
from .inference import ScoredProposal

AP_TAUS = (0.5, 0.75, 0.95)
AR_BUDGETS = (50, 20, 10)
AR_TAUS = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))

Predictions = dict[str, list[ScoredProposal]]
GroundTruth = dict[str, list[Segment]]


@dataclass
class EvalReport:
    ap: dict[float, float]
    ar: dict[int, float]
    per_clip: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "ap": {f"{tau:g}": v for tau, v in self.ap.items()},
            "ar": {str(n): v for n, v in self.ar.items()},
            "per_clip": self.per_clip,
        }

    def csv_row(self) -> tuple[str, str]:
        header = ",".join(
            [f"ap_{tau:g}" for tau in self.ap] + [f"ar_{n}" for n in self.ar]
        )
        values = ",".join(
            [repr(self.ap[tau]) for tau in self.ap] + [repr(self.ar[n]) for n in self.ar]
        )
        return header, values


@dataclass
class _Matches:
    """Every prediction's TP flag per IoU threshold, in pooled
    (-score, clip id, start, end) order, with its clip's index in sorted
    clip ids and its rank within the clip."""

    flags: dict[float, np.ndarray]
    clip: np.ndarray
    rank: np.ndarray
    npos: int


def _greedy_flags(iou: np.ndarray, tau: float) -> np.ndarray:
    """Each row in turn takes the best still-free ground truth (first on ties)
    with IoU >= tau and > 0; its flag says whether it got one."""
    flags = np.zeros(iou.shape[0], dtype=bool)
    free = [True] * iou.shape[1]
    for p in np.flatnonzero((iou >= tau).any(axis=1)).tolist():
        best_iou, best_k = 0.0, -1
        for k, v in enumerate(iou[p].tolist()):
            if free[k] and v >= tau and v > best_iou:
                best_iou, best_k = v, k
        if best_k >= 0:
            flags[p], free[best_k] = True, False
    return flags


def _match(preds: Predictions, gts: GroundTruth, taus) -> _Matches:
    """Sort the predictions once and match each clip's [P, G] IoU matrix once
    per threshold. Within a clip the pooled order is (-score, start, end)."""
    unknown = set(preds) - set(gts)
    if unknown:
        raise ValueError(f"predictions reference unknown clip ids: {sorted(unknown)}")
    ids = sorted(gts)
    rows = np.array([(k, p.segment.start, p.segment.end, p.score)
                     for k, clip_id in enumerate(ids) for p in preds.get(clip_id, [])],
                    dtype=np.float64).reshape(-1, 4)
    rows = rows[np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0], -rows[:, 3]))]
    m = _Matches({tau: np.zeros(len(rows), dtype=bool) for tau in taus},
                 rows[:, 0].astype(int), np.zeros(len(rows), dtype=int),
                 sum(len(segs) for segs in gts.values()))
    for k, clip_id in enumerate(ids):
        idx = np.flatnonzero(m.clip == k)
        m.rank[idx] = np.arange(len(idx))
        gt = np.array([s.to_list() for s in gts[clip_id]]).reshape(-1, 2)
        iou = interval_iou(rows[idx, 1:2], rows[idx, 2:3], gt[:, 0], gt[:, 1])
        for tau, flags in m.flags.items():
            flags[idx] = _greedy_flags(iou, tau)
    return m


def _ap(m: _Matches, tau: float) -> float:
    if not m.npos or not len(m.clip):
        return 0.0
    tp = np.cumsum(m.flags[tau])
    precisions = tp / np.arange(1, len(tp) + 1)
    recalls = tp / m.npos
    # All-point interpolation: monotone precision envelope from the right,
    # integrated over recall steps, summed left to right.
    mpre = np.maximum.accumulate(np.concatenate([[0.0], precisions, [0.0]])[::-1])[::-1]
    mrec = np.concatenate([[0.0], recalls, recalls[-1:]])
    ap = 0.0
    for term in ((mrec[1:] - mrec[:-1]) * mpre[1:]).tolist():
        ap += term
    return ap


def _recall(m: _Matches, tau: float, budget: int) -> float:
    """Share of ground truths matched by the first `budget` predictions of each clip."""
    return int(m.flags[tau][m.rank < budget].sum()) / m.npos if m.npos else 0.0


def _average_recall(m: _Matches, budget: int) -> float:
    if budget < 1:
        raise ValueError(f"average_recall: budget must be >= 1, got {budget}")
    return sum(_recall(m, tau, budget) for tau in AR_TAUS) / len(AR_TAUS)


def average_precision(preds: Predictions, gts: GroundTruth, tau: float) -> float:
    return _ap(_match(preds, gts, (tau,)), tau)


def recall_at(preds: Predictions, gts: GroundTruth, tau: float, budget: int) -> float:
    return _recall(_match(preds, gts, (tau,)), tau, budget)


def average_recall(preds: Predictions, gts: GroundTruth, budget: int) -> float:
    return _average_recall(_match(preds, gts, AR_TAUS), budget)


def evaluate(
    preds: Predictions,
    gts: GroundTruth,
    ap_taus: tuple[float, ...] = AP_TAUS,
    ar_budgets: tuple[int, ...] = AR_BUDGETS,
) -> EvalReport:
    m = _match(preds, gts, (*ap_taus, *AR_TAUS, 0.5))
    report = EvalReport(
        ap={tau: _ap(m, tau) for tau in ap_taus},
        ar={n: _average_recall(m, n) for n in ar_budgets},
    )
    for k, clip_id in enumerate(sorted(gts)):
        in_clip = m.clip == k
        report.per_clip[clip_id] = {
            "gt_count": len(gts[clip_id]),
            "pred_count": int(in_clip.sum()),
            "matched_at_0.5": int(m.flags[0.5][in_clip].sum()),
        }
    return report
