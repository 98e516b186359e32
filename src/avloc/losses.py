"""Training objectives.

Three terms combined as alpha * contrastive + boundary-map MSE + focal sum:

* a frame-level margin contrastive loss on the cross-attention outputs,
  pulling the two modality views together on real frames and pushing them
  past a margin on fake frames (both temporal directions contribute to the
  per-frame distance);
* a masked MSE between the predicted and target boundary maps, averaged
  over in-range cells only;
* a class-balanced focal loss on the frame head's start / end / content
  output of both directions.

The contrastive and focal terms read the model's stacked direction pair
([2, T, .], element 1 in reversed time) as it is, one op chain for both
directions. Targets are plain float64 arrays in the heads' layouts (see
`labels`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass(frozen=True)
class LossConfig:
    alpha: float = 0.1            # weight of the contrastive term
    margin: float = 1.0           # contrastive margin on fake frames
    beta0: float = 0.75           # focal class-balance weight for positives
    beta1: float = 2.0            # focal focusing exponent
    label_threshold: float = 0.5  # binarization threshold for soft labels

    def __post_init__(self):
        if not self.alpha >= 0:
            raise ValueError("loss.alpha: must be >= 0")
        if not self.margin > 0:
            raise ValueError("loss.margin: must be > 0")
        if not (0 < self.beta0 < 1):
            raise ValueError("loss.beta0: must be in (0, 1)")
        if not self.beta1 >= 0:
            raise ValueError("loss.beta1: must be >= 0")
        if not (0 < self.label_threshold < 1):
            raise ValueError("loss.label_threshold: must be in (0, 1)")


def contrastive_loss(f_av: Tensor, f_va: Tensor, y: np.ndarray, cfg: LossConfig) -> Tensor:
    """Margin contrastive loss over per-frame cross-modal distances, y the [T] labels.

    f_av and f_va are stacked [2, T, C] pairs, element 1 in reversed time.
    One row distance covers both elements; element 1's is flipped back to
    forward time and added to element 0's, so frame t compares against y[t].
    """
    if f_av.shape != f_va.shape or f_av.data.ndim != 3 or f_av.shape[0] != 2:
        raise ad.ShapeError(
            f"contrastive: expected two [2, T, C] pairs, got {f_av.shape} and {f_va.shape}"
        )
    y = np.asarray(y, dtype=np.float64)
    if y.shape[0] != f_av.shape[1]:
        raise ad.ShapeError(f"contrastive: labels length {y.shape[0]} vs features {f_av.shape[1]}")
    diff = f_av - f_va
    dist = ad.sqrt(ad.scalar_mul(ad.mean(ad.mul(diff, diff), axis=-1), f_av.shape[-1]))  # [2, T]
    d = ad.batch_element(dist, 0) + ad.flip(ad.batch_element(dist, 1), axis=0)
    pull = ad.mul(Tensor(1.0 - y), ad.mul(d, d))
    hinge = ad.relu(cfg.margin - d)
    push = ad.mul(Tensor(y), ad.mul(hinge, hinge))
    return ad.mean(pull + push)


def boundary_map_loss(pred: Tensor, target: np.ndarray, mask: np.ndarray) -> Tensor:
    """MSE over in-range boundary-map cells only; pred, target and mask are [L, T]."""
    if pred.shape != target.shape or pred.shape != mask.shape:
        raise ad.ShapeError(
            f"boundary map loss: shapes differ, pred {pred.shape}, "
            f"target {target.shape}, mask {mask.shape}"
        )
    count = int(mask.sum())
    if count == 0:
        raise ValueError("boundary map loss: mask selects no cells")
    diff = ad.add(pred, Tensor(-target))
    masked = ad.mul(ad.mul(diff, diff), Tensor(mask.astype(np.float64)))
    return ad.scalar_mul(ad.mean(masked), masked.size / count)


def _focal_terms(pred: Tensor, target: np.ndarray, cfg: LossConfig) -> Tensor:
    """Class-balanced focal BCE of each prediction against its binarized soft label.

    g = [target > threshold]; p_hat is the probability assigned to the true
    class; each entry is weight * (1 - p_hat)^beta1 * BCE.
    """
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ad.ShapeError(f"focal: shapes differ, pred {pred.shape} vs target {target.shape}")
    if not np.all((pred.data > 0) & (pred.data < 1)):  # also rejects NaN
        raise ValueError("focal: predictions must lie strictly inside (0, 1)")
    if not np.all((target >= 0) & (target <= 1)):  # also rejects NaN
        raise ValueError("focal: targets must lie in [0, 1]")
    g = (target > cfg.label_threshold).astype(np.float64)
    weight = cfg.beta0 * g + (1.0 - cfg.beta0) * (1.0 - g)
    p_hat = ad.mul(pred, Tensor(g)) + ad.mul(1.0 - pred, Tensor(1.0 - g))
    bce = -ad.log(p_hat)
    focus = ad.pow_const(1.0 - p_hat, cfg.beta1)
    return ad.mul(Tensor(weight), ad.mul(focus, bce))


def focal_loss(pred: Tensor, target: np.ndarray, cfg: LossConfig) -> Tensor:
    """Mean class-balanced focal BCE against the binarized soft labels."""
    return ad.mean(_focal_terms(pred, target, cfg))


def frame_prob_loss(probs: Tensor, triplets: np.ndarray, cfg: LossConfig) -> Tensor:
    """Sum of the six per-column focal terms (start/end/content, both directions).

    probs and triplets are stacked [2, T, 3] pairs, element 1 in reversed
    time. The focal term is elementwise, so one pass covers both directions,
    and 3 times a direction's mean is the sum of its three column means.
    The mean is taken per direction, then 6 times the mean of the two (which
    rounds like 3 times their sum): one mean over all 6T entries sums in
    another order and can change the loss in its last bit.
    """
    if probs.data.ndim != 3 or probs.shape[0] != 2:
        raise ad.ShapeError(f"frame prob loss: expected a [2, T, 3] pair, got {probs.shape}")
    terms = _focal_terms(probs, triplets, cfg)
    per_direction = ad.mean(ad.reshape(terms, (2, terms.size // 2)), axis=1)
    return ad.scalar_mul(ad.mean(per_direction), 6.0)


def total_loss(contrastive: Tensor, boundary: Tensor, frame: Tensor, cfg: LossConfig) -> Tensor:
    return ad.scalar_mul(contrastive, cfg.alpha) + boundary + frame
