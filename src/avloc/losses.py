"""Training objectives.

Three terms combined as alpha * contrastive + boundary-map MSE + focal sum:

* a frame-level margin contrastive loss on the cross-attention outputs,
  pulling the two modality views together on real frames and pushing them
  past a margin on fake frames (both temporal directions contribute to the
  per-frame distance);
* a masked MSE between the predicted and target boundary maps, averaged
  over in-range cells only;
* a class-balanced focal loss on the frame head's [T, 3] start / end /
  content output of each direction.

Targets are plain float64 arrays in the heads' layouts (see `labels`).
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
        if self.alpha < 0:
            raise ValueError("loss.alpha: must be >= 0")
        if self.margin <= 0:
            raise ValueError("loss.margin: must be > 0")
        if not (0 < self.beta0 < 1):
            raise ValueError("loss.beta0: must be in (0, 1)")
        if self.beta1 < 0:
            raise ValueError("loss.beta1: must be >= 0")
        if not (0 < self.label_threshold < 1):
            raise ValueError("loss.label_threshold: must be in (0, 1)")


def _row_norm(a: Tensor, b: Tensor) -> Tensor:
    """Per-row L2 distance between two [T, C] tensors."""
    if a.shape != b.shape:
        raise ad.ShapeError(f"contrastive: embedding shapes differ, {a.shape} vs {b.shape}")
    diff = a - b
    return ad.sqrt(ad.scalar_mul(ad.mean(ad.mul(diff, diff), axis=1), a.shape[1]))


def contrastive_loss(
    f_av_fwd: Tensor,
    f_va_fwd: Tensor,
    f_av_bwd: Tensor,
    f_va_bwd: Tensor,
    y: np.ndarray,
    cfg: LossConfig,
) -> Tensor:
    """Margin contrastive loss over per-frame cross-modal distances, y the [T] labels.

    The backward-direction distance is re-indexed to forward time before
    pairing with the labels, so frame t always compares against y[t].
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape[0] != f_av_fwd.shape[0]:
        raise ad.ShapeError(
            f"contrastive: labels length {y.shape[0]} vs features {f_av_fwd.shape[0]}"
        )
    d = _row_norm(f_av_fwd, f_va_fwd) + ad.flip(_row_norm(f_av_bwd, f_va_bwd), axis=0)
    y_t = Tensor(y)
    pull = ad.mul(Tensor(1.0 - y), ad.mul(d, d))
    hinge = ad.relu(cfg.margin - d)
    push = ad.mul(y_t, ad.mul(hinge, hinge))
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
    diff = pred - Tensor(target)
    masked = ad.mul(ad.mul(diff, diff), Tensor(mask.astype(np.float64)))
    return ad.scalar_mul(ad.mean(masked), masked.size / count)


def focal_loss(pred: Tensor, target: np.ndarray, cfg: LossConfig) -> Tensor:
    """Class-balanced focal BCE against the binarized soft labels.

    g = [target > threshold]; p_hat is the probability assigned to the true
    class; each frame contributes weight * (1 - p_hat)^beta1 * BCE.
    """
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ad.ShapeError(f"focal: shapes differ, pred {pred.shape} vs target {target.shape}")
    if np.any((pred.data <= 0) | (pred.data >= 1)):
        raise ValueError("focal: predictions must lie strictly inside (0, 1)")
    if np.any((target < 0) | (target > 1)):
        raise ValueError("focal: targets must lie in [0, 1]")
    g = (target > cfg.label_threshold).astype(np.float64)
    weight = cfg.beta0 * g + (1.0 - cfg.beta0) * (1.0 - g)
    p_hat = ad.mul(pred, Tensor(g)) + ad.mul(1.0 - pred, Tensor(1.0 - g))
    bce = -ad.log(p_hat)
    focus = ad.pow_const(1.0 - p_hat, cfg.beta1)
    return ad.mean(ad.mul(Tensor(weight), ad.mul(focus, bce)))


def frame_prob_loss(
    pred_fwd: Tensor,
    pred_bwd: Tensor,
    true_fwd: np.ndarray,
    true_bwd: np.ndarray,
    cfg: LossConfig,
) -> Tensor:
    """Sum of the six per-column focal terms (start/end/content, both directions).

    Predictions and targets are [T, 3] with columns start, end, content. The
    focal term is elementwise, so three times its mean over all 3T elements
    is the sum of the three column means.
    """
    both = focal_loss(pred_fwd, true_fwd, cfg) + focal_loss(pred_bwd, true_bwd, cfg)
    return ad.scalar_mul(both, 3.0)


def total_loss(contrastive: Tensor, boundary: Tensor, frame: Tensor, cfg: LossConfig) -> Tensor:
    return ad.scalar_mul(contrastive, cfg.alpha) + boundary + frame
