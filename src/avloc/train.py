"""Training loop: per-clip losses, SGD/Adam steps, plateau learning-rate halving.

Supervision targets are precomputed once per clip as plain float64 arrays
in the heads' layouts: frame labels [T], boundary map and its in-range mask
[L, T], and the start / end / content triplets of both directions stacked
as [2, T, 3] like the model's frame probabilities, element 1 in reversed
time. The losses take the model's stacked pair as it is. Each
optimization step accumulates gradients over a batch of clips, scales by
the batch size, and applies one parameter update. A clip whose four loss
values are not all finite stops training with a ValueError that names the
epoch, step and clip. backward() releases each clip's graph as it takes
the gradients, so one graph is live at a time. The learning rate halves whenever validation loss has not improved for
`patience` consecutive epochs, and the best-validation parameters are
restored at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Clip, StreamAnnotation
from .labels import build_boundary_map, build_frame_labels, build_prob_triplet, in_range_mask
from .losses import (
    LossConfig,
    boundary_map_loss,
    contrastive_loss,
    frame_prob_loss,
    total_loss,
)
from .model import Model
from .autodiff import Tensor, no_grad


@dataclass(frozen=True)
class OptimConfig:
    learning_rate: float = 0.01
    epochs: int = 18
    batch_size: int = 4
    patience: int = 3
    optimizer: str = "adam"  # "sgd" or "adam"

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("optim.learning_rate: must be > 0")
        if self.epochs < 1:
            raise ValueError("optim.epochs: must be >= 1")
        if self.batch_size < 1:
            raise ValueError("optim.batch_size: must be >= 1")
        if self.patience < 1:
            raise ValueError("optim.patience: must be >= 1")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"optim.optimizer: unknown optimizer {self.optimizer!r}")


@dataclass
class ClipTargets:
    frame_labels: np.ndarray  # [T]
    boundary: np.ndarray      # [L, T]
    mask: np.ndarray          # [L, T] bool
    triplets: np.ndarray      # [2, T, 3] forward, backward (in reversed time)


def build_targets(ann: StreamAnnotation, max_duration: int, d_f: float) -> ClipTargets:
    return ClipTargets(
        frame_labels=build_frame_labels(ann),
        boundary=build_boundary_map(ann, max_duration),
        mask=in_range_mask(max_duration, ann.num_frames),
        triplets=np.stack([build_prob_triplet(ann, d_f, direction)
                           for direction in ("forward", "backward")]),
    )


@dataclass
class LossBreakdown:
    contrastive: Tensor
    boundary: Tensor
    frame: Tensor
    total: Tensor

    def values(self) -> tuple[float, float, float, float]:
        return (
            self.contrastive.item(),
            self.boundary.item(),
            self.frame.item(),
            self.total.item(),
        )


def clip_losses(model: Model, clip: Clip, targets: ClipTargets, cfg: LossConfig) -> LossBreakdown:
    stream, _ = clip
    out = model.forward_full(stream)
    l_fc = contrastive_loss(out.f_av, out.f_va, targets.frame_labels, cfg)
    l_cp = boundary_map_loss(out.boundary_map, targets.boundary, targets.mask)
    l_fp = frame_prob_loss(out.probs, targets.triplets, cfg)
    return LossBreakdown(l_fc, l_cp, l_fp, total_loss(l_fc, l_cp, l_fp, cfg))


class _Sgd:
    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr

    def step(self, scale: float) -> None:
        for p in self.params.values():
            if p.grad is not None:
                p.data -= self.lr * scale * p.grad


class _Adam:
    def __init__(self, params: dict[str, Tensor], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, scale: float) -> None:
        self.t += 1
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad * scale
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            m_hat = self.m[name] / (1 - self.beta1 ** self.t)
            v_hat = self.v[name] / (1 - self.beta2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class TrainResult:
    model: Model
    step_log: list[tuple[int, float, float, float, float]] = field(default_factory=list)
    epoch_log: list[tuple[int, float, float]] = field(default_factory=list)  # epoch, val, lr
    best_val: float = float("inf")
    best_epoch: int = -1


def train(
    model: Model,
    train_clips: list[Clip],
    val_clips: list[Clip],
    loss_cfg: LossConfig,
    optim_cfg: OptimConfig,
    d_f: float = 1.0,
    seed: int = 0,
) -> TrainResult:
    max_duration = model.cfg.max_duration
    train_targets = [build_targets(ann, max_duration, d_f) for _, ann in train_clips]
    val_targets = [build_targets(ann, max_duration, d_f) for _, ann in val_clips]

    opt_cls = _Adam if optim_cfg.optimizer == "adam" else _Sgd
    opt = opt_cls(model.params, optim_cfg.learning_rate)
    rng = np.random.default_rng(seed)
    result = TrainResult(model=model)
    best_snapshot = {k: p.data.copy() for k, p in model.params.items()}
    since_best = 0
    step = 0

    for epoch in range(optim_cfg.epochs):
        order = rng.permutation(len(train_clips))
        for lo in range(0, len(order), optim_cfg.batch_size):
            batch = order[lo:lo + optim_cfg.batch_size]
            model.zero_grad()
            sums = np.zeros(4)
            for idx in batch:
                losses = clip_losses(model, train_clips[idx], train_targets[idx], loss_cfg)
                values = losses.values()
                if not np.all(np.isfinite(values)):
                    raise ValueError(
                        f"train: non-finite loss at epoch {epoch}, step {step + 1}, clip "
                        f"{train_clips[idx][1].id!r}: contrastive, boundary, frame, total = "
                        f"{', '.join(map(repr, values))}"
                    )
                losses.total.backward()
                sums += values
            opt.step(1.0 / len(batch))
            step += 1
            avg = sums / len(batch)
            result.step_log.append(
                (step, float(avg[0]), float(avg[1]), float(avg[2]), float(avg[3]))
            )

        if val_clips:
            with no_grad():
                val_loss = float(np.mean([
                    clip_losses(model, clip, tgt, loss_cfg).total.item()
                    for clip, tgt in zip(val_clips, val_targets)
                ]))
        else:
            val_loss = result.step_log[-1][4] if result.step_log else 0.0
        result.epoch_log.append((epoch, val_loss, opt.lr))

        if val_loss < result.best_val:
            result.best_val = val_loss
            result.best_epoch = epoch
            best_snapshot = {k: p.data.copy() for k, p in model.params.items()}
            since_best = 0
        else:
            since_best += 1
            if since_best >= optim_cfg.patience:
                opt.lr *= 0.5
                since_best = 0

    for name, p in model.params.items():
        p.data = best_snapshot[name]
    return result
