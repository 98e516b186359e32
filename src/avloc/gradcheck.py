"""Finite-difference verification of every model gradient.

Builds a model and one synthetic clip, computes all loss terms once
analytically, then sweeps every parameter coordinate with central
differences and reports the worst relative error per (loss, parameter
group). The relative error per coordinate is
|analytic - numeric| / max(1, |analytic|).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import central_differences, no_grad
from .data import SynthConfig, generate_clip
from .losses import LossConfig
from .model import Model, ModelConfig, parameter_group
from .train import build_targets, clip_losses

LOSS_NAMES = ("contrastive", "boundary", "frame", "total")

TINY_MODEL = ModelConfig(
    num_frames=16, d_audio=4, d_visual=4, channels=4, max_duration=4, num_samples=4
)


def _tiny_synth(cfg: ModelConfig) -> SynthConfig:
    return SynthConfig(
        count=1,
        num_frames=cfg.num_frames,
        d_audio=cfg.d_audio,
        d_visual=cfg.d_visual,
        min_segments=1,
        max_segments=2,
        min_len=2,
        max_len=min(5, cfg.num_frames // 3),
        delta=1.5,
        noise=0.5,
    )


@dataclass
class GradCheckReport:
    # (loss name, parameter group) -> max relative error over coordinates
    errors: dict[tuple[str, str], float]
    threshold: float = 1e-4

    @property
    def max_error(self) -> float:
        return max(self.errors.values())

    @property
    def passed(self) -> bool:
        return self.max_error <= self.threshold

    def rows(self) -> list[tuple[str, str, float]]:
        return [(loss, group, err) for (loss, group), err in sorted(self.errors.items())]

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "passed": self.passed,
            "max_error": self.max_error,
            "errors": [
                {"loss": loss, "group": group, "max_relative_error": err}
                for loss, group, err in self.rows()
            ],
        }


def model_grad_errors(
    model_cfg: ModelConfig = TINY_MODEL,
    loss_cfg: LossConfig = LossConfig(),
    d_f: float = 1.0,
    seed: int = 0,
    h: float = 1e-5,
    threshold: float = 1e-4,
) -> GradCheckReport:
    model = Model(model_cfg, seed=seed)
    clip = generate_clip(_tiny_synth(model_cfg), np.random.default_rng([seed, 1]), "gradcheck")
    targets = build_targets(clip[1], model_cfg.max_duration, d_f)

    def loss_values() -> np.ndarray:
        with no_grad():
            return np.array(clip_losses(model, clip, targets, loss_cfg).values())

    # Analytic gradients: one backward pass per loss term.
    analytic: dict[str, dict[str, np.ndarray]] = {}
    for k, loss_name in enumerate(LOSS_NAMES):
        model.zero_grad()
        losses = clip_losses(model, clip, targets, loss_cfg)
        (losses.contrastive, losses.boundary, losses.frame, losses.total)[k].backward()
        analytic[loss_name] = {
            name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
            for name, p in model.params.items()
        }

    groups = sorted({parameter_group(name) for name in model.params})
    errors = {(loss, group): 0.0 for loss in LOSS_NAMES for group in groups}
    for name, p in model.params.items():
        group = parameter_group(name)
        for i, numeric in enumerate(central_differences(loss_values, p.data, h)):
            for k, loss_name in enumerate(LOSS_NAMES):
                a = analytic[loss_name][name].ravel()[i]
                rel = float(abs(a - numeric[k]) / max(1.0, abs(a)))
                key = (loss_name, group)
                if rel > errors[key]:
                    errors[key] = rel
    return GradCheckReport(errors=errors, threshold=threshold)
