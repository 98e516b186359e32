"""Run configuration: one JSON file covering data synthesis, model dims,
losses, optimization, and inference.

Reference values from the original full-scale setting (not the toy
defaults below): 512 frames per clip, max candidate duration 60,
contrastive weight 0.1, Adam at 1e-4 with halving after a 3-epoch
validation plateau, 40 epochs, batch size 8.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass
from pathlib import Path

from .data import DatasetFormatError, SynthConfig, finite_float, read_json
from .inference import InferenceConfig
from .losses import LossConfig
from .model import ModelConfig
from .train import OptimConfig


class ConfigError(ValueError):
    """Configuration file is invalid; message names the offending field."""


@dataclass(frozen=True)
class RunConfig:
    seed: int = 42
    model: ModelConfig = ModelConfig()
    synth: SynthConfig = SynthConfig()  # synth.count is the train-split size
    val_clips: int = 25
    test_clips: int = 50
    loss: LossConfig = LossConfig()
    optim: OptimConfig = OptimConfig()
    infer: InferenceConfig = InferenceConfig()

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if self.val_clips < 0 or self.test_clips < 0:
            raise ConfigError("synth.val_clips/test_clips: must be >= 0")
        for field_name in ("num_frames", "d_audio", "d_visual"):
            mv = getattr(self.model, field_name)
            sv = getattr(self.synth, field_name)
            if mv != sv:
                raise ConfigError(
                    f"model.{field_name}={mv} does not match synth.{field_name}={sv}"
                )


# JSON values accepted for numeric dataclass fields. Python's bool is an int,
# so JSON true/false is rejected separately.
_NUMERIC_FIELDS = {int: ((int,), "an integer"), float: ((int, float), "a number")}


def _field_values(prefix: str, cls, obj: dict, renames: dict[str, str] | None = None) -> dict:
    """Map JSON keys onto fields of dataclass `cls`, rejecting unknown names,
    anything but a JSON integer for an `int` field and anything but a finite
    JSON number for a `float` field (bools included in both). NaN must be
    caught here: it passes every range check in the dataclasses."""
    renames = renames or {}
    types = typing.get_type_hints(cls)
    known = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in obj.items():
        name = renames.get(key, key)
        if name not in known or key in renames.values():  # a renamed field has one JSON name
            raise ConfigError(f"{prefix}{key}: unknown field")
        if types[name] in _NUMERIC_FIELDS:
            accepted, expected = _NUMERIC_FIELDS[types[name]]
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ConfigError(f"{prefix}{key}: expected {expected}, got {value!r}")
            if types[name] is float:
                try:
                    finite_float(value, f"{prefix}{key}")
                except DatasetFormatError as exc:
                    raise ConfigError(str(exc)) from None
        kwargs[name] = value
    return kwargs


def _build_section(section: str, cls, obj: dict, renames: dict[str, str] | None = None):
    if not isinstance(obj, dict):
        raise ConfigError(f"{section}: expected a JSON object")
    kwargs = _field_values(f"{section}.", cls, obj, renames)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:  # each section's checks name the section
        raise ConfigError(str(exc)) from exc


def run_config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root: expected a JSON object")
    known = {"seed", "model", "synth", "loss", "optim", "infer"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"{key}: unknown top-level field")
    seed = {k: v for k, v in raw.items() if k == "seed"}
    synth_raw = raw.get("synth", {})
    if not isinstance(synth_raw, dict):
        raise ConfigError("synth: expected a JSON object")
    splits = {k: v for k, v in synth_raw.items() if k in ("val_clips", "test_clips")}
    synth_raw = {k: v for k, v in synth_raw.items() if k not in splits}

    try:
        return RunConfig(
            **_field_values("", RunConfig, seed),
            **_field_values("synth.", RunConfig, splits),
            model=_build_section("model", ModelConfig, raw.get("model", {})),
            synth=_build_section("synth", SynthConfig, synth_raw,
                                 renames={"train_clips": "count"}),
            loss=_build_section("loss", LossConfig, raw.get("loss", {})),
            optim=_build_section("optim", OptimConfig, raw.get("optim", {})),
            infer=_build_section("infer", InferenceConfig, raw.get("infer", {})),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def load_run_config(path: Path) -> RunConfig:
    try:
        raw = read_json(path)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except DatasetFormatError as exc:
        raise ConfigError(str(exc)) from exc
    return run_config_from_dict(raw)


def run_config_to_dict(cfg: RunConfig) -> dict:
    synth = dataclasses.asdict(cfg.synth)
    synth["train_clips"] = synth.pop("count")
    synth["val_clips"] = cfg.val_clips
    synth["test_clips"] = cfg.test_clips
    return {
        "seed": cfg.seed,
        "model": dataclasses.asdict(cfg.model),
        "synth": synth,
        "loss": dataclasses.asdict(cfg.loss),
        "optim": dataclasses.asdict(cfg.optim),
        "infer": dataclasses.asdict(cfg.infer),
    }
