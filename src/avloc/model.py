"""Toy bidirectional two-stream localization model.

Per-modality conv encoders, audio<->visual cross-attention, linear fusion
with a frame classifier, then two heads on the fused per-frame features:

* a boundary-map head that softly samples every candidate segment
  (start j, duration i+1) with a fixed interpolation kernel, collapses the
  sample axis with learned weights, and scores the [L, T] grid with a 3x3
  conv folded into the sampling and a linear read-out. The kernel is
  indexed by offset from the start, so its size does not grow with T;
* a frame-probability head, a 2-level U-Net over time producing a [T, 3]
  tensor of per-frame logits, columns start / end / content. The loss
  takes the logits (`autodiff.focal`); inference applies the sigmoid.

No parameter or buffer depends on the clip length T, which is read from
each clip: one model serves any T >= 1, T < L included (the U-Net pools an
odd T in ceil mode). `ModelConfig.num_frames` is not read here.

The encoder, the fusion and the frame head run once per clip on a stacked
pair: the forward stream and the time-reversed stream, as element 0 and 1
of a leading batch axis ([2, T, .]), with shared weights. The pair stays
stacked in `ForwardOutput` for the losses and inference; only the
boundary-map head reads one element, the forward one. Per-element
gradients of the shared weights are added across the pair, so the outputs
and gradients carry the bytes of one pass per direction.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import FeatureStream

CHECKPOINT_MAGIC = b"HBMP"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Checkpoint file is malformed or does not match the active config."""


@dataclass(frozen=True)
class ModelConfig:
    num_frames: int = 128   # mirrors synth.num_frames; the model reads T from each clip
    d_audio: int = 16
    d_visual: int = 16
    channels: int = 32      # C, shared embedding width
    max_duration: int = 40  # L, longest candidate segment in frames
    num_samples: int = 16   # N, sample points per candidate segment

    def __post_init__(self):
        if self.d_audio <= 0 or self.d_visual <= 0:
            raise ValueError("model.d_audio/d_visual: must be positive")
        if self.channels <= 0:
            raise ValueError("model.channels: must be positive")
        if self.max_duration < 1:
            raise ValueError("model.max_duration: must be >= 1")
        if self.num_samples < 2:
            raise ValueError("model.num_samples: must be >= 2")

    @property
    def fused_channels(self) -> int:
        """Fused feature width: C channels plus the frame-probability channel."""
        return self.channels + 1


@dataclass
class BMSamplingMask:
    """Interpolation weights that soft-sample per-frame features per candidate.

    taps[n, 1, i, k], the kernel, is the weight that sample point n of a
    candidate with duration index i (i + 1 frames) puts on the frame k frames
    after the candidate's start. Sample point n sits at offset n * i / (N - 1)
    and splits its unit weight linearly between the two neighbouring frames,
    so the weights depend on the offset alone, never on the start, and
    k <= i. Candidates that run past the last frame are masked where the
    kernel is applied (`autodiff.banded_matmul`). Taps a = 0 and 2 are the
    kernel row-shifted for the map conv's duration taps: taps[n, a, i] =
    taps[n, 1, i + a - 1], zero outside [0, L).
    """

    taps: np.ndarray  # [N, 3, L, L]


def build_sampling_mask(max_duration: int, num_samples: int) -> BMSamplingMask:
    if num_samples < 2:
        raise ValueError(f"num_samples must be >= 2, got {num_samples}")
    if max_duration < 1:
        raise ValueError(f"max_duration must be >= 1, got {max_duration}")
    l, n = max_duration, num_samples
    m, i = np.indices((n, l))
    # Offsets within [0, duration-1]; clamp and snap to kill float drift
    # so integer sample positions stay exactly one-hot.
    rel = np.minimum(m * i / (n - 1), i.astype(float))
    base = np.floor(rel)
    frac = rel - base
    up = frac > 1.0 - 1e-9
    base = (base + up).astype(int)
    frac[up | (frac < 1e-9)] = 0.0
    taps = np.zeros((n, 3, l, l))
    kernel = taps[:, 1]
    kernel[m, i, base] = 1.0 - frac
    split = frac > 0.0
    kernel[m[split], i[split], base[split] + 1] = frac[split]
    taps[:, 0, 1:], taps[:, 2, :-1] = kernel[:, :-1], kernel[:, 1:]
    return BMSamplingMask(taps=taps)


# Parameter table: name -> shape builder. Order is fixed so that seeded
# initialization and checkpoints are deterministic.
def _param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    c = cfg.channels
    cf = cfg.fused_channels
    return {
        "enc_audio.w": (3, cfg.d_audio, c),
        "enc_audio.b": (c,),
        "enc_visual.w": (3, cfg.d_visual, c),
        "enc_visual.b": (c,),
        "att_av.q": (c, c),
        "att_av.k": (c, c),
        "att_av.v": (c, c),
        "att_va.q": (c, c),
        "att_va.k": (c, c),
        "att_va.v": (c, c),
        "fusion.w": (2 * c, c),
        "fusion.b": (c,),
        "frame_cls.w": (c, 1),
        "frame_cls.b": (1,),
        "map_head.sample_w": (cfg.num_samples,),
        "map_head.conv_w": (3, 3, cf, c),
        "map_head.conv_b": (c,),
        "map_head.out_w": (c, 1),
        "map_head.out_b": (1,),
        "frame_head.enc1_w": (3, cf, c),
        "frame_head.enc1_b": (c,),
        "frame_head.enc2_w": (3, c, c),
        "frame_head.enc2_b": (c,),
        "frame_head.dec1_w": (3, 2 * c, c),
        "frame_head.dec1_b": (c,),
        "frame_head.dec2_w": (3, 2 * c, c),
        "frame_head.dec2_b": (c,),
        "frame_head.out_w": (1, c, 3),
        "frame_head.out_b": (3,),
    }


def parameter_count(cfg: ModelConfig) -> int:
    """Total scalar parameter count implied by the config."""
    return sum(int(np.prod(s)) for s in _param_shapes(cfg).values())


def init_params(cfg: ModelConfig, seed: int) -> dict[str, Tensor]:
    """Weights uniform in [-0.1, 0.1] from a seeded RNG; biases zero."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in _param_shapes(cfg).items():
        if name.endswith(".b") or name.endswith("_b"):
            data = np.zeros(shape)
        else:
            data = rng.uniform(-0.1, 0.1, size=shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


def parameter_group(name: str) -> str:
    return name.split(".", 1)[0]


@dataclass
class EncodeOutput:
    """Fused per-frame features and intermediates, stacked [forward, backward]
    along a leading batch axis; the backward element is in reversed time.
    Channel C of `fused` is the frame classifier's fake probability."""

    fused: Tensor  # [2, T, C+1]
    f_av: Tensor   # [2, T, C] audio features plus the audio-queried cross-attention
    f_va: Tensor   # [2, T, C] visual features plus the visual-queried cross-attention


@dataclass
class ForwardOutput:
    boundary_map: Tensor                # [L, T], forward direction
    frame_logits: Tensor                # [2, T, 3] start / end / content
    f_av: Tensor = field(repr=False)    # [2, T, C], as in EncodeOutput
    f_va: Tensor = field(repr=False)    # [2, T, C]


def _cross_attention(query_feat: Tensor, kv_feat: Tensor, wq: Tensor, wk: Tensor,
                     wv: Tensor) -> Tensor:
    """Per-element attention over a stacked pair: [B, T, C] queries and keys."""
    c = wq.shape[1]
    q = ad.matmul(query_feat, wq)
    k = ad.matmul(kv_feat, wk)
    v = ad.matmul(kv_feat, wv)
    scores = ad.scalar_mul(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(c))
    return ad.matmul(ad.softmax(scores, axis=-1), v)


def folded_conv2d(taps: Tensor, x: Tensor, w: Tensor) -> Tensor:
    """A [KA, KB, C_in, C_out] conv over the [L, T, C_in] grid of banded x,
    folded into the band: [KA, L, L] kernels, row-shifted per duration tap,
    x [T, C_in] -> [L, T, C_out]. The KB time taps run first, as one conv1d."""
    ka, kb, cin, cout = w.shape
    w = ad.reshape(ad.transpose(w, (1, 2, 0, 3)), (kb, cin, ka * cout))
    return ad.banded_matmul(taps, ad.conv1d(x, w))


def _conv_relu(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """relu(conv1d(x, w) + b) over a stacked [B, T, C] batch."""
    return ad.relu(ad.add(ad.conv1d(x, w), b, batched=True))


class Model:
    """Parameter container plus the forward passes of every sub-network."""

    def __init__(self, cfg: ModelConfig, seed: int = 0,
                 params: dict[str, Tensor] | None = None):
        self.cfg = cfg
        self.params = params if params is not None else init_params(cfg, seed)
        expected = _param_shapes(cfg)
        missing = set(expected) - set(self.params)
        extra = set(self.params) - set(expected)
        if missing or extra:
            raise CheckpointError(
                f"parameter names do not match config "
                f"(missing {sorted(missing)}, unexpected {sorted(extra)})"
            )
        for name, shape in expected.items():
            if self.params[name].shape != shape:
                raise CheckpointError(
                    f"parameter {name!r} has shape {self.params[name].shape}, "
                    f"config requires {shape}"
                )
        self.mask = build_sampling_mask(cfg.max_duration, cfg.num_samples)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def check_feature_widths(self, stream: FeatureStream, clip_id: str | None = None) -> None:
        """Raise ValueError, naming `clip_id` if given, unless the stream's
        feature widths are model.d_audio and model.d_visual."""
        for name, feats in (("d_audio", stream.audio), ("d_visual", stream.visual)):
            if feats.shape[1] != getattr(self.cfg, name):
                where = "" if clip_id is None else f"clip {clip_id!r}: "
                raise ValueError(f"{where}stream has {feats.shape[1]}-wide {name[2:]} features, "
                                 f"but model.{name} is {getattr(self.cfg, name)}")

    def encode_and_fuse(self, stream: FeatureStream) -> EncodeOutput:
        """Encode and fuse the forward and the time-reversed stream as one stacked pair."""
        self.check_feature_widths(stream)
        audio = Tensor(np.stack([stream.audio, stream.audio[::-1]]))
        visual = Tensor(np.stack([stream.visual, stream.visual[::-1]]))
        p = self.params
        f_a = _conv_relu(audio, p["enc_audio.w"], p["enc_audio.b"])
        f_v = _conv_relu(visual, p["enc_visual.w"], p["enc_visual.b"])
        f_av = ad.add(f_a, _cross_attention(f_a, f_v, p["att_av.q"], p["att_av.k"], p["att_av.v"]))
        f_va = ad.add(f_v, _cross_attention(f_v, f_a, p["att_va.q"], p["att_va.k"], p["att_va.v"]))
        fused = ad.add(ad.matmul(ad.concat([f_av, f_va], axis=-1), p["fusion.w"]), p["fusion.b"],
                       batched=True)
        fake_prob = ad.sigmoid(ad.add(ad.matmul(fused, p["frame_cls.w"]), p["frame_cls.b"],
                                      batched=True))
        return EncodeOutput(fused=ad.concat([fused, fake_prob], axis=-1), f_av=f_av, f_va=f_va)

    def boundary_map_head(self, fused: Tensor) -> Tensor:
        """Score every candidate segment: [T, C+1] fused features -> [L, T] map."""
        cfg = self.cfg
        p = self.params
        # The sampling is linear, so both the learned sample weights and a 3x3
        # conv over the [L, T, C+1] grid of sampled features fold into it. The
        # conv's tap conv_w[a, b] sits at duration offset a - 1 and time offset
        # b - 1: its time taps run first, as one conv1d with C channels per
        # duration tap, and duration tap a reads the kernel row-shifted by a - 1.
        # Where a conv over the masked grid reads its zero padding or a masked
        # cell (the t = 0 column, the last two in-range diagonals), the fold
        # reads sampled features.
        n, l, t, c = cfg.num_samples, cfg.max_duration, fused.shape[0], cfg.channels
        weights = ad.reshape(p["map_head.sample_w"], (1, n))
        taps = ad.reshape(ad.matmul(weights, Tensor(self.mask.taps.reshape(n, -1))), (3, l, l))
        grid = folded_conv2d(taps, fused, p["map_head.conv_w"])  # [L, T, C]
        hidden = ad.relu(ad.add(grid, p["map_head.conv_b"]))
        flat = ad.reshape(hidden, (l * t, c))
        out = ad.sigmoid(ad.add(ad.matmul(flat, p["map_head.out_w"]), p["map_head.out_b"]))
        return ad.reshape(out, (l, t))

    def frame_prob_head(self, fused: Tensor) -> Tensor:
        """2-level U-Net over time on a stacked pair: [B, T, C+1] -> [B, T, 3]
        start / end / content logits (no sigmoid)."""
        p = self.params
        e1 = _conv_relu(fused, p["frame_head.enc1_w"], p["frame_head.enc1_b"])
        p1 = ad.max_pool1d(e1)
        e2 = _conv_relu(p1, p["frame_head.enc2_w"], p["frame_head.enc2_b"])
        p2 = ad.max_pool1d(e2)
        u1 = ad.upsample1d(p2, e2.shape[-2])
        d1 = _conv_relu(ad.concat([u1, e2], axis=-1), p["frame_head.dec1_w"], p["frame_head.dec1_b"])
        u2 = ad.upsample1d(d1, e1.shape[-2])
        d2 = _conv_relu(ad.concat([u2, e1], axis=-1), p["frame_head.dec2_w"], p["frame_head.dec2_b"])
        return ad.add(ad.conv1d(d2, p["frame_head.out_w"]), p["frame_head.out_b"], batched=True)

    def forward_full(self, stream: FeatureStream) -> ForwardOutput:
        """Both heads on one stacked pass: the boundary map of the forward
        element and the [2, T, 3] frame logits of both directions."""
        enc = self.encode_and_fuse(stream)
        frame_logits = self.frame_prob_head(enc.fused)
        return ForwardOutput(
            boundary_map=self.boundary_map_head(ad.batch_element(enc.fused, 0)),
            frame_logits=frame_logits, f_av=enc.f_av, f_va=enc.f_va,
        )


def save_checkpoint(path: Path, model: Model) -> None:
    with open(Path(path), "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(model.params)))
        for name in sorted(model.params):
            tensor = model.params[name]
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", tensor.data.ndim))
            fh.write(struct.pack(f"<{tensor.data.ndim}I", *tensor.data.shape))
            fh.write(tensor.data.astype("<f8").tobytes())


def load_checkpoint(path: Path, cfg: ModelConfig) -> Model:
    buf = Path(path).read_bytes()
    if len(buf) < 12:
        raise CheckpointError(f"{path}: truncated header at byte {len(buf)}")
    if buf[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {buf[:4]!r}")
    version, count = struct.unpack("<II", buf[4:12])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    offset = 12

    def take(n: int) -> bytes:
        nonlocal offset
        if offset + n > len(buf):
            raise CheckpointError(f"{path}: truncated at byte {offset}")
        offset += n
        return buf[offset - n:offset]

    params: dict[str, Tensor] = {}
    for _ in range(count):
        record_at = offset
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(
                f"{path}: parameter name is not UTF-8 at byte {offset - name_len}"
            ) from None
        if name in params:
            raise CheckpointError(f"{path}: duplicate parameter {name!r} at byte {record_at}")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        data = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8")
        if not np.isfinite(data).all():
            raise CheckpointError(f"{path}: non-finite value in parameter {name!r}")
        try:
            values = data.reshape(shape)
        except ValueError:  # the sizes match, so only the rank can be out of numpy's range
            raise CheckpointError(
                f"{path}: parameter {name!r} at byte {record_at} has {ndim} dimensions"
            ) from None
        params[name] = Tensor(values.astype(np.float64), requires_grad=True)
    if offset != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - offset} trailing bytes at byte {offset}")
    try:
        return Model(cfg, params=params)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
