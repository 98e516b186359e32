"""Synthetic bidirectional audio-visual feature streams with injected fake segments.

Stands in for a real capture/extraction pipeline at desk scale. Each clip is
a pair of per-frame feature matrices (audio, visual) plus an annotation of
which frame ranges were manipulated in which modality. Generation is
deterministic given (config, seed) with an independent RNG stream per clip.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FEATURE_MAGIC = b"HBML"
FEATURE_VERSION = 1


class DatasetFormatError(ValueError):
    """A dataset file is malformed, truncated, or has the wrong version."""


def read_json(path: Path):
    """Parse a UTF-8 JSON file; bad text is a DatasetFormatError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"{path}: invalid JSON at byte {exc.pos}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8 at byte {exc.start}") from None
    except RecursionError:
        raise DatasetFormatError(f"{path}: JSON nested too deeply") from None


def finite_float(value, where: str) -> float:
    """`value` as a float if it is a finite JSON number; else DatasetFormatError."""
    if type(value) in (int, float):  # not bool, a subclass of int
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise DatasetFormatError(f"{where}: expected a finite number, got {value!r}")


@dataclass(frozen=True, order=True)
class Segment:
    """Half-open temporal interval [start, end) in frame units."""

    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ValueError(f"segment [{self.start}, {self.end}) is empty or negative")

    @property
    def length(self) -> int:
        return self.end - self.start

    def to_list(self) -> list[int]:
        return [self.start, self.end]


def segment_from_json(pair, where: str) -> Segment:
    """`pair` as a Segment if it is [start, end] of JSON integers (bools
    excluded) with 0 <= start < end; else DatasetFormatError."""
    if not (isinstance(pair, list) and len(pair) == 2
            and all(type(v) is int for v in pair) and 0 <= pair[0] < pair[1]):
        raise DatasetFormatError(
            f"{where}: expected integer frames [start, end] with 0 <= start < end, "
            f"got {pair!r}")
    return Segment(*pair)


def interval_iou(starts, ends, start, end) -> np.ndarray:
    """IoU of non-empty intervals [starts, ends) and [start, end), broadcast like numpy."""
    inter = np.clip(np.minimum(ends, end) - np.maximum(starts, start), 0, None)
    union = (ends - starts) + (end - start) - inter
    return inter / union


@dataclass
class StreamAnnotation:
    """Fake-segment annotation for one clip, per modality."""

    id: str
    num_frames: int
    audio_fake: list[Segment] = field(default_factory=list)
    visual_fake: list[Segment] = field(default_factory=list)

    def __post_init__(self):
        for name, segs in (("audio_fake", self.audio_fake), ("visual_fake", self.visual_fake)):
            prev_end = None
            for seg in segs:
                if seg.end > self.num_frames:
                    raise ValueError(
                        f"{self.id}: {name} segment [{seg.start}, {seg.end}) exceeds "
                        f"num_frames={self.num_frames}"
                    )
                if prev_end is not None and seg.start < prev_end:
                    raise ValueError(f"{self.id}: {name} segments overlap or are unsorted")
                prev_end = seg.end


@dataclass
class FeatureStream:
    """Per-frame feature matrices; both modalities share the frame count."""

    audio: np.ndarray   # [T, D_a] float64
    visual: np.ndarray  # [T, D_v] float64

    def __post_init__(self):
        if self.audio.ndim != 2 or self.visual.ndim != 2:
            raise ValueError("feature streams must be 2-d [T, D]")
        if self.audio.shape[0] != self.visual.shape[0]:
            raise ValueError(
                f"frame counts differ: audio {self.audio.shape[0]} vs visual {self.visual.shape[0]}"
            )

    @property
    def num_frames(self) -> int:
        return self.audio.shape[0]


Clip = tuple[FeatureStream, StreamAnnotation]


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs for one dataset split."""

    count: int = 200
    num_frames: int = 128
    d_audio: int = 16
    d_visual: int = 16
    min_segments: int = 1
    max_segments: int = 3
    min_len: int = 8
    max_len: int = 32
    p_audio: float = 0.35       # manipulation-type mix
    p_visual: float = 0.35
    p_both: float = 0.30
    delta: float = 1.5          # feature-shift magnitude of fake frames
    noise: float = 0.5          # white-noise level on top of the smoothed base

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("synth.count: must be >= 0")
        if self.num_frames <= 0 or self.num_frames % 4 != 0:
            raise ValueError("synth.num_frames: must be positive and divisible by 4")
        if self.d_audio <= 0 or self.d_visual <= 0:
            raise ValueError("synth.d_audio/d_visual: must be positive")
        if not (0 <= self.min_segments <= self.max_segments):
            raise ValueError("synth.min_segments/max_segments: need 0 <= min <= max")
        if not (0 < self.min_len <= self.max_len):
            raise ValueError("synth.min_len/max_len: need 0 < min <= max")
        if self.max_segments * self.max_len > self.num_frames:
            raise ValueError(
                f"synth: infeasible config, {self.max_segments} segments of up to "
                f"{self.max_len} frames cannot fit in {self.num_frames} frames"
            )
        mix = self.p_audio + self.p_visual + self.p_both
        if min(self.p_audio, self.p_visual, self.p_both) < 0 or abs(mix - 1.0) > 1e-9:
            raise ValueError("synth.p_audio/p_visual/p_both: must be >= 0 and sum to 1")
        if self.delta < 0:
            raise ValueError("synth.delta: must be >= 0")
        if self.noise < 0:
            raise ValueError("synth.noise: must be >= 0")


def _smoothed_noise(rng: np.random.Generator, t: int, d: int, window: int = 5) -> np.ndarray:
    """Moving-average-smoothed white noise (a cheap stationary Gaussian process)."""
    white = rng.normal(0.0, 1.0, size=(t + window - 1, d))
    kernel = np.ones(window) / window
    out = np.empty((t, d))
    for j in range(d):
        out[:, j] = np.convolve(white[:, j], kernel, mode="valid")
    return out


def _place_segments(rng: np.random.Generator, cfg: SynthConfig) -> list[Segment]:
    """Disjoint segments in [0, T), uniform-ish placement via random gaps."""
    k = int(rng.integers(cfg.min_segments, cfg.max_segments + 1))
    if k == 0:
        return []
    lengths = rng.integers(cfg.min_len, cfg.max_len + 1, size=k)
    slack = cfg.num_frames - int(lengths.sum())
    if slack < 0:
        raise ValueError("segment lengths exceed num_frames")
    cuts = np.sort(rng.integers(0, slack + 1, size=k))
    segments = []
    pos = 0
    prev_cut = 0
    for length, cut in zip(lengths, cuts):
        pos += int(cut) - prev_cut
        prev_cut = int(cut)
        segments.append(Segment(pos, pos + int(length)))
        pos += int(length)
    return segments


def generate_clip(cfg: SynthConfig, rng: np.random.Generator, clip_id: str) -> Clip:
    t = cfg.num_frames
    segments = _place_segments(rng, cfg)
    kinds = rng.choice(3, size=len(segments), p=[cfg.p_audio, cfg.p_visual, cfg.p_both])

    audio = _smoothed_noise(rng, t, cfg.d_audio)
    visual = _smoothed_noise(rng, t, cfg.d_visual)

    # Fake frames get a fixed-direction mean shift of magnitude delta plus a
    # per-segment random direction: detectable, but not a single threshold.
    sig_a = np.ones(cfg.d_audio) / np.sqrt(cfg.d_audio)
    sig_v = np.ones(cfg.d_visual) / np.sqrt(cfg.d_visual)
    audio_fake, visual_fake = [], []
    for seg, kind in zip(segments, kinds):
        if kind in (0, 2):
            u = rng.normal(size=cfg.d_audio)
            u /= np.linalg.norm(u)
            audio[seg.start:seg.end] += cfg.delta * sig_a + 0.5 * cfg.delta * u
            audio_fake.append(seg)
        if kind in (1, 2):
            u = rng.normal(size=cfg.d_visual)
            u /= np.linalg.norm(u)
            visual[seg.start:seg.end] += cfg.delta * sig_v + 0.5 * cfg.delta * u
            visual_fake.append(seg)

    audio += rng.normal(0.0, cfg.noise, size=audio.shape)
    visual += rng.normal(0.0, cfg.noise, size=visual.shape)

    # Quantize to f32 so the binary round trip is bit-exact.
    stream = FeatureStream(
        audio=audio.astype(np.float32).astype(np.float64),
        visual=visual.astype(np.float32).astype(np.float64),
    )
    ann = StreamAnnotation(
        id=clip_id,
        num_frames=t,
        audio_fake=sorted(audio_fake),
        visual_fake=sorted(visual_fake),
    )
    return stream, ann


def generate_dataset(cfg: SynthConfig, seed: int, prefix: str = "clip", stream: int = 0) -> list[Clip]:
    """Generate cfg.count clips; per-clip RNG streams keyed by (seed, stream, index)."""
    return [
        generate_clip(cfg, np.random.default_rng([seed, stream, i]), f"{prefix}-{i:05d}")
        for i in range(cfg.count)
    ]


# ---------------------------------------------------------------------------
# Serialization. One binary feature file per clip plus a JSON manifest and a
# JSON annotation file per dataset directory.
# ---------------------------------------------------------------------------

def write_feature_file(path: Path, stream: FeatureStream) -> None:
    t = stream.num_frames
    da = stream.audio.shape[1]
    dv = stream.visual.shape[1]
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<IIII", FEATURE_VERSION, t, da, dv))
        fh.write(stream.audio.astype("<f4").tobytes())
        fh.write(stream.visual.astype("<f4").tobytes())


def read_feature_file(path: Path) -> FeatureStream:
    buf = Path(path).read_bytes()
    if len(buf) < 20:
        raise DatasetFormatError(f"{path}: truncated header at byte {len(buf)}, expected 20")
    if buf[:4] != FEATURE_MAGIC:
        raise DatasetFormatError(f"{path}: bad magic {buf[:4]!r} at byte 0")
    version, t, da, dv = struct.unpack("<IIII", buf[4:20])
    if version != FEATURE_VERSION:
        raise DatasetFormatError(f"{path}: unsupported version {version}, expected {FEATURE_VERSION}")
    expected = 20 + 4 * (t * da + t * dv)
    if len(buf) != expected:
        raise DatasetFormatError(
            f"{path}: truncated at byte {len(buf)}, expected {expected}"
        )
    audio = np.frombuffer(buf, dtype="<f4", count=t * da, offset=20).reshape(t, da)
    visual = np.frombuffer(buf, dtype="<f4", count=t * dv, offset=20 + 4 * t * da).reshape(t, dv)
    for name, values in (("audio", audio), ("visual", visual)):
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
        if bad.size:
            raise DatasetFormatError(f"{path}: non-finite {name} feature value at frame {bad[0]}")
    return FeatureStream(audio=audio.astype(np.float64), visual=visual.astype(np.float64))


def annotation_to_dict(ann: StreamAnnotation) -> dict:
    return {
        "id": ann.id,
        "num_frames": ann.num_frames,
        "audio_fake": [s.to_list() for s in ann.audio_fake],
        "visual_fake": [s.to_list() for s in ann.visual_fake],
    }


def annotation_from_dict(obj, where: str) -> StreamAnnotation:
    """One annotation record; anything malformed raises DatasetFormatError naming `where`."""
    if not isinstance(obj, dict):
        raise DatasetFormatError(f"{where}: expected a JSON object, got {obj!r}")
    clip_id, num_frames = obj.get("id"), obj.get("num_frames")
    if not isinstance(clip_id, str):
        raise DatasetFormatError(f"{where}: 'id' must be a string, got {clip_id!r}")
    if not (type(num_frames) is int and num_frames >= 1):  # bool excluded
        raise DatasetFormatError(
            f"{where}: 'num_frames' must be an integer >= 1, got {num_frames!r}")
    fakes = {}
    for key in ("audio_fake", "visual_fake"):
        rows = obj.get(key)
        if not isinstance(rows, list):
            raise DatasetFormatError(f"{where}: '{key}' must be a JSON array, got {rows!r}")
        fakes[key] = [segment_from_json(row, f"{where}: {key}[{n}]") for n, row in enumerate(rows)]
    try:
        return StreamAnnotation(id=clip_id, num_frames=num_frames, **fakes)
    except ValueError as exc:  # a segment past num_frames, or overlapping segments
        raise DatasetFormatError(f"{where}: {exc}") from None


def save_dataset(path: Path, clips: list[Clip]) -> None:
    path = Path(path)
    (path / "features").mkdir(parents=True, exist_ok=True)
    manifest = {"version": FEATURE_VERSION, "clips": []}
    annotations = []
    for stream, ann in clips:
        rel = f"features/{ann.id}.bin"
        write_feature_file(path / rel, stream)
        manifest["clips"].append({"id": ann.id, "path": rel})
        annotations.append(annotation_to_dict(ann))
    with open(path / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(path / "annotations.json", "w") as fh:
        json.dump(annotations, fh, indent=2, sort_keys=True)
        fh.write("\n")


def annotations_from_json(raw, source) -> list[StreamAnnotation]:
    """Read the annotations file payload: a JSON array of {"id": str,
    "num_frames": int >= 1, "audio_fake": [[start, end], ...], "visual_fake":
    [...]} records with unique ids. Anything else raises DatasetFormatError
    naming `source` and the record index."""
    if not isinstance(raw, list):
        raise DatasetFormatError(f"{source}: expected a JSON array of annotations")
    anns: dict[str, StreamAnnotation] = {}
    for k, obj in enumerate(raw):
        ann = annotation_from_dict(obj, f"{source}: record {k}")
        if ann.id in anns:
            raise DatasetFormatError(f"{source}: record {k}: duplicate id {ann.id!r}")
        anns[ann.id] = ann
    return list(anns.values())


def load_annotations(path: Path) -> list[StreamAnnotation]:
    return annotations_from_json(read_json(path), path)


def load_dataset(path: Path) -> list[Clip]:
    path = Path(path)
    manifest_path = path / "manifest.json"
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise DatasetFormatError(f"{manifest_path}: expected a JSON object")
    if manifest.get("version") != FEATURE_VERSION:
        raise DatasetFormatError(
            f"{path}: manifest version {manifest.get('version')!r}, expected {FEATURE_VERSION}"
        )
    entries = manifest.get("clips")
    if not isinstance(entries, list):
        raise DatasetFormatError(f"{manifest_path}: 'clips' must be a JSON array")
    anns = {a.id: a for a in load_annotations(path / "annotations.json")}
    root = path.resolve()
    clips = []
    for k, entry in enumerate(entries):
        where = f"{manifest_path}: clips[{k}]"
        if not isinstance(entry, dict):
            raise DatasetFormatError(f"{where}: expected a JSON object, got {entry!r}")
        clip_id, rel = entry.get("id"), entry.get("path")
        if not isinstance(clip_id, str):
            raise DatasetFormatError(f"{where}: 'id' must be a string, got {clip_id!r}")
        if not isinstance(rel, str):
            raise DatasetFormatError(f"{where}: 'path' must be a string, got {rel!r}")
        feature_path = path / rel
        if not feature_path.resolve().is_relative_to(root):
            raise DatasetFormatError(f"{where}: path {rel!r} resolves outside {path}")
        if clip_id not in anns:
            raise DatasetFormatError(f"{path}: clip {clip_id!r} missing from annotations.json")
        stream = read_feature_file(feature_path)
        ann = anns[clip_id]
        if stream.num_frames != ann.num_frames:
            raise DatasetFormatError(
                f"{path}: clip {clip_id!r} has {stream.num_frames} feature frames "
                f"but annotation says {ann.num_frames}"
            )
        clips.append((stream, ann))
    return clips
