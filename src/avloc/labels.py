"""Supervision targets derived from fake-segment annotations.

Every target is a plain float64 array in the layout of the head it
supervises, built over the union-merge of audio and visual fake segments
(a frame is fake if either modality is manipulated there):

* frame labels, [T]: per-frame 0/1 fake indicator;
* boundary map, [L, T]: cell (i, j) holds the best IoU between the
  candidate segment [j, j+i+1) and any fake segment;
* probability triplet, [T, 3] with columns start, end, content: per-frame
  soft labels built from interval overlaps, for the forward and the
  time-reversed stream.

Interval conventions: the anchor for frame t is the frame itself, [t, t+1].
Start and end regions have duration d_f and are centered on the centers of
the first and last fake frame (s + 0.5 and e - 0.5 for a segment [s, e));
the content region is [s, e]. The label is the largest
intersection-over-anchor against any region. This grid is symmetric under
time reversal, so the backward triplet is exactly the reversed forward
triplet with the start and end columns swapped.
"""

from __future__ import annotations

import numpy as np

from .data import Segment, StreamAnnotation, interval_iou


def merge_segments(ann: StreamAnnotation) -> list[Segment]:
    """Union-merge fake segments across both modalities (touching runs coalesce)."""
    segs = sorted(list(ann.audio_fake) + list(ann.visual_fake))
    merged: list[Segment] = []
    for seg in segs:
        if merged and seg.start <= merged[-1].end:
            if seg.end > merged[-1].end:
                merged[-1] = Segment(merged[-1].start, seg.end)
        else:
            merged.append(seg)
    return merged


def reflect_segments(segments: list[Segment], num_frames: int) -> list[Segment]:
    """Fake segments of the time-reversed stream: [s, e) -> [T - e, T - s)."""
    return sorted(Segment(num_frames - s.end, num_frames - s.start) for s in segments)


def build_frame_labels(ann: StreamAnnotation) -> np.ndarray:
    """[T] fake indicator: y[t] = 1 iff frame t is manipulated in any modality."""
    y = np.zeros(ann.num_frames)
    for seg in merge_segments(ann):
        y[seg.start:seg.end] = 1.0
    return y


def in_range_mask(max_duration: int, num_frames: int) -> np.ndarray:
    """Boolean [L, T]: cell (i, j) is valid iff [j, j+i+1) fits in the clip."""
    i = np.arange(max_duration)[:, None]
    j = np.arange(num_frames)[None, :]
    return j + i + 1 <= num_frames


def build_boundary_map(ann: StreamAnnotation, max_duration: int) -> np.ndarray:
    """[L, T] best IoU of each candidate [j, j+i+1) against the merged fake
    segments; cells with j + i + 1 > T are 0."""
    if max_duration < 1:
        raise ValueError(f"max_duration must be >= 1, got {max_duration}")
    t = ann.num_frames
    values = np.zeros((max_duration, t))
    starts = np.arange(t)[None, :]
    ends = starts + np.arange(1, max_duration + 1)[:, None]
    for seg in merge_segments(ann):
        np.maximum(values, interval_iou(starts, ends, seg.start, seg.end), out=values)
    values[~in_range_mask(max_duration, t)] = 0.0
    return values


def _overlap_with_frames(t: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """[T, K]: length of [lo[k], hi[k]] intersected with each frame [q, q+1)."""
    q = np.arange(t, dtype=np.float64)[:, None]
    return np.clip(np.minimum(q + 1.0, hi) - np.maximum(q, lo), 0.0, None)


def build_prob_triplet(
    ann: StreamAnnotation, d_f: float = 1.0, direction: str = "forward"
) -> np.ndarray:
    """[T, 3] start / end / content soft labels in [0, 1] for one direction."""
    if not d_f > 0:  # also rejects NaN
        raise ValueError(f"d_f must be positive, got {d_f}")
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    t = ann.num_frames
    segments = merge_segments(ann)
    if direction == "backward":
        segments = reflect_segments(segments, t)
    trip = np.zeros((t, 3))
    half = d_f / 2.0
    for seg in segments:  # regions: start, end (centered on the edge frames), content
        lo = np.array([seg.start + 0.5 - half, seg.end - 0.5 - half, seg.start])
        hi = np.array([seg.start + 0.5 + half, seg.end - 0.5 + half, seg.end])
        np.maximum(trip, _overlap_with_frames(t, lo, hi), out=trip)
    return trip


def labels_to_dict(ann: StreamAnnotation, max_duration: int, d_f: float = 1.0) -> dict:
    """JSON-friendly dump of every supervision target for one clip."""
    fwd = build_prob_triplet(ann, d_f, "forward").T.tolist()
    bwd = build_prob_triplet(ann, d_f, "backward").T.tolist()
    columns = ("start", "end", "content")
    return {
        "id": ann.id,
        "num_frames": ann.num_frames,
        "merged_fake": [s.to_list() for s in merge_segments(ann)],
        "frame_labels": build_frame_labels(ann).tolist(),
        "boundary_map": build_boundary_map(ann, max_duration).tolist(),
        "prob_forward": dict(zip(columns, fwd)),
        "prob_backward": dict(zip(columns, bwd)),
    }
