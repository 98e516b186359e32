"""Independent brute-force oracles used by the unit and acceptance tests.

Everything here is written as plain loops over intervals, deliberately
sharing no code with the package implementations it checks, except
`reference_soft_nms`: the earlier all-rows Soft-NMS loop, kept verbatim so
that the windowed `inference.soft_nms` can be pinned to its exact bytes.
JSON_VALUES and `corrupted_bytes` are the shared hypothesis strategies that
fuzz the JSON and binary readers; `append_checkpoint_record` writes
checkpoint records by hand.
"""

from __future__ import annotations

import math
import struct

import numpy as np
from hypothesis import strategies as st

from avloc.data import Segment, StreamAnnotation, interval_iou


def _json_containers(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3)


# Any JSON value, for fuzzing the readers.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    _json_containers,
    max_leaves=12,
)


def _with_bytes(data: bytes, edits: list[tuple[int, int]]) -> bytes:
    out = bytearray(data)
    for at, value in edits:
        out[at] = value
    return bytes(out)


def corrupted_bytes(valid: bytes, header: int):
    """Arbitrary bytes, `valid`'s first `header` bytes followed by arbitrary
    bytes, truncations of `valid`, and `valid` with a few bytes overwritten."""
    edits = st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)),
                     min_size=1, max_size=4)
    return (st.binary(max_size=64)
            | st.binary(max_size=64).map(lambda tail: valid[:header] + tail)
            | st.integers(0, len(valid) - 1).map(lambda n: valid[:n])
            | edits.map(lambda e: _with_bytes(valid, e)))


def append_checkpoint_record(data: bytes, name: str, shape: tuple[int, ...], values=()) -> bytes:
    """Checkpoint bytes with one more record (name, shape, flat float64
    values) and the record count raised by one."""
    encoded = name.encode("utf-8")
    (count,) = struct.unpack("<I", data[8:12])
    record = (struct.pack("<H", len(encoded)) + encoded
              + struct.pack(f"<B{len(shape)}I", len(shape), *shape)
              + np.asarray(values, dtype="<f8").tobytes())
    return data[:8] + struct.pack("<I", count + 1) + data[12:] + record


def random_annotation(rng: np.random.Generator, num_frames: int, clip_id: str = "r") -> StreamAnnotation:
    """Random per-modality disjoint segments; modalities may overlap freely."""
    def one_modality():
        k = int(rng.integers(0, 4))
        if 2 * k > num_frames:
            k = num_frames // 2
        if k == 0:
            return []
        cuts = sorted(rng.choice(num_frames + 1, size=2 * k, replace=False).tolist())
        return [Segment(cuts[2 * i], cuts[2 * i + 1]) for i in range(k)]

    return StreamAnnotation(
        id=clip_id,
        num_frames=num_frames,
        audio_fake=one_modality(),
        visual_fake=one_modality(),
    )


def merged_fake_runs(ann: StreamAnnotation) -> list[tuple[int, int]]:
    """Union of both modalities via an explicit frame set, re-extracted as runs."""
    fake = [False] * ann.num_frames
    for seg in list(ann.audio_fake) + list(ann.visual_fake):
        for t in range(seg.start, seg.end):
            fake[t] = True
    runs = []
    t = 0
    while t < ann.num_frames:
        if fake[t]:
            s = t
            while t < ann.num_frames and fake[t]:
                t += 1
            runs.append((s, t))
        else:
            t += 1
    return runs


def brute_force_boundary_map(ann: StreamAnnotation, max_duration: int) -> np.ndarray:
    runs = merged_fake_runs(ann)
    t_total = ann.num_frames
    out = np.zeros((max_duration, t_total))
    for i in range(max_duration):
        for j in range(t_total):
            s, e = j, j + i + 1
            if e > t_total:
                continue
            best = 0.0
            for gs, ge in runs:
                inter = max(0, min(e, ge) - max(s, gs))
                union = (e - s) + (ge - gs) - inter
                best = max(best, inter / union)
            out[i, j] = best
    return out


def brute_force_triplet(
    ann: StreamAnnotation, d_f: float, direction: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    t_total = ann.num_frames
    runs = merged_fake_runs(ann)
    if direction == "backward":
        runs = sorted((t_total - e, t_total - s) for s, e in runs)
    start = np.zeros(t_total)
    end = np.zeros(t_total)
    content = np.zeros(t_total)
    for t in range(t_total):
        a_lo, a_hi = float(t), float(t + 1)
        for s, e in runs:
            regions = {
                "start": (s + 0.5 - d_f / 2, s + 0.5 + d_f / 2),
                "end": (e - 0.5 - d_f / 2, e - 0.5 + d_f / 2),
                "content": (float(s), float(e)),
            }
            for name, (lo, hi) in regions.items():
                overlap = max(0.0, min(a_hi, hi) - max(a_lo, lo))
                ioa = overlap / (a_hi - a_lo)
                target = {"start": start, "end": end, "content": content}[name]
                if ioa > target[t]:
                    target[t] = ioa
    return start, end, content


def brute_force_sampling_mask(max_duration: int, num_frames: int, num_samples: int) -> np.ndarray:
    """Dense [N, L, T_start, T_src] boundary-matching sampling weights, per candidate.

    Sample point n of candidate (duration index i, start j) sits at offset
    n * i / (N - 1) from frame j, clamped to i; offsets within 1e-9 of an
    integer snap to it. The unit weight splits linearly between the two
    neighbouring frames. Candidates past the last frame stay all-zero.
    """
    n_total, l_total, t_total = num_samples, max_duration, num_frames
    out = np.zeros((n_total, l_total, t_total, t_total))
    for i in range(l_total):
        for j in range(t_total):
            if j + i + 1 > t_total:
                continue
            for n in range(n_total):
                offset = min(n * i / (n_total - 1), float(i))
                lo = math.floor(offset)
                frac = offset - lo
                if frac < 1e-9:
                    frac = 0.0
                elif frac > 1.0 - 1e-9:
                    lo, frac = lo + 1, 0.0
                out[n, i, j, j + lo] += 1.0 - frac
                if frac > 0.0:
                    out[n, i, j, j + lo + 1] += frac
    return out


def brute_force_scores(boundary_map: np.ndarray, start, end, content) -> dict[tuple[int, int], float]:
    """Candidate scores via the literal per-proposal formula."""
    max_duration, t_total = boundary_map.shape
    scores = {}
    for i in range(max_duration):
        for j in range(t_total):
            if j + i + 1 > t_total:
                continue
            c = [content[q] for q in range(j, j + i + 1)]
            scores[(j, j + i + 1)] = (
                boundary_map[i, j] * start[j] * end[j + i] * (sum(c) / len(c))
            )
    return scores


def brute_force_soft_nms(
    proposals: list[tuple[int, int, float]],
    sigma: float,
    score_floor: float,
    top_k: int,
) -> list[tuple[int, int, float]]:
    """Step-by-step Gaussian Soft-NMS simulation over (start, end, score) rows."""
    pool = [list(p) for p in proposals if p[2] >= score_floor]
    selected = []
    while pool and len(selected) < top_k:
        best_idx = 0
        for idx in range(1, len(pool)):
            if pool[idx][2] > pool[best_idx][2]:
                best_idx = idx
        chosen = pool.pop(best_idx)
        selected.append(tuple(chosen))
        survivors = []
        for s, e, score in pool:
            inter = max(0, min(e, chosen[1]) - max(s, chosen[0]))
            union = (e - s) + (chosen[1] - chosen[0]) - inter
            iou = inter / union
            decayed = score * math.exp(-(iou ** 2) / sigma)
            if decayed >= score_floor:
                survivors.append([s, e, decayed])
        pool = survivors
    selected.sort(key=lambda p: -p[2])
    return selected


def reference_soft_nms(proposals: np.ndarray, cfg) -> np.ndarray:
    """Gaussian Soft-NMS that rescores every active row at each pick.

    The earlier `inference.soft_nms`, copied verbatim: its output bytes are
    the specification of the windowed version.
    """
    starts, ends = proposals[:, 0], proposals[:, 1]
    scores = proposals[:, 2].copy()
    active = scores >= cfg.score_floor
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
    kept = np.column_stack([starts[picked], ends[picked], scores[picked]])
    return kept[np.argsort(-kept[:, 2], kind="stable")]


def brute_force_pr_curve(
    pooled: list[tuple[str, int, int, float]],
    gts: dict[str, list[tuple[int, int]]],
    tau: float,
) -> tuple[list[float], list[float]]:
    """Precision/recall points for pooled (clip, start, end, score) predictions."""
    order = sorted(pooled, key=lambda p: (-p[3], p[0], p[1], p[2]))
    npos = sum(len(v) for v in gts.values())
    used = {cid: [False] * len(v) for cid, v in gts.items()}
    tp = fp = 0
    precisions, recalls = [], []
    for cid, s, e, _ in order:
        best_iou, best_k = 0.0, -1
        for k, (gs, ge) in enumerate(gts[cid]):
            if used[cid][k]:
                continue
            inter = max(0, min(e, ge) - max(s, gs))
            union = (e - s) + (ge - gs) - inter
            iou = inter / union
            if iou >= tau and iou > best_iou:
                best_iou, best_k = iou, k
        if best_k >= 0:
            used[cid][best_k] = True
            tp += 1
        else:
            fp += 1
        precisions.append(tp / (tp + fp))
        recalls.append(tp / npos)
    return precisions, recalls


def brute_force_recall(
    preds: dict[str, list[tuple[int, int, float]]],
    gts: dict[str, list[tuple[int, int]]],
    tau: float,
    budget: int,
) -> dict[str, int]:
    """Per clip: ground truths matched by greedy matching of its top-`budget` predictions."""
    matched = {}
    for cid, segs in gts.items():
        top = sorted(preds.get(cid, []), key=lambda p: (-p[2], p[0], p[1]))[:budget]
        used = [False] * len(segs)
        for s, e, _ in top:
            best_iou, best_k = 0.0, -1
            for k, (gs, ge) in enumerate(segs):
                if used[k]:
                    continue
                inter = max(0, min(e, ge) - max(s, gs))
                union = (e - s) + (ge - gs) - inter
                iou = inter / union
                if iou >= tau and iou > best_iou:
                    best_iou, best_k = iou, k
            if best_k >= 0:
                used[best_k] = True
        matched[cid] = sum(used)
    return matched


def brute_force_ap(precisions: list[float], recalls: list[float]) -> float:
    """All-point interpolated AP from raw PR points."""
    if not precisions:
        return 0.0
    ap = 0.0
    prev_r = 0.0
    for k, r in enumerate(recalls):
        if r > prev_r:
            best_p = max(precisions[k:])
            ap += (r - prev_r) * best_p
            prev_r = r
    return ap
