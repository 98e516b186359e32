"""Independent brute-force oracles used by the unit and acceptance tests.

Everything here is written as plain loops over intervals, deliberately
sharing no code with the package implementations it checks, except the
earlier implementations kept verbatim so that their faster successors can
be pinned to their exact bytes: `reference_soft_nms`, the all-rows Soft-NMS
loop; `reference_correlate`, the per-offset patch-copy correlation behind
conv1d and conv2d; `reference_banded_matmul`, the padded sliding-window
offset-kernel product; and `reference_max_pool1d`, the argmax pooling.
These ops return their output and VJP closures as plain arrays and
functions instead of a Tensor. `reference_forward_full` is the earlier
two-pass model forward, one encoder and frame-head pass per direction, its
outputs stacked; `reference_clip_losses` adds the earlier per-direction
contrastive and frame losses on top of it.
JSON_VALUES and `corrupted_bytes` are the shared hypothesis strategies that
fuzz the JSON and binary readers; `append_checkpoint_record` writes
checkpoint records by hand.
"""

from __future__ import annotations

import math
import struct

import numpy as np
from hypothesis import strategies as st

from avloc import autodiff as ad
from avloc.autodiff import Tensor
from avloc.data import FeatureStream, Segment, StreamAnnotation, interval_iou
from avloc.losses import LossConfig, boundary_map_loss, focal_loss, total_loss
from avloc.model import ForwardOutput, Model


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


def reference_correlate(x: np.ndarray, w: np.ndarray):
    """Same-padded correlation [*S, C_in] x [*K, C_in, C_out] -> (out, vjp_x, vjp_w).

    The earlier `autodiff._correlate`, copied verbatim but for the array
    arguments: one patch copy and one matmul per kernel offset.
    """
    *ks, cin, cout = w.shape
    s = x.shape[:-1]
    inner = tuple(slice(k // 2, k // 2 + n) for k, n in zip(ks, s))
    xp = np.zeros(tuple(n + k - 1 for n, k in zip(s, ks)) + (cin,))
    xp[inner] = x
    windows = {o: tuple(slice(a, a + n) for a, n in zip(o, s)) for o in np.ndindex(*ks)}
    data = np.zeros(s + (cout,))
    for o, win in windows.items():
        patch = xp[win].reshape(-1, cin)
        data += (patch @ w[o]).reshape(s + (cout,))

    def vjp_x(g):
        gp = np.zeros_like(xp)
        for o, win in windows.items():
            gp[win] += (g.reshape(-1, cout) @ w[o].T).reshape(s + (cin,))
        return gp[inner]

    def vjp_w(g):
        grads = [xp[win].reshape(-1, cin).T @ g.reshape(-1, cout) for win in windows.values()]
        return np.stack(grads).reshape(w.shape)

    return data, vjp_x, vjp_w


def reference_banded_matmul(kernel: np.ndarray, x: np.ndarray):
    """Offset kernel at every start, [L, L] x [T, D] -> (out [L, T, D], vjp_kernel, vjp_x).

    The earlier `autodiff.banded_matmul`, copied verbatim but for the array
    arguments: np.pad, a sliding-window view and np.where masking.
    """
    l = kernel.shape[0]
    t, d = x.shape
    xp = np.pad(x, ((0, l - 1), (0, 0)))
    # windows[k, j * D + c] = x[j + k, c]
    windows = np.lib.stride_tricks.sliding_window_view(xp, l, axis=0)
    windows = windows.transpose(2, 0, 1).reshape(l, t * d)
    in_range = (np.arange(l)[:, None] + np.arange(t) < t)[:, :, None]  # [L, T, 1]
    data = np.where(in_range, (kernel @ windows).reshape(l, t, d), 0.0)

    def vjp_kernel(g):
        return np.where(in_range, g, 0.0).reshape(l, t * d) @ windows.T

    def vjp_x(g):
        gw = (kernel.T @ np.where(in_range, g, 0.0).reshape(l, t * d)).reshape(l, t, d)
        gp = np.zeros_like(xp)
        for k in range(l):
            gp[k:k + t] += gw[k]
        return gp[:t]

    return data, vjp_kernel, vjp_x


def reference_max_pool1d(x: np.ndarray):
    """Width-2 stride-2 max pooling of [T, C] -> (out [T/2, C], vjp).

    The earlier `autodiff.max_pool1d`, copied verbatim but for the array
    argument: argmax, take_along_axis and put_along_axis.
    """
    t, c = x.shape
    pairs = x.reshape(t // 2, 2, c)
    idx = np.argmax(pairs, axis=1)  # argmax takes the first max: low index wins ties
    data = np.take_along_axis(pairs, idx[:, None, :], axis=1)[:, 0, :]

    def vjp(g):
        gp = np.zeros_like(pairs)
        np.put_along_axis(gp, idx[:, None, :], g[:, None, :], axis=1)
        return gp.reshape(t, c)

    return data, vjp


def _reference_cross_attention(query_feat, kv_feat, wq, wk, wv):
    c = wq.shape[1]
    q = ad.matmul(query_feat, wq)
    k = ad.matmul(kv_feat, wk)
    v = ad.matmul(kv_feat, wv)
    scores = ad.scalar_mul(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(c))
    return ad.matmul(ad.softmax(scores, axis=1), v)


def _reference_encode_and_fuse(model: Model, stream: FeatureStream, direction: str):
    audio, visual = stream.audio, stream.visual
    if direction == "backward":
        audio = audio[::-1]
        visual = visual[::-1]
    p = model.params
    f_a = ad.relu(ad.add(ad.conv1d(Tensor(audio), p["enc_audio.w"]), p["enc_audio.b"]))
    f_v = ad.relu(ad.add(ad.conv1d(Tensor(visual), p["enc_visual.w"]), p["enc_visual.b"]))
    f_av = _reference_cross_attention(f_a, f_v, p["att_av.q"], p["att_av.k"], p["att_av.v"])
    f_va = _reference_cross_attention(f_v, f_a, p["att_va.q"], p["att_va.k"], p["att_va.v"])
    fused = ad.add(ad.matmul(ad.concat([f_av, f_va], axis=1), p["fusion.w"]), p["fusion.b"])
    frame_probs = ad.sigmoid(ad.add(ad.matmul(fused, p["frame_cls.w"]), p["frame_cls.b"]))
    full = ad.concat([fused, frame_probs], axis=1)
    return full, f_av, f_va, frame_probs


def _reference_frame_prob_head(model: Model, fused):
    p = model.params
    e1 = ad.relu(ad.add(ad.conv1d(fused, p["frame_head.enc1_w"]), p["frame_head.enc1_b"]))
    p1 = ad.max_pool1d(e1)
    e2 = ad.relu(ad.add(ad.conv1d(p1, p["frame_head.enc2_w"]), p["frame_head.enc2_b"]))
    p2 = ad.max_pool1d(e2)
    u1 = ad.upsample1d(p2)
    d1 = ad.relu(ad.add(
        ad.conv1d(ad.concat([u1, e2], axis=1), p["frame_head.dec1_w"]),
        p["frame_head.dec1_b"],
    ))
    u2 = ad.upsample1d(d1)
    d2 = ad.relu(ad.add(
        ad.conv1d(ad.concat([u2, e1], axis=1), p["frame_head.dec2_w"]),
        p["frame_head.dec2_b"],
    ))
    return ad.sigmoid(ad.add(ad.conv1d(d2, p["frame_head.out_w"]), p["frame_head.out_b"]))


def _reference_two_pass(model: Model, stream: FeatureStream):
    """The earlier `Model.forward_full`, copied verbatim but for the model
    argument and the return value: the encoder and the frame head run once
    per direction on unbatched [T, .] tensors; the boundary-map head is the
    model's own. Returns the boundary map and the [forward, backward] lists
    of frame probabilities and of both cross-attention outputs."""
    fwd = _reference_encode_and_fuse(model, stream, "forward")
    bwd = _reference_encode_and_fuse(model, stream, "backward")
    boundary_map = model.boundary_map_head(fwd[0])
    probs = [_reference_frame_prob_head(model, fwd[0]), _reference_frame_prob_head(model, bwd[0])]
    return boundary_map, probs, [fwd[1], bwd[1]], [fwd[2], bwd[2]]


def _stack(pair) -> Tensor:
    return ad.concat([ad.reshape(t, (1,) + t.shape) for t in pair], axis=0)


def reference_forward_full(model: Model, stream: FeatureStream) -> ForwardOutput:
    """The earlier two-pass forward, its per-direction outputs stacked into
    the [2, T, .] fields of `ForwardOutput`."""
    boundary_map, probs, f_av, f_va = _reference_two_pass(model, stream)
    return ForwardOutput(boundary_map=boundary_map, probs=_stack(probs),
                         f_av=_stack(f_av), f_va=_stack(f_va))


def _reference_row_norm(a: Tensor, b: Tensor) -> Tensor:
    """Per-row L2 distance between two [T, C] tensors."""
    if a.shape != b.shape:
        raise ad.ShapeError(f"contrastive: embedding shapes differ, {a.shape} vs {b.shape}")
    diff = a - b
    return ad.sqrt(ad.scalar_mul(ad.mean(ad.mul(diff, diff), axis=1), a.shape[1]))


def _reference_contrastive_loss(f_av_fwd, f_va_fwd, f_av_bwd, f_va_bwd, y, cfg) -> Tensor:
    """The earlier `losses.contrastive_loss`, copied verbatim but for the
    helper's name: one distance per direction on unbatched [T, C] tensors."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape[0] != f_av_fwd.shape[0]:
        raise ad.ShapeError(
            f"contrastive: labels length {y.shape[0]} vs features {f_av_fwd.shape[0]}"
        )
    d = (_reference_row_norm(f_av_fwd, f_va_fwd)
         + ad.flip(_reference_row_norm(f_av_bwd, f_va_bwd), axis=0))
    y_t = Tensor(y)
    pull = ad.mul(Tensor(1.0 - y), ad.mul(d, d))
    hinge = ad.relu(cfg.margin - d)
    push = ad.mul(y_t, ad.mul(hinge, hinge))
    return ad.mean(pull + push)


def reference_clip_losses(model: Model, clip, targets, cfg: LossConfig):
    """The earlier `train.clip_losses` on the two-pass forward: the
    contrastive term over four per-direction tensors and the frame term as
    3 * (focal_fwd + focal_bwd). Returns (contrastive, boundary, frame, total)."""
    boundary_map, probs, f_av, f_va = _reference_two_pass(model, clip[0])
    contrastive = _reference_contrastive_loss(f_av[0], f_va[0], f_av[1], f_va[1],
                                              targets.frame_labels, cfg)
    boundary = boundary_map_loss(boundary_map, targets.boundary, targets.mask)
    both = (focal_loss(probs[0], targets.triplets[0], cfg)
            + focal_loss(probs[1], targets.triplets[1], cfg))
    frame = ad.scalar_mul(both, 3.0)
    return contrastive, boundary, frame, total_loss(contrastive, boundary, frame, cfg)


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
