import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avloc import autodiff as ad
from avloc.autodiff import Tensor
from avloc.data import FeatureStream, SynthConfig, generate_clip
from avloc.gradcheck import TINY_MODEL, model_grad_errors
from avloc.inference import InferenceConfig
from avloc.labels import in_range_mask
from avloc.losses import LossConfig
from avloc.model import (
    CheckpointError,
    ForwardOutput,
    Model,
    ModelConfig,
    build_sampling_mask,
    load_checkpoint,
    parameter_count,
    save_checkpoint,
)
from avloc.pipeline import predict_clip
from avloc.train import build_targets, clip_losses
from oracles import (
    append_checkpoint_record,
    brute_force_sampling_mask,
    corrupted_bytes,
    reference_clip_losses,
    reference_forward_full,
)

TINY = ModelConfig(num_frames=16, d_audio=4, d_visual=4, channels=4,
                   max_duration=4, num_samples=4)


def tiny_stream(seed=0, t=16, d=4):
    rng = np.random.default_rng(seed)
    return FeatureStream(audio=rng.normal(size=(t, d)), visual=rng.normal(size=(t, d)))


def test_encode_and_fuse_takes_any_frame_count():
    # T is read from each clip and need not be a multiple of anything.
    model = Model(TINY, seed=0)
    for t in (18, 2, 30, 1, 7):
        enc = model.encode_and_fuse(tiny_stream(t=t))
        assert enc.fused.shape == (2, t, TINY.fused_channels)
        assert enc.f_av.shape == enc.f_va.shape == (2, t, TINY.channels)


def test_parameter_count_matches_formula():
    cfg = TINY
    c, cf, n = cfg.channels, cfg.fused_channels, cfg.num_samples
    expected = (
        (3 * cfg.d_audio * c + c) + (3 * cfg.d_visual * c + c)  # encoders
        + 6 * c * c                                             # attention projections
        + (2 * c * c + c)                                       # fusion
        + (c + 1)                                               # frame classifier
        + n + (9 * cf * c + c) + (c + 1)                        # map head
        + (3 * cf * c + c) + (3 * c * c + c)                    # frame head encoder
        + 2 * (3 * 2 * c * c + c)                               # frame head decoder
        + (c * 3 + 3)                                           # frame head output
    )
    assert parameter_count(cfg) == expected == sum(
        p.data.size for p in Model(cfg).params.values()
    )


def test_init_is_deterministic_and_bounded():
    a = Model(TINY, seed=3)
    b = Model(TINY, seed=3)
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data)
        assert np.all(np.abs(a.params[name].data) <= 0.1)
    assert np.all(a.params["fusion.b"].data == 0.0)


# -- sampling mask ----------------------------------------------------------

def test_mask_rows_sum_to_one_in_range():
    kernel = build_sampling_mask(4, 5).taps[:, 1]  # [N, L, L]
    np.testing.assert_allclose(kernel.sum(axis=2), 1.0, atol=1e-12)
    assert np.all(kernel >= 0.0)
    # Offsets past the candidate's last frame carry no weight.
    assert np.all(np.triu(kernel, k=1) == 0.0)
    # Applied at every start, in-range rows still sum to one and
    # candidates past the last frame are all-zero.
    grid = ad.banded_matmul(Tensor(kernel[2:3]), Tensor(np.ones((12, 1)))).data[:, :, 0]
    valid = in_range_mask(4, 12)
    np.testing.assert_allclose(grid[valid], 1.0, atol=1e-12)
    assert np.all(grid[~valid] == 0.0)


def test_mask_duration_one_is_point_sample():
    kernel = build_sampling_mask(3, 4).taps[:, 1]
    for n in range(4):
        row = kernel[n, 0]
        assert row[0] == 1.0 and row.sum() == 1.0


def test_mask_two_samples_hit_span_endpoints():
    # Duration index 3 spans offsets 0..3: samples at offsets 0.0 and 3.0.
    kernel = build_sampling_mask(4, 2).taps[:, 1]
    first, last = kernel[0, 3], kernel[1, 3]
    assert first[0] == 1.0 and first.sum() == 1.0
    assert last[3] == 1.0 and last.sum() == 1.0


def test_mask_taps_are_the_kernel_row_shifted():
    # The map conv's duration tap a reads row i + a - 1, zero outside [0, L).
    taps = build_sampling_mask(5, 4).taps
    assert taps.shape == (4, 3, 5, 5)
    for a in range(3):
        for i in range(5):
            src = i + a - 1
            want = taps[:, 1, src] if 0 <= src < 5 else np.zeros((4, 5))
            assert np.array_equal(taps[:, a, i], want), (a, i)


def test_mask_matches_dense_oracle():
    for l, t, n in [(3, 6, 4), (4, 12, 5), (12, 64, 4), (40, 128, 16)]:
        kernel = build_sampling_mask(l, n).taps[:, 1]
        dense = np.zeros((n, l, t, t))  # dense[n, i, j, j + k] = kernel[n, i, k]
        for i in range(l):
            for j in range(t - i):
                dense[:, i, j, j:j + l] = kernel[:, i, : t - j]
        assert np.array_equal(dense, brute_force_sampling_mask(l, t, n)), (l, t, n)


# -- encoder / fusion -------------------------------------------------------

def test_zeroed_classifier_outputs_half():
    model = Model(TINY, seed=0)
    model.params["frame_cls.w"].data[:] = 0.0
    out = model.encode_and_fuse(tiny_stream())
    # The frame classifier's probability is the last fused channel.
    np.testing.assert_allclose(out.fused.data[..., TINY.channels], 0.5)


def test_fused_channel_count():
    model = Model(TINY, seed=0)
    out = model.encode_and_fuse(tiny_stream())
    assert out.fused.shape == (2, TINY.num_frames, TINY.channels + 1)  # [forward, backward]


def test_identical_streams_with_shared_weights_are_symmetric():
    model = Model(TINY, seed=0)
    for side in ("q", "k", "v"):
        model.params[f"att_va.{side}"].data = model.params[f"att_av.{side}"].data.copy()
    model.params["enc_visual.w"].data = model.params["enc_audio.w"].data.copy()
    rng = np.random.default_rng(8)
    frames = rng.normal(size=(16, 4))
    out = model.encode_and_fuse(FeatureStream(audio=frames, visual=frames.copy()))
    np.testing.assert_array_equal(out.f_av.data, out.f_va.data)


def test_attention_rows_are_distributions():
    scores = ad.softmax(Tensor(np.random.default_rng(0).normal(size=(16, 16))), axis=1)
    np.testing.assert_allclose(scores.data.sum(axis=1), 1.0, atol=1e-12)


# -- heads ------------------------------------------------------------------

def test_map_head_shape_and_zero_projection():
    model = Model(TINY, seed=0)
    model.params["map_head.out_w"].data[:] = 0.0
    fused = ad.batch_element(model.encode_and_fuse(tiny_stream()).fused, 0)
    bmap = model.boundary_map_head(fused)
    assert bmap.shape == (TINY.max_duration, TINY.num_frames)
    np.testing.assert_allclose(bmap.data, 0.5)


SMALL = ModelConfig(num_frames=64, d_audio=8, d_visual=8, channels=8,
                    max_duration=12, num_samples=4)  # criterion 8's model


def _dense_boundary_map_head(model, fused):
    """The boundary-map head by the fold's definition, with dense matrices.

    With S[i', j] the [T] row of sampling weights of candidate (duration
    index i', start j), frames past the clip dropped, and S zero for i'
    outside [0, L): grid[i, j] = sum over duration taps a and time taps b of
    S[i + a - 1, j] @ shift_b(x) @ conv_w[a, b], where shift_b(x)[s] =
    x[s + b - 1] (zero outside the clip), and grid is zero where j + i >= T.
    """
    cfg, p = model.cfg, model.params
    l, t, n, c = cfg.max_duration, fused.shape[0], cfg.num_samples, cfg.channels
    # Every candidate of a clip L frames longer, cut to the first T starts and frames.
    full = brute_force_sampling_mask(l, t + l, n)[:, :, :t, :t]  # [N, L, T, T]
    dense = np.zeros((n, 3, l, t, t))
    dense[:, 0, 1:], dense[:, 1], dense[:, 2, :-1] = full[:, :-1], full, full[:, 1:]
    dense *= in_range_mask(l, t)[:, :, None]
    weights = ad.reshape(p["map_head.sample_w"], (1, n))
    combined = ad.reshape(ad.matmul(weights, Tensor(dense.reshape(n, -1))), (3, l * t, t))
    grid = None
    for a in range(3):
        w_a = ad.batch_element(p["map_head.conv_w"], a)
        for b in range(3):
            shifted = ad.matmul(Tensor(np.eye(t, k=b - 1)), fused)
            term = ad.matmul(ad.batch_element(combined, a),
                             ad.matmul(shifted, ad.batch_element(w_a, b)))
            grid = term if grid is None else ad.add(grid, term)
    hidden = ad.relu(ad.add(ad.reshape(grid, (l, t, c)), p["map_head.conv_b"]))
    flat = ad.reshape(hidden, (l * t, c))
    out = ad.sigmoid(ad.add(ad.matmul(flat, p["map_head.out_w"]), p["map_head.out_b"]))
    return ad.reshape(out, (l, t))


@pytest.mark.parametrize("cfg", [TINY, SMALL], ids=["tiny", "small"])
def test_map_head_matches_dense_mask_oracle(cfg):
    model = Model(cfg, seed=1)
    rng = np.random.default_rng(3)
    fused_data = rng.normal(size=(cfg.num_frames, cfg.fused_channels))
    results = []
    for head in (model.boundary_map_head, lambda x: _dense_boundary_map_head(model, x)):
        model.zero_grad()
        fused = Tensor(fused_data, requires_grad=True)
        out = head(fused)
        ad.mean(ad.mul(out, out)).backward()
        results.append((out.data, fused.grad, model.params["map_head.sample_w"].grad,
                        model.params["map_head.conv_w"].grad))
    for got, want in zip(*results):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_full_scale_config_builds_and_runs():
    cfg = ModelConfig(num_frames=512, max_duration=60, num_samples=16)
    model = Model(cfg, seed=0)
    assert model.mask.taps.nbytes == 1_382_400  # [16, 3, 60, 60], whatever T is
    fused = Tensor(np.random.default_rng(0).normal(size=(512, cfg.fused_channels)))
    bmap = model.boundary_map_head(fused)
    assert bmap.shape == (60, 512)
    assert np.all(np.isfinite(bmap.data))


def test_full_scale_map_head_transient_stays_within_grid_bytes():
    # Under no_grad the map head holds a few [L, T, C] grids at once (the
    # band's output, the biased grid, the relu), 7.5 MiB each at full scale;
    # the band's own working set must stay small beside them.
    cfg = ModelConfig(num_frames=512, max_duration=60, num_samples=16)
    model = Model(cfg, seed=0)
    fused = Tensor(np.random.default_rng(0).normal(size=(512, cfg.fused_channels)))
    grid_bytes = 60 * 512 * cfg.channels * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with ad.no_grad():
            bmap = model.boundary_map_head(fused)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert bmap.shape == (60, 512)
    assert peak < 3.5 * grid_bytes, f"peak {peak / 2**20:.1f} MiB"


def test_frame_head_shapes_and_zero_head():
    model = Model(TINY, seed=0)
    model.params["frame_head.out_w"].data[:] = 0.0
    logits = model.frame_prob_head(model.encode_and_fuse(tiny_stream()).fused)
    assert logits.shape == (2, TINY.num_frames, 3)
    np.testing.assert_array_equal(logits.data, 0.0)  # logits: no sigmoid in the head


def test_frame_head_gradient_matches_finite_differences():
    model = Model(TINY, seed=1)
    stream = tiny_stream(seed=2)

    def loss():
        return ad.mean(model.frame_prob_head(model.encode_and_fuse(stream).fused))

    for name in ("frame_head.enc1_w", "frame_head.enc2_w", "frame_head.dec1_w",
                 "frame_head.out_w", "enc_audio.w"):
        param = model.params[name]
        model.zero_grad()
        loss().backward()
        analytic = param.grad.ravel()
        numeric = ad.central_differences(lambda: loss().data.reshape(1), param.data,
                                         h=1e-5).ravel()
        # Norm-relative: the gradients are ~1e-3, so an error relative to
        # max(1, |a|) would be absolute and miss a 1% error in a VJP.
        err = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
        assert err <= 1e-4, f"{name}: {err:.3e}"


def test_frame_head_gradient_reaches_the_odd_last_frame():
    # At T = 15 the first max_pool1d pools frame 14 alone and the last
    # upsample1d copy has no pair. The loss weighs the last output frame
    # 90 times the others, so the gradients through those two paths are
    # O(1): a dropped one shows far above the bound.
    model = Model(TINY, seed=1)
    rng = np.random.default_rng(3)
    fused = rng.normal(size=(2, 15, TINY.channels + 1))
    weights = rng.normal(size=(2, 15, 3))
    weights[:, -1] *= weights.size

    def loss(x):
        return ad.mean(ad.mul(model.frame_prob_head(x), Tensor(weights)))

    x = Tensor(fused, requires_grad=True)
    loss(x).backward()
    probe = fused.copy()  # central_differences perturbs it, or a parameter, in place
    points = {"fused": (x.grad, probe)} | {
        name: (model.params[name].grad, model.params[name].data)
        for name in ("frame_head.enc1_w", "frame_head.enc2_w", "frame_head.dec1_w",
                     "frame_head.dec2_w")}
    for name, (analytic, point) in points.items():
        numeric = ad.central_differences(lambda: loss(Tensor(probe)).data.reshape(1), point,
                                         h=1e-5).reshape(analytic.shape)
        err = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
        assert err <= 1e-4, f"{name}: {err:.3e}"


# -- full forward -----------------------------------------------------------

def test_forward_full_deterministic():
    model = Model(TINY, seed=0)
    stream = tiny_stream(seed=4)
    a = model.forward_full(stream)
    b = model.forward_full(stream)
    assert np.array_equal(a.boundary_map.data, b.boundary_map.data)
    assert np.array_equal(a.frame_logits.data, b.frame_logits.data)


def test_forward_full_outputs_in_unit_interval():
    model = Model(TINY, seed=0)
    stream = tiny_stream(seed=5)
    out = model.forward_full(stream)
    frame_probs = model.encode_and_fuse(stream).fused.data[..., TINY.channels]
    assert out.frame_logits.shape == (2, TINY.num_frames, 3)
    assert np.all(np.isfinite(out.frame_logits.data))  # logits: any real value
    for data in (frame_probs, out.boundary_map.data):
        assert np.all(data > 0.0) and np.all(data < 1.0)


def test_palindromic_input_gives_identical_directions():
    model = Model(TINY, seed=0)
    rng = np.random.default_rng(6)
    half = rng.normal(size=(8, 4))
    audio = np.vstack([half, half[::-1]])
    visual = np.vstack([half * 0.5, (half * 0.5)[::-1]])
    out = model.forward_full(FeatureStream(audio=audio, visual=visual))
    # Reversing a palindromic stream is a no-op, so the raw backward pass
    # must equal the raw forward pass bit for bit.
    np.testing.assert_array_equal(out.frame_logits.data[1], out.frame_logits.data[0])


def _clip_for(cfg, seed=0):
    synth = SynthConfig(count=1, num_frames=cfg.num_frames, d_audio=cfg.d_audio,
                        d_visual=cfg.d_visual, min_segments=1, max_segments=2,
                        min_len=2, max_len=cfg.max_duration)
    return generate_clip(synth, np.random.default_rng(seed), "c")


@pytest.mark.parametrize("cfg", [TINY, SMALL, ModelConfig()], ids=["tiny", "small", "default"])
def test_stacked_forward_bytes_match_two_pass_reference(cfg, monkeypatch):
    # One stacked pass per clip and one op chain per loss term against one
    # pass and one loss chain per direction: every ForwardOutput field, the
    # four loss values, every parameter's gradient after a clip's total loss,
    # and the predictions of both fusion modes, byte for byte.
    clip = _clip_for(cfg, seed=cfg.num_frames)
    targets = build_targets(clip[1], cfg.max_duration, 1.0)
    runs = []
    for stacked in (True, False):
        model = Model(cfg, seed=2)
        if stacked:
            losses = clip_losses(model, clip, targets, LossConfig())
            losses = (losses.contrastive, losses.boundary, losses.frame, losses.total)
        else:
            monkeypatch.setattr(model, "forward_full", lambda s, m=model: reference_forward_full(m, s))
            losses = reference_clip_losses(model, clip, targets, LossConfig())
        out = model.forward_full(clip[0])
        outputs = {f.name: getattr(out, f.name).data.tobytes() for f in fields(ForwardOutput)}
        values = [loss.data.tobytes() for loss in losses]
        losses[-1].backward()
        grads = {name: p.grad.tobytes() for name, p in model.params.items()}
        preds = {fusion: predict_clip(model, clip, InferenceConfig(), fusion)
                 for fusion in ("both", "forward")}
        runs.append((outputs, values, grads, preds))
    (outputs, values, grads, preds), (want_outputs, want_values, want_grads, want_preds) = runs
    for name in want_outputs:
        assert outputs[name] == want_outputs[name], name
    for name, got, want in zip(("contrastive", "boundary", "frame", "total"), values, want_values):
        assert got == want, name
    for name in want_grads:
        assert grads[name] == want_grads[name], name
    assert preds == want_preds


def _recorded_ops(loss):
    """Op nodes reachable from `loss`, each counted once."""
    seen, stack, count = set(), [loss], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            count += bool(node._parents)
            stack.extend(parent for parent, _ in node._parents)
    return count


def test_small_clip_step_op_count():
    # One stacked pair from the encoder to the losses: 98 recorded ops per
    # clip on the criterion-8 small config, the focal term one of them.
    clip = _clip_for(SMALL)
    losses = clip_losses(Model(SMALL, seed=0), clip, build_targets(clip[1], SMALL.max_duration, 1.0),
                         LossConfig())
    assert _recorded_ops(losses.total) == 98


def _op_calls(monkeypatch):
    """Spy on `autodiff._op`: the returned list gets one requires_grad flag per call."""
    tracked = []
    real_op = ad._op

    def spy(data, parents):
        out = real_op(data, parents)
        tracked.append(out.requires_grad)
        return out

    monkeypatch.setattr(ad, "_op", spy)
    return tracked


def test_small_clip_step_op_calls_are_all_tracked(monkeypatch):
    # Every op call of a training clip-step records a graph node: 98 calls on
    # the small config. The boundary-map loss negates its constant target in
    # numpy instead of through an untracked scalar_mul op call.
    clip = _clip_for(SMALL)
    model = Model(SMALL, seed=0)
    targets = build_targets(clip[1], SMALL.max_duration, 1.0)
    tracked = _op_calls(monkeypatch)
    clip_losses(model, clip, targets, LossConfig())
    assert len(tracked) == 98
    assert all(tracked)


def test_small_inference_clip_op_calls_are_untracked(monkeypatch):
    # predict_clip's forward records no graph: 67 op calls on the small
    # config, none tracked.
    clip = _clip_for(SMALL)
    model = Model(SMALL, seed=0)
    tracked = _op_calls(monkeypatch)
    predict_clip(model, clip, InferenceConfig())
    assert len(tracked) == 67
    assert not any(tracked)


def test_forward_full_takes_a_clip_of_22_frames():
    # 22 frames pool to 11, then 6 in ceil mode; the upsampled levels are
    # cropped back to 11 and 22. The stacked pass keeps the bytes of the
    # two-pass reference, which runs the same ops per direction.
    model = Model(TINY, seed=0)
    stream = tiny_stream(t=22)
    out = model.forward_full(stream)
    assert out.boundary_map.shape == (TINY.max_duration, 22)
    assert out.frame_logits.shape == (2, 22, 3)
    want = reference_forward_full(model, stream)
    for f in fields(ForwardOutput):
        assert getattr(out, f.name).data.tobytes() == getattr(want, f.name).data.tobytes()


@pytest.mark.parametrize("t", [1, 3, 8, 18, 32, 33, 64, 128])
def test_one_model_serves_every_clip_length(t):
    # Default model, L = 40: T = 1 to 33 give clips shorter than L, and T = 1,
    # 3, 18 and 33 are not multiples of 4. Every shape follows the clip;
    # losses and every parameter's gradient stay finite.
    cfg = ModelConfig()
    synth = SynthConfig(count=1, num_frames=t, d_audio=cfg.d_audio, d_visual=cfg.d_visual,
                        min_segments=1, max_segments=1, min_len=min(2, t), max_len=min(t, 16))
    clip = generate_clip(synth, np.random.default_rng(t), "c")
    model = Model(cfg, seed=0)
    losses = clip_losses(model, clip, build_targets(clip[1], cfg.max_duration, 1.0), LossConfig())
    assert np.all(np.isfinite(losses.values()))
    losses.total.backward()
    assert all(p.grad is not None and np.all(np.isfinite(p.grad))
               for p in model.params.values())
    out = model.forward_full(clip[0])
    assert out.boundary_map.shape == (cfg.max_duration, t)
    assert out.frame_logits.shape == (2, t, 3)
    for prop in predict_clip(model, clip, InferenceConfig()):
        assert 0 <= prop.segment.start < prop.segment.end <= t


def _assert_gradient_headroom(num_frames):
    # Criterion 1's bound is 1e-4; with no relu or max-pool kink within the
    # step, every (loss, group) pair reads about 1e-10, and a dropped
    # gradient to one frame reads far above 1e-8.
    report = model_grad_errors(replace(TINY_MODEL, num_frames=num_frames))
    worst = {key: err for key, err in report.errors.items() if err > 1e-8}
    assert not worst, f"errors above 1e-8: {worst}"


def test_whole_model_gradients_match_finite_differences_at_15_frames():
    # 15 frames pool to 8, then 4, in ceil mode, and the upsampled levels
    # are cropped to 8 and 15.
    _assert_gradient_headroom(15)


def test_whole_model_gradients_match_finite_differences_at_16_frames():
    # Criterion 1's clip length: every frame pairs up in both pool stages.
    _assert_gradient_headroom(16)


@pytest.mark.parametrize("logit", [(50.0, 50.0, 50.0), (-50.0, -50.0, -50.0), (50.0, -50.0, 50.0)],
                         ids=["plus", "minus", "mixed"])
def test_saturated_frame_head_gives_finite_losses_and_gradients(logit):
    # Every frame-head output is +-50, where sigmoid(50.0) is exactly 1.0:
    # a focal loss taken on probabilities would need log(1 - 1.0).
    cfg = SMALL
    clip = _clip_for(cfg)
    model = Model(cfg, seed=0)
    model.params["frame_head.out_w"].data[:] = 0.0
    model.params["frame_head.out_b"].data[:] = logit
    losses = clip_losses(model, clip, build_targets(clip[1], cfg.max_duration, 1.0), LossConfig())
    assert np.all(np.isfinite(losses.values())) and losses.frame.item() > 0.0
    losses.total.backward()
    for name, p in model.params.items():
        assert p.grad is not None and np.all(np.isfinite(p.grad)), name
    assert np.any(model.params["frame_head.out_b"].grad != 0.0)


# -- checkpoints ------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    model = Model(TINY, seed=9)
    clip = generate_clip(
        SynthConfig(count=1, num_frames=16, d_audio=4, d_visual=4,
                    min_segments=1, max_segments=1, min_len=2, max_len=4),
        np.random.default_rng(0), "c",
    )
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path, TINY)
    for name in model.params:
        assert np.array_equal(model.params[name].data, loaded.params[name].data)
    a = model.forward_full(clip[0]).boundary_map.data
    b = loaded.forward_full(clip[0]).boundary_map.data
    assert np.array_equal(a, b)


def test_checkpoint_rejects_config_mismatch(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, Model(TINY, seed=0))
    bigger = ModelConfig(num_frames=16, d_audio=4, d_visual=4, channels=8,
                         max_duration=4, num_samples=4)
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(path, bigger)


def test_checkpoint_rejects_truncation(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, Model(TINY, seed=0))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 40])
    with pytest.raises(CheckpointError):
        load_checkpoint(path, TINY)


def _saved_checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, Model(TINY, seed=0))
    return path, path.read_bytes()


def test_checkpoint_rejects_short_last_tensor(tmp_path):
    path, data = _saved_checkpoint(tmp_path)
    path.write_bytes(data[:-8])
    # The last tensor in name order is map_head.sample_w, N float64 values.
    start = len(data) - 8 * TINY.num_samples
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: truncated at byte {start}")):
        load_checkpoint(path, TINY)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path, data = _saved_checkpoint(tmp_path)
    path.write_bytes(data + b"\0\0\0")
    with pytest.raises(CheckpointError,
                       match=re.escape(f"{path}: 3 trailing bytes at byte {len(data)}")):
        load_checkpoint(path, TINY)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_values(tmp_path, value):
    model = Model(TINY, seed=0)
    model.params["map_head.out_b"].data[0] = value
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    with pytest.raises(CheckpointError,
                       match=re.escape(f"{path}: non-finite value in parameter 'map_head.out_b'")):
        load_checkpoint(path, TINY)


def test_checkpoint_rejects_duplicate_parameter(tmp_path):
    path, data = _saved_checkpoint(tmp_path)
    path.write_bytes(append_checkpoint_record(data, "att_av.k", (4, 4), [123.0] * 16))
    with pytest.raises(CheckpointError, match=re.escape(
            f"{path}: duplicate parameter 'att_av.k' at byte {len(data)}")):
        load_checkpoint(path, TINY)


def test_checkpoint_rejects_rank_beyond_numpy(tmp_path):
    path, data = _saved_checkpoint(tmp_path)
    # 65 zero-length axes: no values to read, but numpy cannot hold the array
    path.write_bytes(append_checkpoint_record(data, "z", (0,) * 65))
    with pytest.raises(CheckpointError, match=re.escape(
            f"{path}: parameter 'z' at byte {len(data)} has 65 dimensions")):
        load_checkpoint(path, TINY)


def test_checkpoint_rejects_non_utf8_name(tmp_path):
    path, data = _saved_checkpoint(tmp_path)
    name_at = 14  # 12-byte header, then a 2-byte name length
    path.write_bytes(data[:name_at] + b"\xff" + data[name_at + 1:])
    with pytest.raises(CheckpointError,
                       match=re.escape(f"{path}: parameter name is not UTF-8 at byte {name_at}")):
        load_checkpoint(path, TINY)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """A TINY_MODEL checkpoint's path and bytes."""
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    save_checkpoint(path, Model(TINY_MODEL, seed=0))
    return path, path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_checkpoint_reader_raises_only_checkpoint_error(tiny_checkpoint, data):
    path, valid = tiny_checkpoint
    path.write_bytes(data.draw(corrupted_bytes(valid, header=12)))
    try:
        load_checkpoint(path, TINY_MODEL)
    except CheckpointError:
        pass
