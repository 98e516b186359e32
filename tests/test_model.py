import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avloc import autodiff as ad
from avloc.autodiff import Tensor
from avloc.data import FeatureStream, SynthConfig, generate_clip
from avloc.gradcheck import TINY_MODEL
from avloc.labels import in_range_mask
from avloc.model import (
    CheckpointError,
    Model,
    ModelConfig,
    build_sampling_mask,
    load_checkpoint,
    parameter_count,
    save_checkpoint,
)
from oracles import append_checkpoint_record, brute_force_sampling_mask, corrupted_bytes

TINY = ModelConfig(num_frames=16, d_audio=4, d_visual=4, channels=4,
                   max_duration=4, num_samples=4)


def tiny_stream(seed=0, t=16, d=4):
    rng = np.random.default_rng(seed)
    return FeatureStream(audio=rng.normal(size=(t, d)), visual=rng.normal(size=(t, d)))


def test_num_frames_must_divide_by_four():
    with pytest.raises(ValueError, match="divisible by 4"):
        ModelConfig(num_frames=18, d_audio=4, d_visual=4, channels=4,
                    max_duration=4, num_samples=4)


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
    kernel = build_sampling_mask(4, 12, 5).kernel  # [N, L, L]
    np.testing.assert_allclose(kernel.sum(axis=2), 1.0, atol=1e-12)
    assert np.all(kernel >= 0.0)
    # Offsets past the candidate's last frame carry no weight.
    assert np.all(np.triu(kernel, k=1) == 0.0)
    # Applied at every start, in-range rows still sum to one and
    # candidates past the last frame are all-zero.
    grid = ad.banded_matmul(Tensor(kernel[2]), Tensor(np.ones((12, 1)))).data[:, :, 0]
    valid = in_range_mask(4, 12)
    np.testing.assert_allclose(grid[valid], 1.0, atol=1e-12)
    assert np.all(grid[~valid] == 0.0)


def test_mask_duration_one_is_point_sample():
    kernel = build_sampling_mask(3, 8, 4).kernel
    for n in range(4):
        row = kernel[n, 0]
        assert row[0] == 1.0 and row.sum() == 1.0


def test_mask_two_samples_hit_span_endpoints():
    # Duration index 3 spans offsets 0..3: samples at offsets 0.0 and 3.0.
    kernel = build_sampling_mask(4, 8, 2).kernel
    first, last = kernel[0, 3], kernel[1, 3]
    assert first[0] == 1.0 and first.sum() == 1.0
    assert last[3] == 1.0 and last.sum() == 1.0


def test_mask_matches_dense_oracle():
    for l, t, n in [(3, 6, 4), (4, 12, 5), (12, 64, 4), (40, 128, 16)]:
        kernel = build_sampling_mask(l, t, n).kernel
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
    np.testing.assert_allclose(out.frame_probs.data, 0.5)


def test_fused_channel_count():
    model = Model(TINY, seed=0)
    out = model.encode_and_fuse(tiny_stream())
    assert out.fused.shape == (TINY.num_frames, TINY.channels + 1)


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
    fused = model.encode_and_fuse(tiny_stream()).fused
    bmap = model.boundary_map_head(fused)
    assert bmap.shape == (TINY.max_duration, TINY.num_frames)
    np.testing.assert_allclose(bmap.data, 0.5)


SMALL = ModelConfig(num_frames=64, d_audio=8, d_visual=8, channels=8,
                    max_duration=12, num_samples=4)  # criterion 8's model


def _dense_boundary_map_head(model, fused):
    """The boundary-map head with sampling as one dense [L*T, T] matmul."""
    cfg, p = model.cfg, model.params
    l, t, n = cfg.max_duration, cfg.num_frames, cfg.num_samples
    dense = brute_force_sampling_mask(l, t, n).reshape(n, l * t, t)
    weights = ad.reshape(p["map_head.sample_w"], (1, n))
    combined = ad.reshape(ad.matmul(weights, Tensor(dense.reshape(n, l * t * t))), (l * t, t))
    grid = ad.reshape(ad.matmul(combined, fused), (l, t, cfg.fused_channels))
    hidden = ad.relu(ad.add(ad.conv2d(grid, p["map_head.conv_w"]), p["map_head.conv_b"]))
    flat = ad.reshape(hidden, (l * t, cfg.channels))
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
        results.append((out.data, fused.grad, model.params["map_head.sample_w"].grad))
    for got, want in zip(*results):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_full_scale_config_builds_and_runs():
    cfg = ModelConfig(num_frames=512, max_duration=60, num_samples=16)
    model = Model(cfg, seed=0)
    assert model.mask.kernel.nbytes == 460_800
    fused = Tensor(np.random.default_rng(0).normal(size=(512, cfg.fused_channels)))
    bmap = model.boundary_map_head(fused)
    assert bmap.shape == (60, 512)
    assert np.all(np.isfinite(bmap.data))


def test_frame_head_shapes_and_zero_head():
    model = Model(TINY, seed=0)
    model.params["frame_head.out_w"].data[:] = 0.0
    probs = model.frame_prob_head(model.encode_and_fuse(tiny_stream()).fused)
    assert probs.shape == (TINY.num_frames, 3)
    np.testing.assert_allclose(probs.data, 0.5)


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


# -- full forward -----------------------------------------------------------

def test_forward_full_deterministic():
    model = Model(TINY, seed=0)
    stream = tiny_stream(seed=4)
    a = model.forward_full(stream)
    b = model.forward_full(stream)
    assert np.array_equal(a.boundary_map.data, b.boundary_map.data)
    assert np.array_equal(a.probs_bwd.data, b.probs_bwd.data)


def test_forward_full_outputs_in_unit_interval():
    model = Model(TINY, seed=0)
    out = model.forward_full(tiny_stream(seed=5))
    for t in (out.frame_probs, out.boundary_map, out.probs_fwd, out.probs_bwd):
        assert np.all(t.data > 0.0) and np.all(t.data < 1.0)


def test_palindromic_input_gives_identical_directions():
    model = Model(TINY, seed=0)
    rng = np.random.default_rng(6)
    half = rng.normal(size=(8, 4))
    audio = np.vstack([half, half[::-1]])
    visual = np.vstack([half * 0.5, (half * 0.5)[::-1]])
    out = model.forward_full(FeatureStream(audio=audio, visual=visual))
    # Reversing a palindromic stream is a no-op, so the raw backward pass
    # must equal the raw forward pass bit for bit.
    np.testing.assert_array_equal(out.probs_bwd.data, out.probs_fwd.data)


def test_wrong_frame_count_rejected():
    model = Model(TINY, seed=0)
    with pytest.raises(ValueError, match="frames"):
        model.encode_and_fuse(tiny_stream(t=20))


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
