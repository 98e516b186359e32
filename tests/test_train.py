import importlib
import tracemalloc

import numpy as np
import pytest

from avloc.data import FeatureStream, SynthConfig, generate_dataset
from avloc.losses import LossConfig
from avloc.model import Model, ModelConfig
from avloc.train import OptimConfig, build_targets, clip_losses, train

SMALL = ModelConfig(num_frames=64, d_audio=8, d_visual=8, channels=8,
                    max_duration=12, num_samples=4)  # criterion 8's model


def _clips(cfg, count, seed=0):
    synth = SynthConfig(count=count, num_frames=cfg.num_frames, d_audio=cfg.d_audio,
                        d_visual=cfg.d_visual, min_segments=1, max_segments=2,
                        min_len=2, max_len=cfg.max_duration)
    return generate_dataset(synth, seed=seed)


def test_non_finite_loss_stops_training_naming_the_clip():
    # A NaN boundary-map bias makes the boundary and total losses NaN on the
    # first clip; training must stop there instead of stepping on NaN.
    clips = _clips(SMALL, 4)
    model = Model(SMALL, seed=0)
    model.params["map_head.out_b"].data[:] = np.nan
    with pytest.raises(ValueError, match="non-finite loss") as err:
        train(model, clips, [], LossConfig(), OptimConfig(epochs=1, batch_size=2))
    message = str(err.value)
    assert "epoch 0, step 1" in message
    assert any(repr(ann.id) in message for _, ann in clips)
    assert "nan" in message



def test_train_checks_every_clips_feature_widths_before_building_any_target(monkeypatch):
    # The narrow clip is the last validation clip; no target may be built first.
    train_clips = _clips(SMALL, 2)
    stream, ann = _clips(SMALL, 1, seed=1)[0]
    narrow = (FeatureStream(audio=stream.audio[:, :3], visual=stream.visual), ann)
    built = []
    # avloc.train, the module: the package exports the function under that name
    monkeypatch.setattr(importlib.import_module("avloc.train"), "build_targets", lambda *args: built.append(args))
    with pytest.raises(ValueError, match=rf"^clip {ann.id!r}: stream has 3-wide audio "
                                         rf"features, but model.d_audio is 8$"):
        train(Model(SMALL, seed=0), train_clips, [train_clips[0], narrow], LossConfig(),
              OptimConfig(epochs=1))
    assert built == []

def test_training_peak_holds_one_clip_graph():
    # backward() releases each clip's graph, so the next clip's forward does
    # not run with the previous graph alive: the traced peak of a training run
    # stays well under two graphs.
    cfg = ModelConfig()
    clips = _clips(cfg, 4, seed=3)
    targets = build_targets(clips[0][1], cfg.max_duration, 1.0)
    model = Model(cfg, seed=0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        losses = clip_losses(model, clips[0], targets, LossConfig())
        graph = tracemalloc.get_traced_memory()[0] - base
        del losses
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        train(model, clips, [], LossConfig(), OptimConfig(epochs=1, batch_size=2))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * graph, f"peak {peak / 2**20:.1f} MiB, graph {graph / 2**20:.1f} MiB"


def test_sgd_step_subtracts_the_batch_mean_gradient():
    # One epoch, one batch of every clip: a single SGD step, kept as the best
    # (no validation clips), moves each parameter by -lr times the mean of the
    # clips' gradients.
    clips = _clips(SMALL, 3, seed=4)
    reference = Model(SMALL, seed=5)
    for clip in clips:
        targets = build_targets(clip[1], SMALL.max_duration, 1.0)
        clip_losses(reference, clip, targets, LossConfig()).total.backward()  # grads add up
    model = Model(SMALL, seed=5)
    train(model, clips, [], LossConfig(),
          OptimConfig(learning_rate=0.3, epochs=1, batch_size=3, optimizer="sgd"))
    for name, p in model.params.items():
        before, grad_sum = reference.params[name].data, reference.params[name].grad
        np.testing.assert_allclose(p.data, before - 0.3 * grad_sum / 3, rtol=1e-12, atol=1e-15)
        assert not np.array_equal(p.data, before), name
