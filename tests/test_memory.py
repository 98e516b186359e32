"""autodiff.keep_freed_memory: the glibc guard, its call sites, and the page
faults a warm clip-step or inference clip makes with it in place."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from avloc import autodiff as ad
from avloc import pipeline
from avloc.data import SynthConfig, generate_clip, generate_dataset
from avloc.inference import InferenceConfig
from avloc.losses import LossConfig
from avloc.model import Model, ModelConfig
from avloc.train import OptimConfig, train

# The package exports the train() function under the module's name.
train_mod = importlib.import_module("avloc.train")
SRC = Path(__file__).resolve().parents[1] / "src"
MiB = 2**20


@pytest.fixture
def libc_calls(monkeypatch):
    """Replace ctypes.CDLL with a spy; returns the list of calls made through it.

    keep_freed_memory's once-per-process cache is cleared before and after, so
    the spy sees a first call and the real setting is not left skipped.
    """
    calls = []

    class Mallopt:
        argtypes = restype = None

        def __call__(self, param, value):
            calls.append((param, value))
            return 1

    def cdll(name):
        calls.append(("CDLL", name))
        return types.SimpleNamespace(mallopt=Mallopt())

    monkeypatch.setattr(ad.ctypes, "CDLL", cdll)
    ad.keep_freed_memory.cache_clear()
    yield calls
    ad.keep_freed_memory.cache_clear()


def _raise(exc):
    def confstr(name):
        raise exc
    return confstr


@pytest.mark.parametrize("confstr", [_raise(ValueError("unrecognized configuration name")),
                                     _raise(OSError()), lambda name: None,
                                     lambda name: "musl 1.2"],
                         ids=["ValueError", "OSError", "None", "other-libc"])
def test_keep_freed_memory_off_glibc_touches_no_library(monkeypatch, libc_calls, confstr):
    monkeypatch.setattr(ad.os, "confstr", confstr)
    ad.keep_freed_memory()
    assert libc_calls == []


def test_keep_freed_memory_sets_both_thresholds_once(monkeypatch, libc_calls):
    monkeypatch.setattr(ad.os, "confstr", lambda name: "glibc 2.36")
    ad.keep_freed_memory()
    ad.keep_freed_memory()
    # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD is -1 in glibc's malloc.h.
    assert libc_calls == [("CDLL", None), (-3, 32 * MiB), (-1, 256 * MiB)]


SMALL = ModelConfig(num_frames=64, d_audio=8, d_visual=8, channels=8,
                    max_duration=12, num_samples=4)  # criterion 8's model
SMALL_SYNTH = SynthConfig(count=2, num_frames=64, d_audio=8, d_visual=8, min_segments=1,
                          max_segments=2, min_len=2, max_len=12)


def _count_calls(monkeypatch, module):
    calls = []
    monkeypatch.setattr(module, "keep_freed_memory", lambda: calls.append(1))
    return calls


def test_train_keeps_freed_memory(monkeypatch):
    calls = _count_calls(monkeypatch, train_mod)
    train(Model(SMALL, seed=0), generate_dataset(SMALL_SYNTH, seed=0), [],
          LossConfig(), OptimConfig(epochs=1, batch_size=2))
    assert calls == [1]


def test_predict_clip_keeps_freed_memory(monkeypatch):
    calls = _count_calls(monkeypatch, pipeline)
    clip = generate_clip(SMALL_SYNTH, np.random.default_rng(0), "c")
    pipeline.predict_clip(Model(SMALL, seed=0), clip, InferenceConfig())
    assert calls == [1]


# -- page faults per warm call, default config ------------------------------------

def _on_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


# Prints the minor page faults per clip-step (train) or per clip (infer) of a
# warm default-config process. The warm-up call is the same work as the
# counted one, so it leaves the heap at its working size.
_FAULT_SCRIPT = """
import resource, sys
import numpy as np
from avloc.data import SynthConfig, generate_dataset
from avloc.inference import InferenceConfig
from avloc.losses import LossConfig
from avloc.model import Model, ModelConfig
from avloc.pipeline import predict_clip
from avloc.train import OptimConfig, train

clips = generate_dataset(SynthConfig(count=8), seed=0)
model = Model(ModelConfig(), seed=0)
if sys.argv[1] == "train":
    work = lambda: train(model, clips, [], LossConfig(), OptimConfig(epochs=1, batch_size=2))
else:
    work = lambda: [predict_clip(model, clip, InferenceConfig()) for clip in clips]
work()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
work()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(clips))
"""


@pytest.mark.skipif(not _on_glibc(), reason="the thresholds are glibc's")
@pytest.mark.parametrize("mode, limit", [("train", 300), ("infer", 50)])
def test_warm_default_calls_fault_few_pages(mode, limit):
    # Without the thresholds a warm clip-step faulted ~1,800 pages back in,
    # and an inference clip in a process that never trained ~1,600.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", _FAULT_SCRIPT, mode], env=env,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    faults = float(proc.stdout.strip().splitlines()[-1])
    assert faults < limit, f"{faults:.0f} minor faults per {mode} clip"
