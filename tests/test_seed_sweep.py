"""scripts/seed_sweep.py --variant: a Model subclass or method mapping put in
place of avloc's Model, without an edit to src/."""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

import avloc.cli  # noqa: F401  (imported so that the fixture sees its Model binding)
from avloc import model as model_mod
from avloc.model import Model, load_checkpoint, save_checkpoint

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "seed_sweep.py"
TINY = model_mod.ModelConfig(num_frames=16, d_audio=4, d_visual=4, channels=4,
                             max_duration=4, num_samples=4)


@pytest.fixture
def sweep():
    spec = importlib.util.spec_from_file_location("seed_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def variants(tmp_path, monkeypatch):
    """A module `sweep_variants` on sys.path; every Model binding the tests
    may change is restored afterwards."""
    (tmp_path / "sweep_variants.py").write_text(textwrap.dedent("""
        from avloc.model import Model

        def no_frame_head(self, fused):
            return None

        class Subclass(Model):
            pass

        METHODS = {"frame_prob_head": no_frame_head}
        UNKNOWN = {"no_such_method": no_frame_head}
        NOT_A_VARIANT = 3
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(Model, "frame_prob_head", Model.frame_prob_head)
    for name, module in list(sys.modules.items()):
        if (name == "avloc" or name.startswith("avloc.")) and vars(module).get("Model") is Model:
            monkeypatch.setattr(module, "Model", Model)
    yield
    sys.modules.pop("sweep_variants", None)


def test_method_mapping_replaces_model_methods(sweep, variants):
    sweep.apply_variant("sweep_variants:METHODS")
    assert Model.frame_prob_head is sys.modules["sweep_variants"].no_frame_head


def test_subclass_replaces_model_in_every_module(sweep, variants, tmp_path):
    sweep.apply_variant("sweep_variants:Subclass")
    subclass = sys.modules["sweep_variants"].Subclass
    for name in ("avloc", "avloc.model", "avloc.cli", "avloc.train", "avloc.pipeline"):
        assert sys.modules[name].Model is subclass, name
    path = tmp_path / "tiny.ckpt"
    save_checkpoint(path, Model(TINY, seed=0))
    assert type(load_checkpoint(path, TINY)) is subclass


@pytest.mark.parametrize("spec,message", [
    ("sweep_variants", "expected MODULE:NAME"),
    ("sweep_variants:UNKNOWN", "no_such_method"),
    ("sweep_variants:NOT_A_VARIANT", "got int"),
])
def test_bad_variant_is_a_value_error(sweep, variants, spec, message):
    with pytest.raises(ValueError, match=message):
        sweep.apply_variant(spec)
