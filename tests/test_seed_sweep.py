"""scripts/seed_sweep.py: --variant, a Model subclass or method mapping put
in place of avloc's Model without an edit to src/; the per-seed output
digests, and --against's same-bytes verdict, run on a faked avloc CLI."""

import hashlib
import importlib.util
import json
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


def _fake_cli(differ_in: str = ""):
    """A stand-in for avloc's CLI: each command writes small files of fixed
    bytes, and a train or infer output under a path containing `differ_in`
    gets one extra byte."""

    def cli(argv):
        command, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
        out = Path(opts["--out"])
        if command == "eval":
            out.write_text(json.dumps({"ap": {"0.5": 0.5}, "ar": {"10": 0.25}}))
            return 0
        seed = json.loads(Path(opts["--config"]).read_text())["seed"]
        extra = b"+" if differ_in and differ_in in str(out) else b""
        if command == "synth":
            out.mkdir(parents=True)
        elif command == "train":
            out.write_bytes(b"ckpt %d" % seed + extra)
        elif command == "infer":
            out.write_bytes(b"preds %s %d" % (opts["--fusion"].encode(), seed) + extra)
        return 0

    return cli


def test_run_seed_records_output_digests(sweep, tmp_path, monkeypatch):
    monkeypatch.setattr(avloc.cli, "main", _fake_cli())
    record = sweep.run_seed(tmp_path / "w", 3)
    assert sorted(record["sha256"]) == ["model.ckpt", "preds_both.json", "preds_forward.json"]
    assert record["sha256"]["model.ckpt"] == hashlib.sha256(b"ckpt 3").hexdigest()
    assert record["sha256"]["preds_forward.json"] == hashlib.sha256(b"preds forward 3").hexdigest()
    assert record["both"] == {"ap": {"0.5": 0.5}, "ar": {"10": 0.25}}


@pytest.mark.parametrize("differ_in, same, line", [
    ("", [True] * 5, "checkpoint and predictions: the parent's bytes at every seed"),
    ("change-seed2/preds_both", [True, False, True, True, True],
     "checkpoint and predictions: differ from the parent's at seeds 2"),
])
def test_against_records_and_prints_whether_every_seed_has_the_parents_bytes(
        sweep, tmp_path, monkeypatch, capsys, differ_in, same, line):
    monkeypatch.setattr(avloc.cli, "main", _fake_cli(differ_in))
    monkeypatch.setattr(sweep, "_spawn", lambda src, work, seed, variant: sweep.run_seed(work, seed))
    monkeypatch.setattr(sweep, "_export", lambda rev, dest: "0" * 40)
    out = tmp_path / "QUALITY.json"
    monkeypatch.setattr(sys, "argv", ["seed_sweep.py", "--out", str(out), "--against", "HEAD"])
    assert sweep.main() == 0
    record = json.loads(out.read_text())
    assert record["same_bytes"] == dict(zip(map(str, sweep.SEEDS), same))
    assert record["runs"]["parent"]["commit"] == "0" * 40
    assert capsys.readouterr().out.splitlines()[-1] == line
