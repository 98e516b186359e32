import json
import re

import pytest

from avloc.config import (
    ConfigError,
    RunConfig,
    load_run_config,
    run_config_from_dict,
    run_config_to_dict,
)


def test_defaults_roundtrip():
    cfg = RunConfig()
    assert run_config_from_dict(run_config_to_dict(cfg)) == cfg


def test_partial_config_fills_defaults(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 3, "optim": {"epochs": 2}}))
    cfg = load_run_config(path)
    assert cfg.seed == 3
    assert cfg.optim.epochs == 2
    assert cfg.model.num_frames == 128


def test_unknown_nested_key_names_the_field():
    with pytest.raises(ConfigError, match="optim.turbo"):
        run_config_from_dict({"optim": {"turbo": True}})


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="mystery"):
        run_config_from_dict({"mystery": 1})


def test_section_value_error_names_the_section():
    with pytest.raises(ConfigError, match="loss"):
        run_config_from_dict({"loss": {"alpha": -1}})


def test_model_synth_dims_must_agree():
    with pytest.raises(ConfigError, match="num_frames"):
        run_config_from_dict({"model": {"num_frames": 64},
                              "synth": {"num_frames": 128}})


def test_invalid_json_reports_byte_offset(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"seed": }')
    with pytest.raises(ConfigError, match="byte"):
        load_run_config(path)


@pytest.mark.parametrize("payload, message", [
    (b'{"seed": 1, "\xff": 2}', "not UTF-8 at byte 13"),
    (b"[" * 100_000, "JSON nested too deeply"),
], ids=["non-utf8", "deep-nesting"])
def test_unreadable_json_is_a_config_error(tmp_path, payload, message):
    path = tmp_path / "bad.json"
    path.write_bytes(payload)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
        load_run_config(path)


def test_split_counts_must_be_integers():
    with pytest.raises(ConfigError, match="val_clips"):
        run_config_from_dict({"synth": {"val_clips": "ten"}})


@pytest.mark.parametrize("raw, field", [
    ({"optim": {"epochs": 1.5}}, "optim.epochs"),
    ({"optim": {"batch_size": 1.5}}, "optim.batch_size"),
    ({"model": {"channels": True}}, "model.channels"),
    ({"seed": True}, "seed"),
    ({"synth": {"test_clips": True}}, "synth.test_clips"),
])
def test_integer_fields_reject_bools_and_fractions(raw, field):
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: expected an integer"):
        run_config_from_dict(raw)


def test_synth_section_must_be_an_object():
    with pytest.raises(ConfigError, match="synth: expected a JSON object"):
        run_config_from_dict({"synth": 5})


@pytest.mark.parametrize("raw, field", [
    ({"optim": {"learning_rate": True}}, "optim.learning_rate"),
    ({"loss": {"alpha": False}}, "loss.alpha"),
    ({"infer": {"sigma": True}}, "infer.sigma"),
    ({"synth": {"noise": "0.5"}}, "synth.noise"),
])
def test_float_fields_reject_bools_and_non_numbers(raw, field):
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: expected a number"):
        run_config_from_dict(raw)


@pytest.mark.parametrize("raw, field", [
    ({"infer": {"sigma": float("nan")}}, "infer.sigma"),
    ({"optim": {"learning_rate": float("inf")}}, "optim.learning_rate"),
    ({"loss": {"margin": float("nan")}}, "loss.margin"),
    ({"synth": {"noise": float("-inf")}}, "synth.noise"),
    ({"loss": {"alpha": 10**400}}, "loss.alpha"),
])
def test_float_fields_reject_non_finite_values(raw, field):
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: expected a finite number"):
        run_config_from_dict(raw)


def test_float_fields_accept_integers():
    cfg = run_config_from_dict({"optim": {"learning_rate": 1}, "infer": {"sigma": 2}})
    assert cfg.optim.learning_rate == 1 and cfg.infer.sigma == 2
