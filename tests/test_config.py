import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avloc.config import (
    ConfigError,
    RunConfig,
    load_run_config,
    run_config_from_dict,
    run_config_to_dict,
)
from oracles import JSON_VALUES, corrupted_bytes


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


@pytest.mark.parametrize("synth", [{"train_clips": 5, "count": 3}, {"count": 3, "train_clips": 5},
                                   {"count": 3}], ids=["count-last", "count-first", "count-only"])
def test_synth_count_is_spelled_train_clips(synth):
    with pytest.raises(ConfigError, match=r"^synth\.count: unknown field$"):
        run_config_from_dict({"synth": synth})


def test_negative_seed_names_the_field():
    with pytest.raises(ConfigError, match=r"^seed: must be >= 0, got -1$"):
        run_config_from_dict({"seed": -1})
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(seed=-3)
    assert run_config_from_dict({"seed": 0}).seed == 0


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="mystery"):
        run_config_from_dict({"mystery": 1})


def test_section_value_error_names_the_section():
    with pytest.raises(ConfigError, match="loss"):
        run_config_from_dict({"loss": {"alpha": -1}})


@pytest.mark.parametrize("raw, message", [
    ({"model": {"channels": 0}}, "model.channels: must be positive"),
    ({"synth": {"max_segments": 9, "max_len": 100}},
     "synth: infeasible config, 9 segments of up to 100 frames cannot fit in 128 frames"),
    ({"loss": {"alpha": -1}}, "loss.alpha: must be >= 0"),
    ({"optim": {"epochs": 0}}, "optim.epochs: must be >= 1"),
    ({"infer": {"sigma": 0}}, "infer.sigma: must be > 0"),
], ids=["model", "synth", "loss", "optim", "infer"])
def test_section_value_error_names_the_section_once(raw, message):
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
        run_config_from_dict(raw)


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
    (b'{"seed": ' + b"9" * 5000 + b"}", "JSON integer too long"),
], ids=["non-utf8", "deep-nesting", "long-integer"])
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


DEFAULT_DICT = run_config_to_dict(RunConfig())
# Every place a JSON value can stand in the default dict: a section or one field of it.
FIELDS = [(key,) for key in DEFAULT_DICT] + [
    (key, name) for key, section in DEFAULT_DICT.items() if isinstance(section, dict)
    for name in section
]


def _replaced(keys: tuple[str, ...], value) -> dict:
    raw = json.loads(json.dumps(DEFAULT_DICT))
    *outer, last = keys
    (raw[outer[0]] if outer else raw)[last] = value
    return raw


@settings(max_examples=300, deadline=None)
@given(raw=JSON_VALUES | st.builds(_replaced, st.sampled_from(FIELDS), JSON_VALUES))
def test_config_reader_raises_only_config_error(raw):
    try:
        cfg = run_config_from_dict(raw)
    except ConfigError:
        return
    assert run_config_from_dict(run_config_to_dict(cfg)) == cfg


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    """A small config file's path and bytes."""
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps({"seed": 3, "optim": {"epochs": 2}, "infer": {"sigma": 0.5}}))
    return path, path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_config_file_reader_raises_only_config_error(config_file, data):
    path, valid = config_file
    path.write_bytes(data.draw(corrupted_bytes(valid, header=10)))
    try:
        load_run_config(path)
    except ConfigError:
        pass
