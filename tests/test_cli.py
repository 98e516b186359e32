import json

import pytest

from avloc import autodiff as ad
from avloc.cli import main
from avloc.config import run_config_from_dict
from avloc.model import Model, save_checkpoint
from oracles import append_checkpoint_record

TINY_CONFIG = {
    "seed": 7,
    "model": {"num_frames": 32, "d_audio": 4, "d_visual": 4, "channels": 4,
              "max_duration": 8, "num_samples": 4},
    "synth": {"train_clips": 6, "val_clips": 2, "test_clips": 3,
              "num_frames": 32, "d_audio": 4, "d_visual": 4,
              "min_segments": 1, "max_segments": 2, "min_len": 4, "max_len": 10,
              "delta": 1.5, "noise": 0.5},
    "optim": {"learning_rate": 0.05, "epochs": 1, "batch_size": 4},
    "infer": {"top_k": 20},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


@pytest.fixture()
def dataset(tmp_path, config_path):
    out = tmp_path / "data"
    assert main(["synth", "--config", config_path, "--out", str(out)]) == 0
    return out


def test_synth_writes_all_splits(dataset):
    for split, count in (("train", 6), ("val", 2), ("test", 3)):
        manifest = json.loads((dataset / split / "manifest.json").read_text())
        assert len(manifest["clips"]) == count
        assert (dataset / split / "annotations.json").exists()
    assert (dataset / "config.json").exists()


def test_synth_is_byte_deterministic(tmp_path, config_path):
    for name in ("a", "b"):
        assert main(["synth", "--config", config_path, "--out", str(tmp_path / name)]) == 0
    a = (tmp_path / "a" / "train" / "annotations.json").read_bytes()
    b = (tmp_path / "b" / "train" / "annotations.json").read_bytes()
    assert a == b
    clip = json.loads((tmp_path / "a" / "train" / "manifest.json").read_text())["clips"][0]
    fa = (tmp_path / "a" / "train" / clip["path"]).read_bytes()
    fb = (tmp_path / "b" / "train" / clip["path"]).read_bytes()
    assert fa == fb


def test_synth_invalid_config_exits_1_without_files(tmp_path):
    cfg = dict(TINY_CONFIG)
    cfg["synth"] = dict(TINY_CONFIG["synth"], min_len=0)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "never"
    assert main(["synth", "--config", str(path), "--out", str(out)]) == 1
    assert not out.exists()


def test_unknown_config_key_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": {"num_frames": 32, "mystery": 3}}))
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "x")]) == 1


def test_malformed_json_config_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("payload, message", [
    (b'{"seed": 1, "\xff": 2}', "not UTF-8 at byte 13"),
    (b"[" * 100_000, "JSON nested too deeply"),
], ids=["non-utf8", "deep-nesting"])
def test_unreadable_config_exits_1_without_traceback(tmp_path, capsys, payload, message):
    path = tmp_path / "bad.json"
    path.write_bytes(payload)
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert f"{path}: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("bad", [{"optim": {"epochs": 1.5}}, {"seed": True}])
def test_non_integer_config_field_exits_1(dataset, tmp_path, capsys, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(TINY_CONFIG, **bad)))
    assert main(["train", "--config", str(path), "--data", str(dataset),
                 "--out", str(tmp_path / "model.ckpt")]) == 1
    assert "expected an integer" in capsys.readouterr().err


def test_boolean_float_config_field_exits_1(dataset, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(TINY_CONFIG, optim=dict(TINY_CONFIG["optim"],
                                                            learning_rate=True))))
    assert main(["train", "--config", str(path), "--data", str(dataset),
                 "--out", str(tmp_path / "model.ckpt")]) == 1
    assert "optim.learning_rate: expected a number" in capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()


@pytest.mark.parametrize("section, field, value", [
    ("infer", "sigma", float("nan")),
    ("optim", "learning_rate", float("inf")),
    ("loss", "margin", float("nan")),
])
def test_non_finite_float_config_field_exits_1(dataset, tmp_path, capsys, section, field, value):
    path = tmp_path / "bad.json"  # json.dumps writes the NaN / Infinity literals
    path.write_text(json.dumps(dict(TINY_CONFIG, **{section: {field: value}})))
    assert main(["train", "--config", str(path), "--data", str(dataset),
                 "--out", str(tmp_path / "model.ckpt")]) == 1
    err = capsys.readouterr().err
    assert f"{section}.{field}: expected a finite number" in err and "Traceback" not in err
    assert not (tmp_path / "model.ckpt").exists()


def test_usage_error_exits_1():
    assert main(["synth"]) == 1          # missing --out
    assert main(["no-such-command"]) == 1


def test_labels_dump(dataset, config_path, tmp_path):
    out = tmp_path / "labels.json"
    assert main(["labels", "--config", config_path, "--data", str(dataset / "train"),
                 "--out", str(out)]) == 0
    dump = json.loads(out.read_text())
    assert len(dump) == 6
    first = dump[0]
    assert len(first["frame_labels"]) == 32
    assert len(first["boundary_map"]) == 8
    assert set(first["prob_forward"]) == {"start", "end", "content"}


def test_full_pipeline_smoke(dataset, config_path, tmp_path):
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--config", config_path, "--data", str(dataset),
                 "--out", str(ckpt)]) == 0
    assert ckpt.exists()
    loss_csv = ckpt.with_suffix(".loss.csv")
    assert loss_csv.read_text().startswith("step,contrastive,boundary_map,frame_prob,total")

    preds = tmp_path / "preds.json"
    assert main(["infer", "--config", config_path, "--checkpoint", str(ckpt),
                 "--data", str(dataset / "test"), "--out", str(preds)]) == 0
    payload = json.loads(preds.read_text())
    assert len(payload) == 3
    for clip in payload:
        scores = [p[2] for p in clip["proposals"]]
        assert scores == sorted(scores, reverse=True)
        for s, e, score in clip["proposals"]:
            assert 0 <= s < e <= 32
            assert 0.0 <= score <= 1.0

    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    assert main(["eval", "--pred", str(preds), "--data", str(dataset / "test"),
                 "--out", str(report_path), "--csv", str(csv_path)]) == 0
    report = json.loads(report_path.read_text())
    assert set(report["ap"]) == {"0.5", "0.75", "0.95"}
    assert set(report["ar"]) == {"50", "20", "10"}
    assert csv_path.read_text().count("\n") == 2

    tidy = tmp_path / "tidy.csv"
    assert main(["plotdata", "--loss-csv", str(loss_csv), "--out", str(tidy)]) == 0
    assert tidy.read_text().startswith("step,metric,value")
    tidy2 = tmp_path / "tidy2.csv"
    assert main(["plotdata", "--reports", str(report_path), "--out", str(tidy2)]) == 0
    rows = tidy2.read_text().strip().split("\n")
    assert rows[0] == "report,metric,value"
    assert len(rows) == 7  # three AP rows + three AR rows


def test_infer_rejects_mismatched_checkpoint(dataset, config_path, tmp_path):
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--config", config_path, "--data", str(dataset),
                 "--out", str(ckpt)]) == 0
    other = dict(TINY_CONFIG, model=dict(TINY_CONFIG["model"], channels=8))
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other))
    assert main(["infer", "--config", str(other_path), "--checkpoint", str(ckpt),
                 "--data", str(dataset / "test"), "--out", str(tmp_path / "p.json")]) == 2


def test_non_finite_checkpoint_exits_2(dataset, config_path, tmp_path, capsys):
    model = Model(run_config_from_dict(TINY_CONFIG).model, seed=0)
    model.params["map_head.out_b"].data[0] = float("nan")
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, model)
    preds = tmp_path / "p.json"
    assert main(["infer", "--config", config_path, "--checkpoint", str(ckpt),
                 "--data", str(dataset / "test"), "--out", str(preds)]) == 2
    err = capsys.readouterr().err
    assert f"{ckpt}: non-finite value in parameter 'map_head.out_b'" in err
    assert "Traceback" not in err
    assert not preds.exists()


def test_infer_timing_reports_stage_means_on_stderr(dataset, config_path, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, Model(run_config_from_dict(TINY_CONFIG).model, seed=0))
    runs = {}
    for name, extra in (("plain", []), ("timed", ["--timing"])):
        preds = tmp_path / f"{name}.json"
        assert main(["infer", "--config", config_path, "--checkpoint", str(ckpt),
                     "--data", str(dataset / "test"), "--out", str(preds), *extra]) == 0
        runs[name] = (preds.read_bytes(), capsys.readouterr().err)
    assert runs["plain"][1] == ""
    assert runs["timed"][0] == runs["plain"][0]
    (line,) = runs["timed"][1].splitlines()
    report = json.loads(line)
    assert report["clips"] == 3
    assert list(report["ms_per_clip"]) == ["forward", "fusion", "scoring", "soft_nms"]
    assert all(ms >= 0.0 for ms in report["ms_per_clip"].values())
    assert report["ms_per_clip"]["forward"] > 0.0


def test_duplicate_checkpoint_parameter_exits_2(dataset, config_path, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, Model(run_config_from_dict(TINY_CONFIG).model, seed=0))
    data = ckpt.read_bytes()
    ckpt.write_bytes(append_checkpoint_record(data, "att_av.k", (4, 4), [123.0] * 16))
    preds = tmp_path / "p.json"
    assert main(["infer", "--config", config_path, "--checkpoint", str(ckpt),
                 "--data", str(dataset / "test"), "--out", str(preds)]) == 2
    err = capsys.readouterr().err
    assert f"{ckpt}: duplicate parameter 'att_av.k' at byte {len(data)}" in err
    assert "Traceback" not in err
    assert not preds.exists()


def test_malformed_manifest_exits_2_without_traceback(dataset, config_path, tmp_path, capsys):
    manifest = dataset / "train" / "manifest.json"
    manifest.write_text(json.dumps({"version": json.loads(manifest.read_text())["version"]}))
    assert main(["train", "--config", config_path, "--data", str(dataset),
                 "--out", str(tmp_path / "model.ckpt")]) == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and "Traceback" not in err


def test_non_finite_feature_value_exits_2(dataset, config_path, tmp_path, capsys):
    features = sorted((dataset / "train" / "features").glob("*.bin"))[0]
    data = bytearray(features.read_bytes())
    data[20 + 4 * 5:20 + 4 * 6] = b"\x00\x00\xc0\x7f"  # float32 NaN in audio frame 1
    features.write_bytes(bytes(data))
    assert main(["train", "--config", config_path, "--data", str(dataset),
                 "--out", str(tmp_path / "model.ckpt")]) == 2
    err = capsys.readouterr().err
    assert f"{features}: non-finite audio feature value at frame 1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "model.ckpt").exists()


@pytest.mark.parametrize("mutate, message", [
    (lambda anns: [anns[0], dict(anns[1], id=["x"])], "record 1: 'id' must be a string"),
    (lambda anns: [anns[0], dict(anns[1], id=anns[0]["id"])], "record 1: duplicate id"),
    (lambda anns: [dict(anns[0], num_frames=12.7)],
     "record 0: 'num_frames' must be an integer >= 1"),
    (lambda anns: [dict(anns[0], visual_fake=[[True, 3]])],
     "record 0: visual_fake[0]: expected integer frames"),
], ids=["id-list", "duplicate-id", "frames-fraction", "start-bool"])
@pytest.mark.parametrize("command", ["eval", "labels"])
def test_malformed_annotations_exit_2_without_traceback(dataset, config_path, tmp_path, capsys,
                                                        command, mutate, message):
    path = dataset / "test" / "annotations.json"
    path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
    out = tmp_path / "out.json"
    if command == "eval":
        pred = tmp_path / "pred.json"
        pred.write_text("[]")
        argv = ["eval", "--pred", str(pred), "--data", str(dataset / "test"), "--out", str(out)]
    else:
        argv = ["labels", "--config", config_path, "--data", str(dataset / "test"),
                "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{path}: {message}" in err and "Traceback" not in err
    assert not out.exists()


def test_eval_rejects_malformed_predictions(dataset, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[{]")
    assert main(["eval", "--pred", str(bad), "--data", str(dataset / "test"),
                 "--out", str(tmp_path / "r.json")]) == 2


@pytest.mark.parametrize("payload, message", [
    (b'[{"id": "\xff"}]', "not UTF-8 at byte 9"),
    (b"[" * 100_000, "JSON nested too deeply"),
], ids=["non-utf8", "deep-nesting"])
def test_eval_rejects_unreadable_predictions(dataset, tmp_path, capsys, payload, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(payload)
    out = tmp_path / "r.json"
    assert main(["eval", "--pred", str(bad), "--data", str(dataset / "test"),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: {message}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("payload, message", [
    ("5", "expected a JSON array"),
    ('[{"id": ["x"], "proposals": []}]', "record 0: 'id' must be a string"),
    ('[{"id": "a", "proposals": [[0, 4, 0.5]]}, {"id": "a", "proposals": []}]',
     "record 1: duplicate id"),
    ('[{"id": "a", "proposals": [[0, 4, NaN]]}]', "record 0: proposals[0] score"),
    ('[{"id": "a", "proposals": [[0, 4, "0.5"]]}]', "record 0: proposals[0] score"),
    ('[{"id": "a", "proposals": [[true, 4, 0.5]]}]', "record 0: proposals[0]: expected integer"),
    ('[{"id": "a", "proposals": [[0.7, 4, 0.5]]}]', "record 0: proposals[0]: expected integer"),
], ids=["root-int", "id-list", "duplicate-id", "score-nan", "score-string", "start-bool",
        "start-fraction"])
def test_eval_rejects_malformed_prediction_records(dataset, tmp_path, capsys, payload, message):
    bad = tmp_path / "bad.json"
    bad.write_text(payload)
    out = tmp_path / "r.json"
    assert main(["eval", "--pred", str(bad), "--data", str(dataset / "test"),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: {message}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("report, message", [
    ("[]", "expected a JSON object"),
    ('{"ap": [1]}', "'ap' must be a JSON object"),
    ('{"ar": {"10": "x,y"}}', "ar['10']: expected a finite number"),
    ('{"ap": {"0.5": NaN}}', "ap['0.5']: expected a finite number"),
    ('{"ap": {"0.5": true}}', "ap['0.5']: expected a finite number"),
    ('{"ap": {"0,5": 0.5}}', "ap key '0,5' is not a CSV field"),
], ids=["root-array", "ap-array", "ar-string", "ap-nan", "ap-bool", "key-comma"])
def test_plotdata_rejects_malformed_reports(tmp_path, capsys, report, message):
    good = tmp_path / "good.json"
    good.write_text('{"ap": {"0.5": 1}, "ar": {"10": 0.25}}')
    bad = tmp_path / "bad.json"
    bad.write_text(report)
    out = tmp_path / "t.csv"
    assert main(["plotdata", "--reports", str(good), str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: {message}" in err and "Traceback" not in err
    assert not out.exists()
    assert main(["plotdata", "--reports", str(good), "--out", str(out)]) == 0
    assert out.read_text() == "report,metric,value\ngood,ap_0.5,1\ngood,ar_10,0.25\n"


def test_plotdata_rejects_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("step,wrong,header\n1,2,3\n")
    assert main(["plotdata", "--loss-csv", str(bad), "--out", str(tmp_path / "t.csv")]) == 2


def test_gradcheck_default_passes(tmp_path):
    out = tmp_path / "gradcheck.json"
    assert main(["gradcheck", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["max_error"] <= 1e-4


def test_gradcheck_detects_corrupted_backward_rule(monkeypatch):
    true_relu = ad.relu

    def broken_relu(a):
        mask = a.data > 0
        out = true_relu(a)
        broken = ad.Tensor(out.data)
        if a.requires_grad:
            broken.requires_grad = True
            broken._parents = ((a, lambda g: g * mask * 0.5),)  # wrong slope
        return broken

    monkeypatch.setattr(ad, "relu", broken_relu)
    assert main(["gradcheck"]) == 3
