"""Smoke tests of the benchmark at a tiny model size.

Run from the root of the repository:

    python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import bench_workloads as bw  # noqa: E402
from avloc.config import run_config_from_dict  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "model": {"num_frames": 16, "d_audio": 4, "d_visual": 4, "channels": 4,
              "max_duration": 4, "num_samples": 4},
    "synth": {"num_frames": 16, "d_audio": 4, "d_visual": 4, "min_segments": 1,
              "max_segments": 1, "min_len": 2, "max_len": 6},
}


def tiny(name: str, seed: int = 3) -> bw.Workload:
    """The named workload with the tiny model and a few clips per split."""
    w = bw.make_workloads(seed)[name]
    cfg = bw._sized(run_config_from_dict({**TINY, "seed": seed}), 4, 1, 3)
    fixture = w.fixture and dataclasses.replace(w.fixture, train_clips=4, calls=1)
    return dataclasses.replace(w, config=cfg, fixture=fixture)


def run(name: str, tmp_path: Path, trace: bool, seed: int = 3):
    return bw.run_workload(tiny(name, seed), seed, 0.3, trace, tmp_path)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bw.make_workloads(0))


@pytest.mark.parametrize("name", ["train_small", "infer_default"])
def test_every_end_to_end_metric_is_emitted_with_its_unit(name, tmp_path):
    result, _ = run(name, tmp_path, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", ["train_small", "infer_default"])
def test_traced_run_emits_the_per_layer_metrics(name, tmp_path):
    result, extra = run(name, tmp_path, trace=True)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["autodiff.op_calls"] > 0
    assert metrics["model.forward_full_ms"] > 0
    assert metrics["inference.proposals_kept"] <= metrics["inference.proposals_scored"]
    # Self times plus the uncovered remainder add up to the traced wall time.
    acc = extra["accounting"]
    assert acc["self_s"]["(uncovered)"] >= 0.0
    assert acc["sum_s"] == pytest.approx(acc["wall_s"], rel=1e-9)
    assert Path(extra["trace_file"]).is_file()


def test_malformed_prediction_counts_as_failed_operation(tmp_path, monkeypatch):
    baseline, _ = run("train_small", tmp_path, trace=False)
    real = bw.pl.predict_clip
    corrupted = []

    def malformed(model, clip, infer_cfg):
        proposals = real(model, clip, infer_cfg)
        if not corrupted:  # one clip, once: a score above 1 and out of order
            corrupted.append(clip[1].id)
            bad = bw.inf.ScoredProposal(proposals[-1].segment, 1.5)
            proposals = proposals[:-1] + [bad]
        return proposals

    monkeypatch.setattr(bw.pl, "predict_clip", malformed)
    result, extra = run("train_small", tmp_path, trace=False)
    assert corrupted
    assert result["failed"] == baseline["failed"] + 1
    assert result["correct"] is False
    assert any(corrupted[0] in line for line in extra["errors"])


def test_checks_reject_out_of_range_segments():
    from avloc.data import Segment

    good = [bw.inf.ScoredProposal(Segment(0, 4), 0.9), bw.inf.ScoredProposal(Segment(2, 8), 0.5)]
    payload = bw.inf.predictions_to_json("c", good)
    assert bw.check_clip_prediction(good, payload, "c", 8, 100) == []
    assert bw.check_clip_prediction(good, payload, "c", 6, 100)  # ends past T
    assert bw.check_clip_prediction(good, payload, "d", 8, 100)  # wrong clip id
    assert bw.check_clip_prediction(good, payload, "c", 8, 1)  # more than top_k
    assert bw.check_loss_decreased([3.0, 2.0, 1.0]) == []
    assert bw.check_loss_decreased([1.0, 2.0, 3.0])


def _cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_small", "--seed", "1",
         "--seconds", "1", "--trace", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_cli_prints_one_result_line():
    proc = _cli(ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    env = json.loads(lines[-2])["env"]
    assert {"nproc", "blas", "blas_threads", "python", "numpy", "git_commit"} <= set(env)


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
