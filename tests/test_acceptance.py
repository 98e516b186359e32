"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Criterion 6 trains a real model end to end through the CLI and dominates
the runtime of the suite (a few minutes); everything else is seconds.
"""

import json
import time

import numpy as np
import pytest

from avloc.cli import main as cli
from avloc.data import Segment
from avloc.evaluate import average_precision, average_recall, evaluate, recall_at
from avloc.inference import (
    InferenceConfig,
    ScoredProposal,
    fuse_bidirectional,
    score_proposals,
    soft_nms,
)
from avloc.labels import build_boundary_map, build_prob_triplet
from oracles import (
    brute_force_ap,
    brute_force_boundary_map,
    brute_force_pr_curve,
    brute_force_scores,
    brute_force_soft_nms,
    brute_force_triplet,
    random_annotation,
)

GRAD_TOL = 1e-4
ORACLE_TOL = 1e-12


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# -- criterion 1: gradient fidelity ------------------------------------------

def test_criterion_1_gradient_fidelity(tmp_path):
    out = tmp_path / "gradcheck.json"
    t0 = time.monotonic()
    code = cli(["gradcheck", "--out", str(out)])  # tiny config: T=16, C=4, L=4, N=4
    elapsed = time.monotonic() - t0
    report = json.loads(out.read_text())
    groups = {(row["loss"], row["group"]) for row in report["errors"]}
    ok = (
        code == 0
        and report["passed"]
        and report["max_error"] <= GRAD_TOL
        and len({g for _, g in groups}) == 8
        and len({l for l, _ in groups}) == 4
        and elapsed < 60.0
    )
    _report(
        "criterion-1",
        ok,
        f"gradcheck exit {code}, max relative error {report['max_error']:.3e} over "
        f"{len(groups)} (loss, parameter-group) pairs, {elapsed:.1f}s",
    )


# -- criterion 2: label oracles ----------------------------------------------

def test_criterion_2_label_oracles():
    rng = np.random.default_rng(2)
    worst = 0.0
    for k in range(200):
        t = int(rng.integers(8, 33))
        max_dur = int(rng.integers(1, 9))
        d_f = float(rng.choice([0.5, 1.0, 2.0]))
        ann = random_annotation(rng, t, clip_id=f"c{k}")
        got_map = build_boundary_map(ann, max_dur)
        want_map = brute_force_boundary_map(ann, max_dur)
        worst = max(worst, float(np.abs(got_map - want_map).max()))
        for direction in ("forward", "backward"):
            trip = build_prob_triplet(ann, d_f, direction)
            start, end, content = brute_force_triplet(ann, d_f, direction)
            worst = max(
                worst,
                float(np.abs(trip[:, 0] - start).max()),
                float(np.abs(trip[:, 1] - end).max()),
                float(np.abs(trip[:, 2] - content).max()),
            )
    _report(
        "criterion-2",
        worst <= ORACLE_TOL,
        f"200 random annotations, max |impl - oracle| = {worst:.3e}",
    )


# -- criterion 3: flip consistency -------------------------------------------

def test_criterion_3_flip_consistency():
    rng = np.random.default_rng(3)
    exact = True
    for k in range(100):
        t = int(rng.integers(8, 65))
        d_f = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
        ann = random_annotation(rng, t, clip_id=f"f{k}")
        fwd = build_prob_triplet(ann, d_f, "forward")
        bwd = build_prob_triplet(ann, d_f, "backward")
        exact = exact and np.array_equal(bwd[:, 0], fwd[:, 1][::-1]) \
            and np.array_equal(bwd[:, 1], fwd[:, 0][::-1]) \
            and np.array_equal(bwd[:, 2], fwd[:, 2][::-1])
    _report(
        "criterion-3",
        exact,
        "100 random annotations: backward triplet == reversed, start/end-swapped forward",
    )


# -- criterion 4: inference oracles ------------------------------------------

def test_criterion_4_inference_oracles():
    rng = np.random.default_rng(4)
    ok = True
    detail = []

    worst = 0.0
    for _ in range(40):
        t = int(rng.integers(4, 33))
        max_dur = int(rng.integers(1, 9))
        bmap = rng.uniform(0, 1, (max_dur, t))
        probs = rng.uniform(0, 1, (3, t)).T
        got = {(int(s), int(e)): x for s, e, x in score_proposals(bmap, probs).tolist()}
        want = brute_force_scores(bmap, probs[:, 0], probs[:, 1], probs[:, 2])
        ok = ok and got.keys() == want.keys()
        worst = max(worst, max(abs(got[k] - want[k]) for k in want))
    ok = ok and worst <= 1e-9
    detail.append(f"scoring max |diff| {worst:.2e}")

    nms_ok = True
    for _ in range(40):
        n = int(rng.integers(1, 7))
        rows = [(int(s), int(s) + int(d), float(x))
                for s, d, x in zip(rng.integers(0, 24, n), rng.integers(1, 9, n),
                                   rng.uniform(0.005, 1, n))]
        sigma, floor, top_k = float(rng.uniform(0.2, 0.9)), 1e-3, int(rng.integers(1, 7))
        got = soft_nms(np.array(rows, dtype=np.float64),
                       InferenceConfig(sigma=sigma, score_floor=floor, top_k=top_k))
        want = brute_force_soft_nms(rows, sigma, floor, top_k)
        nms_ok = nms_ok and len(got) == len(want) and all(
            (s, e) == (w[0], w[1]) and abs(x - w[2]) <= 1e-12
            for (s, e, x), w in zip(got.tolist(), want)
        )
    ok = ok and nms_ok
    detail.append("soft-nms == step-by-step simulation (<=6 proposals)")

    trip = rng.uniform(0, 1, (3, 16)).T
    mirror = np.column_stack([trip[::-1, 1], trip[::-1, 0], trip[::-1, 2]])
    fused = fuse_bidirectional(trip, mirror)
    idem = (np.allclose(fused[:, 0], trip[:, 0], atol=1e-15)
            and np.allclose(fused[:, 1], trip[:, 1], atol=1e-15)
            and np.allclose(fused[:, 2], trip[:, 2], atol=1e-15))
    vetoed = np.zeros((16, 3))
    veto = not np.any(fuse_bidirectional(trip, vetoed)[:, 0])
    ok = ok and idem and veto
    detail.append("fusion sqrt(p*p)=p and zero-veto hold")
    _report("criterion-4", ok, "; ".join(detail))


# -- criterion 5: metric oracles ----------------------------------------------

def test_criterion_5_metric_oracles():
    perfect_gts = {"a": [Segment(3, 9)], "b": [Segment(0, 4), Segment(10, 16)]}
    perfect_preds = {cid: [ScoredProposal(s, 0.9) for s in segs]
                     for cid, segs in perfect_gts.items()}
    perfect = evaluate(perfect_preds, perfect_gts)
    ok = all(v == 1.0 for v in perfect.ap.values()) and \
        all(v == 1.0 for v in perfect.ar.values())

    empty = evaluate({"a": []}, {"a": [Segment(3, 9)]})
    ok = ok and all(v == 0.0 for v in empty.ap.values()) and \
        all(v == 0.0 for v in empty.ar.values())

    mixed_gts = {"a": [Segment(10, 20), Segment(30, 40)], "b": [Segment(5, 15)]}
    mixed_preds = {
        "a": [ScoredProposal(Segment(10, 20), 0.9), ScoredProposal(Segment(28, 38), 0.6)],
        "b": [ScoredProposal(Segment(5, 15), 0.8), ScoredProposal(Segment(40, 50), 0.7)],
    }
    expected = {0.5: 11 / 12, 0.75: 2 / 3, 0.95: 2 / 3}
    mixed = evaluate(mixed_preds, mixed_gts)
    pooled = [(cid, p.segment.start, p.segment.end, p.score)
              for cid, plist in mixed_preds.items() for p in plist]
    raw_gts = {cid: [(s.start, s.end) for s in segs] for cid, segs in mixed_gts.items()}
    for tau, value in expected.items():
        oracle = brute_force_ap(*brute_force_pr_curve(pooled, raw_gts, tau))
        ok = ok and abs(mixed.ap[tau] - value) <= 1e-12 and abs(oracle - value) <= 1e-12
    ok = ok and all(abs(mixed.ar[n] - 0.8) <= 1e-12 for n in (50, 20, 10))

    rng = np.random.default_rng(5)
    mono = True
    for _ in range(50):
        gts, preds = {}, {}
        for c in range(4):
            cid = f"c{c}"
            t = int(rng.integers(20, 60))
            k = int(rng.integers(0, 4))
            cuts = sorted(rng.choice(t + 1, size=2 * k, replace=False).tolist()) if k else []
            gts[cid] = [Segment(cuts[2 * i], cuts[2 * i + 1]) for i in range(k)]
            preds[cid] = []
            for _ in range(int(rng.integers(0, 7))):
                s = int(rng.integers(0, t - 1))
                e = s + int(rng.integers(1, min(12, t - s) + 1))
                preds[cid].append(ScoredProposal(Segment(s, e), float(rng.uniform())))
        if not any(gts.values()):
            gts["c0"] = [Segment(0, 5)]
        aps = [average_precision(preds, gts, tau) for tau in (0.5, 0.75, 0.95)]
        mono = mono and aps[0] >= aps[1] >= aps[2]
        recalls = [recall_at(preds, gts, round(0.5 + 0.05 * i, 2), 50) for i in range(10)]
        mono = mono and all(a >= b for a, b in zip(recalls, recalls[1:]))
        ars = [average_recall(preds, gts, b) for b in (10, 20, 50)]
        mono = mono and ars[0] <= ars[1] <= ars[2]
    ok = ok and mono
    _report(
        "criterion-5",
        ok,
        "perfect/empty/mixed fixtures match hand enumeration and the PR oracle; "
        "AP/AR monotone in tau/budget on 50 random datasets",
    )


# -- criteria 6 and 7: end-to-end learning and direction ablation -------------

# Default toy config end to end: T=128, delta=1.5, 200/25/50 clips, seed 42.
MAIN_CONFIG = {"seed": 42}


def _run(argv):
    code = cli(argv)
    assert code == 0, f"CLI failed ({code}): {' '.join(argv)}"


@pytest.fixture(scope="module")
def trained_pipeline(tmp_path_factory):
    work = tmp_path_factory.mktemp("endtoend")
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(MAIN_CONFIG))
    t0 = time.monotonic()
    _run(["synth", "--config", str(cfg_path), "--out", str(work / "data")])
    _run(["train", "--config", str(cfg_path), "--data", str(work / "data"),
          "--out", str(work / "model.ckpt")])
    _run(["infer", "--config", str(cfg_path), "--checkpoint", str(work / "model.ckpt"),
          "--data", str(work / "data" / "test"), "--out", str(work / "preds.json")])
    _run(["eval", "--pred", str(work / "preds.json"), "--data", str(work / "data" / "test"),
          "--out", str(work / "report.json")])
    elapsed = time.monotonic() - t0
    report = json.loads((work / "report.json").read_text())
    return work, cfg_path, report, elapsed


def test_criterion_6_end_to_end_learning(trained_pipeline, tmp_path):
    work, cfg_path, report, elapsed = trained_pipeline
    ap05 = report["ap"]["0.5"]
    ar10 = report["ar"]["10"]

    # No-signal control: same pipeline with delta = 0; a few epochs suffice
    # to demonstrate that there is nothing to learn.
    control_cfg = dict(MAIN_CONFIG)
    control_cfg["synth"] = {"delta": 0.0}
    control_cfg["optim"] = {"epochs": 3}
    ctrl = tmp_path / "control"
    ctrl.mkdir()
    ctrl_cfg_path = ctrl / "config.json"
    ctrl_cfg_path.write_text(json.dumps(control_cfg))
    t0 = time.monotonic()
    _run(["synth", "--config", str(ctrl_cfg_path), "--out", str(ctrl / "data")])
    _run(["train", "--config", str(ctrl_cfg_path), "--data", str(ctrl / "data"),
          "--out", str(ctrl / "model.ckpt")])
    _run(["infer", "--config", str(ctrl_cfg_path), "--checkpoint", str(ctrl / "model.ckpt"),
          "--data", str(ctrl / "data" / "test"), "--out", str(ctrl / "preds.json")])
    _run(["eval", "--pred", str(ctrl / "preds.json"), "--data", str(ctrl / "data" / "test"),
          "--out", str(ctrl / "report.json")])
    control_elapsed = time.monotonic() - t0
    control_ap = json.loads((ctrl / "report.json").read_text())["ap"]["0.5"]

    total = elapsed + control_elapsed
    ok = ap05 >= 0.90 and ar10 >= 0.85 and control_ap <= 0.20 and total < 600.0
    _report(
        "criterion-6",
        ok,
        f"AP@0.5 = {ap05:.4f} (>= 0.90), AR@10 = {ar10:.4f} (>= 0.85), "
        f"delta=0 control AP@0.5 = {control_ap:.4f} (<= 0.20), "
        f"runtime {total:.0f}s (< 600s)",
    )


def test_criterion_7_bidirectional_ablation(trained_pipeline):
    work, cfg_path, report, _ = trained_pipeline
    _run(["infer", "--config", str(cfg_path), "--checkpoint", str(work / "model.ckpt"),
          "--data", str(work / "data" / "test"), "--out", str(work / "preds_fwd.json"),
          "--fusion", "forward"])
    _run(["eval", "--pred", str(work / "preds_fwd.json"),
          "--data", str(work / "data" / "test"), "--out", str(work / "report_fwd.json")])
    fwd_report = json.loads((work / "report_fwd.json").read_text())
    fused_ap = report["ap"]["0.75"]
    forward_ap = fwd_report["ap"]["0.75"]
    row = (
        "mode_pair,ap_0.75_fused,ap_0.75_forward,delta\n"
        f"fused_vs_forward,{fused_ap!r},{forward_ap!r},{fused_ap - forward_ap!r}\n"
    )
    (work / "direction_ablation.csv").write_text(row)
    print("\n" + row.strip())
    _report(
        "criterion-7",
        fused_ap >= forward_ap - 0.01,
        f"AP@0.75 fused {fused_ap:.4f} vs forward-only {forward_ap:.4f} "
        f"(non-regression bound -0.01)",
    )


# -- criterion 8: determinism --------------------------------------------------

SMALL_CONFIG = {
    "seed": 11,
    "model": {"num_frames": 64, "d_audio": 8, "d_visual": 8, "channels": 8,
              "max_duration": 12, "num_samples": 4},
    "synth": {"train_clips": 10, "val_clips": 3, "test_clips": 4,
              "num_frames": 64, "d_audio": 8, "d_visual": 8,
              "min_segments": 1, "max_segments": 2, "min_len": 6, "max_len": 16},
    "optim": {"learning_rate": 0.02, "epochs": 2, "batch_size": 4, "optimizer": "adam"},
}


def test_criterion_8_pipeline_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(SMALL_CONFIG))
    digests = []
    for name in ("run1", "run2"):
        work = tmp_path / name
        work.mkdir()
        _run(["synth", "--config", str(cfg_path), "--out", str(work / "data")])
        _run(["train", "--config", str(cfg_path), "--data", str(work / "data"),
              "--out", str(work / "model.ckpt"), "--log", str(work / "loss.csv")])
        _run(["infer", "--config", str(cfg_path), "--checkpoint", str(work / "model.ckpt"),
              "--data", str(work / "data" / "test"), "--out", str(work / "preds.json")])
        _run(["eval", "--pred", str(work / "preds.json"),
              "--data", str(work / "data" / "test"), "--out", str(work / "report.json")])
        digests.append({
            rel: (work / rel).read_bytes()
            for rel in ("model.ckpt", "loss.csv", "preds.json", "report.json",
                        "data/train/annotations.json")
        })
    same = {rel for rel in digests[0] if digests[0][rel] == digests[1][rel]}
    ok = same == set(digests[0])
    _report(
        "criterion-8",
        ok,
        "two seeded pipeline runs produced byte-identical checkpoint, loss log, "
        "predictions, eval report, and dataset",
    )
