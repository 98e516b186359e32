import numpy as np
import pytest

from avloc.data import Segment
from avloc.evaluate import (
    AR_TAUS,
    average_precision,
    average_recall,
    evaluate,
    recall_at,
)
from avloc.data import interval_iou
from avloc.inference import ScoredProposal
from oracles import brute_force_ap, brute_force_pr_curve, brute_force_recall


def prop(s, e, score):
    return ScoredProposal(Segment(s, e), score)


def test_segment_iou_values():
    assert interval_iou(0, 10, 0, 10) == 1.0
    assert interval_iou(0, 10, 10, 20) == 0.0
    assert interval_iou(0, 4, 2, 6) == pytest.approx(1 / 3)


def test_perfect_predictions_score_one():
    gts = {"a": [Segment(3, 9)], "b": [Segment(0, 4), Segment(10, 16)]}
    preds = {cid: [prop(s.start, s.end, 0.9 - 0.1 * k) for k, s in enumerate(segs)]
             for cid, segs in gts.items()}
    report = evaluate(preds, gts)
    assert all(v == 1.0 for v in report.ap.values())
    assert all(v == 1.0 for v in report.ar.values())


def test_no_predictions_score_zero():
    gts = {"a": [Segment(3, 9)]}
    report = evaluate({"a": []}, gts)
    assert all(v == 0.0 for v in report.ap.values())
    assert all(v == 0.0 for v in report.ar.values())


def test_clip_id_mismatch_is_error():
    with pytest.raises(ValueError, match="unknown clip"):
        average_precision({"ghost": [prop(0, 2, 0.5)]}, {"a": [Segment(0, 2)]}, 0.5)


def test_ar_hand_example_single_partial_match():
    # IoU([10,18), [10,20)) = 0.8: recall 1 at the 7 thresholds up to 0.80.
    gts = {"a": [Segment(10, 20)]}
    preds = {"a": [prop(10, 18, 0.9)]}
    assert average_recall(preds, gts, budget=10) == pytest.approx(0.7)


MIXED_GTS = {
    "a": [Segment(10, 20), Segment(30, 40)],
    "b": [Segment(5, 15)],
}
MIXED_PREDS = {
    "a": [prop(10, 20, 0.9), prop(28, 38, 0.6)],
    "b": [prop(5, 15, 0.8), prop(40, 50, 0.7)],
}
# Hand-enumerated PR curve (pooled order 0.9 TP, 0.8 TP, 0.7 FP, 0.6 TP@0.5):
# AP@0.5  = 1/3 + 1/3 + (1/3)(3/4) = 11/12
# AP@0.75 = AP@0.95 = 2/3 (the 0.6-scored prediction fails at IoU 2/3)
# AR      = (4 * 1 + 6 * 2/3) / 10 = 0.8 at every budget >= 2
MIXED_EXPECTED_AP = {0.5: 11 / 12, 0.75: 2 / 3, 0.95: 2 / 3}


def test_mixed_fixture_matches_hand_enumeration():
    report = evaluate(MIXED_PREDS, MIXED_GTS)
    for tau, expected in MIXED_EXPECTED_AP.items():
        assert report.ap[tau] == pytest.approx(expected, abs=1e-12)
    for budget in (50, 20, 10):
        assert report.ar[budget] == pytest.approx(0.8, abs=1e-12)


def test_mixed_fixture_matches_independent_pr_oracle():
    pooled = [(cid, p.segment.start, p.segment.end, p.score)
              for cid, plist in MIXED_PREDS.items() for p in plist]
    gts = {cid: [(s.start, s.end) for s in segs] for cid, segs in MIXED_GTS.items()}
    for tau, expected in MIXED_EXPECTED_AP.items():
        precisions, recalls = brute_force_pr_curve(pooled, gts, tau)
        oracle_ap = brute_force_ap(precisions, recalls)
        assert average_precision(MIXED_PREDS, MIXED_GTS, tau) == pytest.approx(oracle_ap, abs=1e-12)
        assert oracle_ap == pytest.approx(expected, abs=1e-12)


def _random_eval_case(rng, clips=4):
    gts, preds = {}, {}
    for c in range(clips):
        cid = f"clip{c}"
        t = int(rng.integers(20, 60))
        k = int(rng.integers(0, 4))
        cuts = sorted(rng.choice(t + 1, size=2 * k, replace=False).tolist()) if k else []
        gts[cid] = [Segment(cuts[2 * i], cuts[2 * i + 1]) for i in range(k)]
        n_pred = int(rng.integers(0, 7))
        plist = []
        for _ in range(n_pred):
            if gts[cid] and rng.uniform() < 0.6:
                base = gts[cid][int(rng.integers(len(gts[cid])))]
                s = max(0, base.start + int(rng.integers(-3, 4)))
                e = min(t, base.end + int(rng.integers(-3, 4)))
                if e <= s:
                    e = s + 1
            else:
                s = int(rng.integers(0, t - 1))
                e = s + int(rng.integers(1, min(12, t - s) + 1))
            plist.append(prop(s, e, float(rng.uniform(0.01, 1))))
        preds[cid] = plist
    if not any(gts.values()):
        gts["clip0"] = [Segment(0, 5)]
    return preds, gts


def test_ap_matches_pr_oracle_on_random_datasets():
    rng = np.random.default_rng(11)
    for _ in range(25):
        preds, gts = _random_eval_case(rng)
        pooled = [(cid, p.segment.start, p.segment.end, p.score)
                  for cid, plist in preds.items() for p in plist]
        raw = {cid: [(s.start, s.end) for s in segs] for cid, segs in gts.items()}
        for tau in (0.5, 0.75, 0.95):
            precisions, recalls = brute_force_pr_curve(pooled, raw, tau)
            assert average_precision(preds, gts, tau) == pytest.approx(
                brute_force_ap(precisions, recalls), abs=1e-12
            )


def test_monotonicity_over_random_datasets():
    rng = np.random.default_rng(12)
    taus = sorted(AR_TAUS)
    for _ in range(50):
        preds, gts = _random_eval_case(rng)
        ap_values = [average_precision(preds, gts, tau) for tau in (0.5, 0.75, 0.95)]
        assert ap_values[0] >= ap_values[1] >= ap_values[2]
        recalls = [recall_at(preds, gts, tau, budget=50) for tau in taus]
        assert all(a >= b for a, b in zip(recalls, recalls[1:]))
        ar_values = [average_recall(preds, gts, b) for b in (10, 20, 50)]
        assert ar_values[0] <= ar_values[1] <= ar_values[2]


def test_clip_and_tie_order_do_not_matter():
    rng = np.random.default_rng(13)
    preds, gts = _random_eval_case(rng)
    preds["clip1"] = [prop(0, 5, 0.5), prop(8, 12, 0.5)]  # deliberate score tie
    base = evaluate(preds, gts)
    shuffled_preds = {cid: list(reversed(plist)) for cid, plist in reversed(preds.items())}
    shuffled_gts = dict(reversed(gts.items()))
    again = evaluate(shuffled_preds, shuffled_gts)
    assert base.ap == again.ap
    assert base.ar == again.ar


def test_report_serialization_roundtrip():
    report = evaluate(MIXED_PREDS, MIXED_GTS)
    obj = report.to_dict()
    assert obj["ap"]["0.5"] == pytest.approx(11 / 12)
    header, values = report.csv_row()
    assert header.split(",") == ["ap_0.5", "ap_0.75", "ap_0.95", "ar_50", "ar_20", "ar_10"]
    assert len(values.split(",")) == 6


def test_interval_iou_broadcasts_to_a_matrix():
    iou = interval_iou(np.array([[0], [2]]), np.array([[4], [6]]),
                       np.array([0, 4]), np.array([4, 8]))
    np.testing.assert_array_equal(iou, [[1.0, 0.0], [1 / 3, 1 / 3]])


def test_recall_and_per_clip_matches_oracle_on_random_datasets():
    rng = np.random.default_rng(14)
    for _ in range(25):
        preds, gts = _random_eval_case(rng, clips=int(rng.integers(1, 6)))
        raw_preds = {cid: [(p.segment.start, p.segment.end, p.score) for p in plist]
                     for cid, plist in preds.items()}
        raw_gts = {cid: [(s.start, s.end) for s in segs] for cid, segs in gts.items()}
        npos = sum(len(v) for v in raw_gts.values())
        report = evaluate(preds, gts, ar_budgets=(1, 3, 50))
        for budget in (1, 3, 50):
            matched = [brute_force_recall(raw_preds, raw_gts, tau, budget) for tau in AR_TAUS]
            want = sum(sum(m.values()) / npos for m in matched) / len(AR_TAUS)
            assert report.ar[budget] == pytest.approx(want, abs=1e-12)
        at_half = brute_force_recall(raw_preds, raw_gts, 0.5, 10**6)
        for cid in gts:
            assert report.per_clip[cid]["matched_at_0.5"] == at_half[cid]


def test_duplicate_predictions_match_once():
    gts = {"a": [Segment(0, 10)]}
    preds = {"a": [prop(0, 10, 0.8), prop(0, 10, 0.8)]}
    report = evaluate(preds, gts)
    assert report.per_clip["a"] == {"gt_count": 1, "pred_count": 2, "matched_at_0.5": 1}
    assert report.ap[0.5] == 1.0  # the first copy is the TP, so precision is 1 at recall 1
    assert recall_at(preds, gts, 0.5, budget=1) == 1.0


def test_score_ties_match_in_start_end_order():
    # Equal scores sort by start, then end: [0, 9) (IoU 0.9) comes before [0, 10).
    gts = {"a": [Segment(0, 10)]}
    preds = {"a": [prop(0, 10, 0.8), prop(0, 9, 0.8)]}
    report = evaluate(preds, gts)
    assert report.ap[0.5] == 1.0  # [0, 9) takes the ground truth first
    assert report.ap[0.95] == 0.5  # [0, 9) misses, [0, 10) matches second
    assert recall_at(preds, gts, 0.95, budget=1) == 0.0
