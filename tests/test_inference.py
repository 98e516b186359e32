import numpy as np
import pytest

from avloc.data import Segment
from avloc.inference import (
    InferenceConfig,
    ScoredProposal,
    align_backward,
    fuse_bidirectional,
    score_proposals,
    soft_nms,
)
from avloc.labels import ProbTriplet, build_prob_triplet
from oracles import brute_force_scores, brute_force_soft_nms, random_annotation

RNG = np.random.default_rng(404)


def rand_triplet(t, rng):
    return ProbTriplet(
        start=rng.uniform(0, 1, t), end=rng.uniform(0, 1, t),
        content=rng.uniform(0, 1, t),
    )


# -- fusion -----------------------------------------------------------------

def test_fuse_self_is_identity():
    trip = rand_triplet(10, np.random.default_rng(1))
    mirrored = ProbTriplet(
        start=trip.end[::-1].copy(), end=trip.start[::-1].copy(),
        content=trip.content[::-1].copy(),
    )
    fused = fuse_bidirectional(trip, mirrored)
    np.testing.assert_allclose(fused.start, trip.start, atol=1e-15)
    np.testing.assert_allclose(fused.end, trip.end, atol=1e-15)
    np.testing.assert_allclose(fused.content, trip.content, atol=1e-15)


def test_fuse_geometric_mean_value():
    fwd = ProbTriplet(start=np.array([0.25]), end=np.array([0.25]), content=np.array([0.25]))
    bwd = ProbTriplet(start=np.array([1.0]), end=np.array([1.0]), content=np.array([1.0]))
    fused = fuse_bidirectional(fwd, bwd)
    assert fused.start[0] == pytest.approx(0.5)


def test_fuse_zero_vetoes():
    rng = np.random.default_rng(2)
    fwd = rand_triplet(6, rng)
    fwd.start[3] = 0.0
    bwd = rand_triplet(6, rng)
    fused = fuse_bidirectional(fwd, bwd)
    assert fused.start[3] == 0.0
    bwd.content[:] = 0.0
    assert np.all(fuse_bidirectional(fwd, bwd).content == 0.0)


def test_fuse_commutes_after_alignment():
    rng = np.random.default_rng(3)
    fwd = rand_triplet(8, rng)
    bwd = rand_triplet(8, rng)
    a = fuse_bidirectional(fwd, bwd)
    aligned = align_backward(bwd)
    b_start = np.sqrt(aligned.start * fwd.start)
    np.testing.assert_allclose(a.start, b_start, atol=1e-15)


def test_alignment_matches_label_flip_convention():
    ann = random_annotation(np.random.default_rng(7), 16)
    fwd = build_prob_triplet(ann, 1.0, "forward")
    bwd = build_prob_triplet(ann, 1.0, "backward")
    aligned = align_backward(bwd)
    np.testing.assert_array_equal(aligned.start, fwd.start)
    np.testing.assert_array_equal(aligned.end, fwd.end)
    np.testing.assert_array_equal(aligned.content, fwd.content)


def test_fuse_length_mismatch():
    with pytest.raises(ValueError, match="lengths"):
        fuse_bidirectional(rand_triplet(4, RNG), rand_triplet(6, RNG))


# -- proposal scoring --------------------------------------------------------

def test_score_hand_value():
    t = 4
    bmap = np.zeros((2, t))
    bmap[1, 0] = 0.8  # candidate [0, 2)
    probs = ProbTriplet(
        start=np.array([0.9, 0.0, 0.0, 0.0]),
        end=np.array([0.0, 0.9, 0.0, 0.0]),
        content=np.array([0.6, 0.4, 0.0, 0.0]),
    )
    scores = {(p.segment.start, p.segment.end): p.score for p in score_proposals(bmap, probs)}
    assert scores[(0, 2)] == pytest.approx(0.8 * 0.9 * 0.9 * 0.5)  # = 0.324


def test_score_zero_factor_vetoes():
    rng = np.random.default_rng(5)
    bmap = rng.uniform(0, 1, (3, 6))
    probs = rand_triplet(6, rng)
    probs.start[2] = 0.0
    for p in score_proposals(bmap, probs):
        if p.segment.start == 2:
            assert p.score == 0.0


def test_score_emits_all_in_range_candidates():
    max_dur, t = 5, 12
    proposals = score_proposals(np.ones((max_dur, t)), rand_triplet(t, RNG))
    assert len(proposals) == sum(t - i for i in range(max_dur))
    assert len({(p.segment.start, p.segment.end) for p in proposals}) == len(proposals)


def test_score_matches_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(20):
        t = int(rng.integers(4, 33))
        max_dur = int(rng.integers(1, 9))
        bmap = rng.uniform(0, 1, (max_dur, t))
        probs = rand_triplet(t, rng)
        got = {(p.segment.start, p.segment.end): p.score
               for p in score_proposals(bmap, probs)}
        want = brute_force_scores(bmap, probs.start, probs.end, probs.content)
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == pytest.approx(want[key], abs=1e-12)


def test_score_length_mismatch():
    with pytest.raises(ValueError, match="start positions"):
        score_proposals(np.ones((2, 5)), rand_triplet(6, RNG))


# -- Soft-NMS ----------------------------------------------------------------

def prop(s, e, score):
    return ScoredProposal(Segment(s, e), score)


def test_single_proposal_unchanged():
    out = soft_nms([prop(2, 6, 0.7)], InferenceConfig())
    assert out == [prop(2, 6, 0.7)]


def test_disjoint_proposals_unchanged():
    out = soft_nms([prop(0, 4, 0.9), prop(10, 14, 0.6)], InferenceConfig())
    assert {(p.segment.start, p.score) for p in out} == {(0, 0.9), (10, 0.6)}


def test_identical_segments_decay():
    out = soft_nms([prop(3, 9, 0.9), prop(3, 9, 0.8)], InferenceConfig(sigma=0.5))
    assert out[0].score == 0.9
    assert out[1].score == pytest.approx(0.8 * np.exp(-2.0))  # ~0.10827


def test_top1_always_survives_unchanged():
    rng = np.random.default_rng(8)
    for _ in range(10):
        props = [prop(int(s), int(s) + int(d), float(x))
                 for s, d, x in zip(rng.integers(0, 20, 6), rng.integers(1, 8, 6),
                                    rng.uniform(0.1, 1, 6))]
        best = max(props, key=lambda p: p.score)
        out = soft_nms(props, InferenceConfig(sigma=0.4, score_floor=1e-4, top_k=6))
        assert out[0] == best


def test_scores_never_increase_and_segments_are_subset():
    rng = np.random.default_rng(9)
    props = [prop(int(s), int(s) + int(d), float(x))
             for s, d, x in zip(rng.integers(0, 12, 8), rng.integers(1, 6, 8),
                                rng.uniform(0.01, 1, 8))]
    originals = {}
    for p in props:
        key = (p.segment.start, p.segment.end)
        originals[key] = max(originals.get(key, 0.0), p.score)
    out = soft_nms(props, InferenceConfig(sigma=0.3, top_k=8))
    for p in out:
        key = (p.segment.start, p.segment.end)
        assert key in originals
        assert p.score <= originals[key] + 1e-12


def test_score_floor_drops_proposals():
    out = soft_nms([prop(0, 4, 0.9), prop(0, 4, 0.5)],
                   InferenceConfig(sigma=0.1, score_floor=1e-2))
    assert len(out) == 1


def test_top_k_limits_output():
    props = [prop(i * 10, i * 10 + 4, 0.5) for i in range(7)]
    assert len(soft_nms(props, InferenceConfig(top_k=3))) == 3


def test_soft_nms_matches_step_by_step_simulation():
    rng = np.random.default_rng(10)
    for trial in range(30):
        n = int(rng.integers(1, 7))
        rows = [(int(s), int(s) + int(d), float(x))
                for s, d, x in zip(rng.integers(0, 24, n), rng.integers(1, 9, n),
                                   rng.uniform(0.005, 1, n))]
        sigma = float(rng.uniform(0.2, 0.9))
        floor = 1e-3
        top_k = int(rng.integers(1, 7))
        got = soft_nms([prop(*r) for r in rows],
                       InferenceConfig(sigma=sigma, score_floor=floor, top_k=top_k))
        want = brute_force_soft_nms(rows, sigma, floor, top_k)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.segment.start, g.segment.end) == (w[0], w[1])
            assert g.score == pytest.approx(w[2], abs=1e-12)


def test_inference_config_validation():
    with pytest.raises(ValueError, match="sigma"):
        InferenceConfig(sigma=0.0)
    with pytest.raises(ValueError, match="top_k"):
        InferenceConfig(top_k=0)
