import contextlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avloc import pipeline
from avloc.data import DatasetFormatError, Segment, SynthConfig, generate_clip
from avloc.inference import (
    InferenceConfig,
    ScoredProposal,
    align_backward,
    fuse_bidirectional,
    predictions_from_json,
    predictions_to_json,
    score_proposals,
    soft_nms,
)
from avloc.labels import build_prob_triplet
from avloc.model import Model, ModelConfig
from oracles import (
    JSON_VALUES,
    brute_force_scores,
    brute_force_soft_nms,
    random_annotation,
    reference_soft_nms,
)

RNG = np.random.default_rng(404)


def rand_triplet(t, rng):
    """[T, 3] start / end / content, drawn column by column."""
    return rng.uniform(0, 1, (3, t)).T


# -- fusion -----------------------------------------------------------------

def test_fuse_self_is_identity():
    trip = rand_triplet(10, np.random.default_rng(1))
    mirrored = np.column_stack([trip[::-1, 1], trip[::-1, 0], trip[::-1, 2]])
    fused = fuse_bidirectional(trip, mirrored)
    np.testing.assert_allclose(fused[:, 0], trip[:, 0], atol=1e-15)
    np.testing.assert_allclose(fused[:, 1], trip[:, 1], atol=1e-15)
    np.testing.assert_allclose(fused[:, 2], trip[:, 2], atol=1e-15)


def test_fuse_geometric_mean_value():
    fwd = np.full((1, 3), 0.25)
    bwd = np.ones((1, 3))
    fused = fuse_bidirectional(fwd, bwd)
    assert fused[0, 0] == pytest.approx(0.5)


def test_fuse_zero_vetoes():
    rng = np.random.default_rng(2)
    fwd = rand_triplet(6, rng)
    fwd[3, 0] = 0.0
    bwd = rand_triplet(6, rng)
    fused = fuse_bidirectional(fwd, bwd)
    assert fused[3, 0] == 0.0
    bwd[:, 2] = 0.0
    assert np.all(fuse_bidirectional(fwd, bwd)[:, 2] == 0.0)


def test_fuse_commutes_after_alignment():
    rng = np.random.default_rng(3)
    fwd = rand_triplet(8, rng)
    bwd = rand_triplet(8, rng)
    a = fuse_bidirectional(fwd, bwd)
    aligned = align_backward(bwd)
    b_start = np.sqrt(aligned[:, 0] * fwd[:, 0])
    np.testing.assert_allclose(a[:, 0], b_start, atol=1e-15)


def test_alignment_matches_label_flip_convention():
    ann = random_annotation(np.random.default_rng(7), 16)
    fwd = build_prob_triplet(ann, 1.0, "forward")
    bwd = build_prob_triplet(ann, 1.0, "backward")
    aligned = align_backward(bwd)
    np.testing.assert_array_equal(aligned[:, 0], fwd[:, 0])
    np.testing.assert_array_equal(aligned[:, 1], fwd[:, 1])
    np.testing.assert_array_equal(aligned[:, 2], fwd[:, 2])


def test_fuse_length_mismatch():
    with pytest.raises(ValueError, match="lengths"):
        fuse_bidirectional(rand_triplet(4, RNG), rand_triplet(6, RNG))


NON_TRIPLET_SHAPES = [(6,), (6, 2), (6, 4), (3, 6), (6, 3, 1)]


@pytest.mark.parametrize("shape", NON_TRIPLET_SHAPES)
def test_fuse_rejects_non_triplet_shape(shape):
    good, bad = rand_triplet(6, RNG), np.full(shape, 0.5)
    for fwd, bwd in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match=r"fuse: expected two \(T, 3\) triplets"):
            fuse_bidirectional(fwd, bwd)


# -- proposal scoring --------------------------------------------------------

def scored(bmap, probs):
    """score_proposals rows as {(start, end): score}."""
    return {(int(s), int(e)): x for s, e, x in score_proposals(bmap, probs).tolist()}


def test_score_hand_value():
    t = 4
    bmap = np.zeros((2, t))
    bmap[1, 0] = 0.8  # candidate [0, 2)
    probs = np.column_stack([
        [0.9, 0.0, 0.0, 0.0],  # start
        [0.0, 0.9, 0.0, 0.0],  # end
        [0.6, 0.4, 0.0, 0.0],  # content
    ])
    scores = scored(bmap, probs)
    assert scores[(0, 2)] == pytest.approx(0.8 * 0.9 * 0.9 * 0.5)  # = 0.324


def test_score_zero_factor_vetoes():
    rng = np.random.default_rng(5)
    bmap = rng.uniform(0, 1, (3, 6))
    probs = rand_triplet(6, rng)
    probs[2, 0] = 0.0
    for (start, _), score in scored(bmap, probs).items():
        if start == 2:
            assert score == 0.0


def test_score_emits_all_in_range_candidates():
    max_dur, t = 5, 12
    proposals = score_proposals(np.ones((max_dur, t)), rand_triplet(t, RNG))
    assert len(proposals) == sum(t - i for i in range(max_dur))
    assert len({(s, e) for s, e, _ in proposals.tolist()}) == len(proposals)


def test_score_matches_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(20):
        t = int(rng.integers(4, 33))
        max_dur = int(rng.integers(1, 9))
        bmap = rng.uniform(0, 1, (max_dur, t))
        probs = rand_triplet(t, rng)
        got = scored(bmap, probs)
        want = brute_force_scores(bmap, probs[:, 0], probs[:, 1], probs[:, 2])
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == pytest.approx(want[key], abs=1e-12)


def test_score_rows_follow_brute_force_candidate_order():
    # Duration-major, then start: the order in which Soft-NMS breaks score ties.
    rng = np.random.default_rng(16)
    for _ in range(10):
        t = int(rng.integers(4, 33))
        max_dur = int(rng.integers(1, 40))
        bmap = rng.uniform(0, 1, (max_dur, t))
        probs = rand_triplet(t, rng)
        got = score_proposals(bmap, probs)
        want = brute_force_scores(bmap, probs[:, 0], probs[:, 1], probs[:, 2])
        assert [(s, e) for s, e, _ in got.tolist()] == list(want)
        np.testing.assert_allclose(got[:, 2], list(want.values()), rtol=0, atol=1e-12)


def test_score_and_soft_nms_return_float64_rows():
    rng = np.random.default_rng(17)
    scored_rows = score_proposals(rng.uniform(0, 1, (4, 10)), rand_triplet(10, rng))
    kept = soft_nms(scored_rows, InferenceConfig(top_k=5))
    empty = soft_nms(rows(), InferenceConfig())
    for out, n in ((scored_rows, 34), (kept, 5), (empty, 0)):
        assert out.dtype == np.float64
        assert out.shape == (n, 3)


def test_score_length_mismatch():
    with pytest.raises(ValueError, match="start positions"):
        score_proposals(np.ones((2, 5)), rand_triplet(6, RNG))


@pytest.mark.parametrize("shape", NON_TRIPLET_SHAPES)
def test_score_rejects_non_triplet_shape(shape):
    with pytest.raises(ValueError, match=r"score: expected a \(6, 3\) triplet"):
        score_proposals(np.ones((2, 6)), np.full(shape, 0.5))


# -- Soft-NMS ----------------------------------------------------------------

def rows(*proposals):
    """(start, end, score) tuples as a float64 [P, 3] array."""
    return np.array(proposals, dtype=np.float64).reshape(-1, 3)


def test_single_proposal_unchanged():
    out = soft_nms(rows((2, 6, 0.7)), InferenceConfig())
    assert out.tolist() == [[2, 6, 0.7]]


def test_disjoint_proposals_unchanged():
    out = soft_nms(rows((0, 4, 0.9), (10, 14, 0.6)), InferenceConfig())
    assert {(s, x) for s, _, x in out.tolist()} == {(0, 0.9), (10, 0.6)}


def test_identical_segments_decay():
    out = soft_nms(rows((3, 9, 0.9), (3, 9, 0.8)), InferenceConfig(sigma=0.5))
    assert out[0, 2] == 0.9
    assert out[1, 2] == pytest.approx(0.8 * np.exp(-2.0))  # ~0.10827


def test_top1_always_survives_unchanged():
    rng = np.random.default_rng(8)
    for _ in range(10):
        props = rows(*[(int(s), int(s) + int(d), float(x))
                       for s, d, x in zip(rng.integers(0, 20, 6), rng.integers(1, 8, 6),
                                          rng.uniform(0.1, 1, 6))])
        best = props[np.argmax(props[:, 2])]
        out = soft_nms(props, InferenceConfig(sigma=0.4, score_floor=1e-4, top_k=6))
        assert out[0].tolist() == best.tolist()


def test_scores_never_increase_and_segments_are_subset():
    rng = np.random.default_rng(9)
    props = rows(*[(int(s), int(s) + int(d), float(x))
                   for s, d, x in zip(rng.integers(0, 12, 8), rng.integers(1, 6, 8),
                                      rng.uniform(0.01, 1, 8))])
    originals = {}
    for s, e, score in props.tolist():
        originals[(s, e)] = max(originals.get((s, e), 0.0), score)
    out = soft_nms(props, InferenceConfig(sigma=0.3, top_k=8))
    for s, e, score in out.tolist():
        assert (s, e) in originals
        assert score <= originals[(s, e)] + 1e-12


def test_score_floor_drops_proposals():
    out = soft_nms(rows((0, 4, 0.9), (0, 4, 0.5)),
                   InferenceConfig(sigma=0.1, score_floor=1e-2))
    assert len(out) == 1


def test_top_k_limits_output():
    props = rows(*[(i * 10, i * 10 + 4, 0.5) for i in range(7)])
    assert len(soft_nms(props, InferenceConfig(top_k=3))) == 3


def test_soft_nms_matches_step_by_step_simulation():
    rng = np.random.default_rng(10)
    for trial in range(30):
        n = int(rng.integers(1, 7))
        cases = [(int(s), int(s) + int(d), float(x))
                 for s, d, x in zip(rng.integers(0, 24, n), rng.integers(1, 9, n),
                                    rng.uniform(0.005, 1, n))]
        sigma = float(rng.uniform(0.2, 0.9))
        floor = 1e-3
        top_k = int(rng.integers(1, 7))
        got = soft_nms(rows(*cases),
                       InferenceConfig(sigma=sigma, score_floor=floor, top_k=top_k))
        want = brute_force_soft_nms(cases, sigma, floor, top_k)
        assert len(got) == len(want)
        for (s, e, score), w in zip(got.tolist(), want):
            assert (s, e) == (w[0], w[1])
            assert score == pytest.approx(w[2], abs=1e-12)


def test_soft_nms_ties_go_to_the_earliest_caller_row():
    # the later-starting row comes first in the caller's order, so it is picked first
    out = soft_nms(rows((10, 14, 0.5), (0, 4, 0.5), (3, 12, 0.5)), InferenceConfig(top_k=1))
    assert out.tolist() == [[10, 14, 0.5]]


def tied_grid(t, max_duration, seed, rounded):
    """A score_proposals grid with its rows shuffled and half of them
    duplicated; `rounded` rounds the scores to 0.1 so that many tie."""
    rng = np.random.default_rng(seed)
    grid = score_proposals(rng.uniform(0, 1, (max_duration, t)), rand_triplet(t, rng) ** 0.25)
    grid = np.concatenate([grid, grid[rng.permutation(len(grid))[:len(grid) // 2]]])
    if rounded:
        grid[:, 2] = np.round(grid[:, 2], 1)
    return grid[rng.permutation(len(grid))]


@pytest.mark.parametrize("rounded", [True, False])
@pytest.mark.parametrize("floor", [0.0, 1e-4, 1e-2, 0.1])
@pytest.mark.parametrize("sigma", [0.001, 0.1, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("t,max_duration", [(128, 40), (64, 12)])
def test_soft_nms_bytes_match_all_rows_reference(t, max_duration, sigma, floor, rounded):
    rng = np.random.default_rng([t, int(1000 * sigma), int(1e4 * floor), rounded])
    grid = tied_grid(t, max_duration, int(rng.integers(1 << 30)), rounded)
    for top_k in (1, int(rng.integers(2, 150)), 150):
        cfg = InferenceConfig(sigma=sigma, score_floor=floor, top_k=top_k)
        got, want = soft_nms(grid, cfg), reference_soft_nms(grid, cfg)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("proposals", [
    rows(),
    rows((3, 9, 0.4)),
    rows((3, 9, 1e-5), (0, 4, np.nan), (2, 5, 0.0), (1, 8, 5e-5)),
], ids=["empty", "one_row", "all_below_floor"])
def test_soft_nms_edge_cases_match_all_rows_reference(proposals):
    cfg = InferenceConfig()
    got, want = soft_nms(proposals, cfg), reference_soft_nms(proposals, cfg)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def edge_grid(seed, scores):
    """A shuffled score_proposals grid at T=64, L=12. scores="signed" sets
    an eighth of the scores each to a negative value, NaN, -0.0 and 0.0;
    scores="equal" sets every score to 0.5."""
    rng = np.random.default_rng(seed)
    grid = tied_grid(64, 12, seed, rounded=False)
    if scores == "equal":
        grid[:, 2] = 0.5
    else:
        parts = np.array_split(rng.permutation(len(grid)), 8)
        grid[parts[0], 2] *= -1.0
        grid[parts[1], 2] = np.nan
        grid[parts[2], 2] = -0.0
        grid[parts[3], 2] = 0.0
    return grid


@pytest.mark.parametrize("scores", ["signed", "equal"])
@pytest.mark.parametrize("sigma,floor", [(0.001, 0.0), (0.001, 1e-4), (0.5, 0.0), (1.0, 1e-4)])
def test_soft_nms_score_edge_cases_match_all_rows_reference(scores, sigma, floor):
    # floor 0 with sigma 0.001: a near-duplicate's factor underflows to 0.0, and
    # 0.0 (or -0.0) stays at the floor, so such rows remain pickable
    for seed in range(3):
        grid = edge_grid(seed, scores)
        for top_k in (1, 40, 500):
            cfg = InferenceConfig(sigma=sigma, score_floor=floor, top_k=top_k)
            got, want = soft_nms(grid, cfg), reference_soft_nms(grid, cfg)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_inference_config_validation():
    with pytest.raises(ValueError, match="sigma"):
        InferenceConfig(sigma=0.0)
    with pytest.raises(ValueError, match="top_k"):
        InferenceConfig(top_k=0)


# -- predict_clip ----------------------------------------------------------------

@pytest.mark.parametrize("fusion", ["both", "forward"])
def test_predict_clip_records_no_graph_and_keeps_its_bytes(monkeypatch, fusion):
    model = Model(ModelConfig(), seed=5)
    clip = generate_clip(SynthConfig(), np.random.default_rng(5), "c")
    outputs = []
    forward_full = model.forward_full
    monkeypatch.setattr(model, "forward_full", lambda s: outputs.append(forward_full(s)) or outputs[-1])
    graph_free = pipeline.predict_clip(model, clip, InferenceConfig(), fusion)
    monkeypatch.setattr(pipeline, "no_grad", contextlib.nullcontext)
    tracked = pipeline.predict_clip(model, clip, InferenceConfig(), fusion)
    untracked_out, tracked_out = outputs
    for name in ("boundary_map", "probs"):
        assert getattr(untracked_out, name)._parents == ()
        assert getattr(tracked_out, name)._parents
        assert getattr(untracked_out, name).data.tobytes() == getattr(tracked_out, name).data.tobytes()
    assert len(graph_free) == 100
    assert [(p.segment, p.score.hex()) for p in graph_free] == \
        [(p.segment, p.score.hex()) for p in tracked]


# -- predictions file ----------------------------------------------------------

def test_predictions_json_roundtrip():
    props = [ScoredProposal(Segment(2, 8), 0.5), ScoredProposal(Segment(0, 4), 0.9)]
    payload = json.loads(json.dumps([predictions_to_json("c", props), {"id": "d", "proposals": []}]))
    assert payload[0]["proposals"] == [[0, 4, 0.9], [2, 8, 0.5]]
    assert predictions_from_json(payload, "p.json") == {"c": props[::-1], "d": []}


def record(*rows, clip_id="a"):
    return {"id": clip_id, "proposals": [list(r) for r in rows]}


@pytest.mark.parametrize("raw, message", [
    (5, "p.json: expected a JSON array"),
    ({"id": "a", "proposals": []}, "p.json: expected a JSON array"),
    ([record(), 5], "p.json: record 1: expected a JSON object"),
    ([{"id": ["x"], "proposals": []}], "p.json: record 0: 'id' must be a string"),
    ([{"proposals": []}], "p.json: record 0: 'id' must be a string"),
    ([record((0, 4, 0.5)), record()], "p.json: record 1: duplicate id 'a'"),
    ([{"id": "a", "proposals": {}}], "p.json: record 0: 'proposals' must be a JSON array"),
    ([record((0, 4))], r"record 0: proposals\[0\]: expected \[start, end, score\]"),
    ([record((0, 4, 0.5), (0, 4, 0.5, 1))], r"record 0: proposals\[1\]: expected"),
    ([record((0, 4, float("nan")))], r"proposals\[0\] score: expected a finite number"),
    ([record((0, 4, float("inf")))], "score: expected a finite number"),
    ([record((0, 4, "0.5"))], "score: expected a finite number"),
    ([record((0, 4, True))], "score: expected a finite number"),
    ([record((0, 4, 10**400))], "score: expected a finite number"),
    ([record((True, 4, 0.5))], "integer frames"),
    ([record((0.7, 4, 0.5))], "integer frames"),
    ([record((0, 4.0, 0.5))], "integer frames"),
    ([record((4, 4, 0.5))], "integer frames"),
    ([record((-1, 4, 0.5))], "integer frames"),
], ids=[
    "root-int", "root-object", "record-not-object", "id-list",
    "id-missing", "duplicate-id", "proposals-object", "row-short",
    "row-long", "score-nan", "score-inf", "score-string",
    "score-bool", "score-huge-int", "start-bool", "start-fraction",
    "end-float", "empty-segment", "negative-start",
])
def test_predictions_reader_rejects_malformed_records(raw, message):
    with pytest.raises(DatasetFormatError, match=message):
        predictions_from_json(raw, "p.json")


# Near-valid payloads, so that the row checks are reached as well.
RECORDS = st.lists(
    st.fixed_dictionaries({
        "id": st.sampled_from(["a", "b"]) | JSON_VALUES,
        "proposals": st.lists(
            st.lists(st.integers(-1, 6) | st.floats(-1, 2) | JSON_VALUES,
                     min_size=2, max_size=4),
            max_size=3,
        ) | JSON_VALUES,
    }),
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(raw=JSON_VALUES | RECORDS)
def test_predictions_reader_raises_only_dataset_format_error(raw):
    try:
        preds = predictions_from_json(raw, "p.json")
    except DatasetFormatError:
        return
    for plist in preds.values():
        for p in plist:
            assert type(p.segment.start) is int and type(p.segment.end) is int
            assert type(p.score) is float and math.isfinite(p.score)
