import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avloc.data import Segment, StreamAnnotation
from avloc.labels import (
    build_boundary_map,
    build_frame_labels,
    build_prob_triplet,
    in_range_mask,
    merge_segments,
)
from oracles import brute_force_boundary_map, brute_force_triplet, random_annotation


def ann(t, audio=(), visual=(), clip_id="t"):
    return StreamAnnotation(
        id=clip_id,
        num_frames=t,
        audio_fake=[Segment(*s) for s in audio],
        visual_fake=[Segment(*s) for s in visual],
    )


# -- frame labels -----------------------------------------------------------

def test_no_fakes_all_zero():
    np.testing.assert_array_equal(build_frame_labels(ann(8)), np.zeros(8))


def test_union_of_modalities():
    labels = build_frame_labels(ann(10, audio=[(2, 5)], visual=[(4, 7)]))
    np.testing.assert_array_equal(labels, [0, 0, 1, 1, 1, 1, 1, 0, 0, 0])


def test_full_clip_fake():
    np.testing.assert_array_equal(build_frame_labels(ann(6, audio=[(0, 6)])), np.ones(6))


def test_merge_coalesces_touching_segments():
    merged = merge_segments(ann(12, audio=[(2, 4)], visual=[(4, 6)]))
    assert merged == [Segment(2, 6)]


# -- boundary map -----------------------------------------------------------

def test_boundary_map_empty():
    np.testing.assert_array_equal(build_boundary_map(ann(8), 4), np.zeros((4, 8)))


def test_boundary_map_exact_overlap_is_one():
    bm = build_boundary_map(ann(10, audio=[(2, 6)]), 6)
    assert bm[3, 2] == 1.0  # duration index 3 = 4 frames starting at 2


def test_boundary_map_partial_overlap_value():
    bm = build_boundary_map(ann(10, audio=[(2, 6)]), 6)
    assert bm[3, 0] == pytest.approx(2.0 / 6.0)  # [0,4) vs [2,6)


def test_out_of_range_cells_are_zero():
    bm = build_boundary_map(ann(6, audio=[(0, 6)]), 6)
    mask = in_range_mask(6, 6)
    assert np.all(bm[~mask] == 0.0)
    assert mask.sum() == sum(6 - i for i in range(6))


def test_boundary_map_diagonal_consistency():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = random_annotation(rng, 24)
        bm = build_boundary_map(a, 8)
        for seg in merge_segments(a):
            if seg.length <= 8:
                assert bm[seg.length - 1, seg.start] == 1.0


def test_boundary_map_order_invariance():
    a = ann(20, audio=[(2, 5), (9, 12)], visual=[(14, 17)])
    b = StreamAnnotation(id="t", num_frames=20,
                         audio_fake=[Segment(2, 5), Segment(9, 12)],
                         visual_fake=[Segment(14, 17)])
    np.testing.assert_array_equal(
        build_boundary_map(a, 6), build_boundary_map(b, 6)
    )


def test_boundary_map_matches_brute_force():
    rng = np.random.default_rng(77)
    for _ in range(50):
        t = int(rng.integers(8, 33))
        max_dur = int(rng.integers(1, 9))
        a = random_annotation(rng, t)
        got = build_boundary_map(a, max_dur)
        want = brute_force_boundary_map(a, max_dur)
        np.testing.assert_allclose(got, want, atol=1e-12)


# -- probability triplets ---------------------------------------------------

def test_triplet_empty_is_zero():
    trip = build_prob_triplet(ann(8))
    for seq in trip.T:
        np.testing.assert_array_equal(seq, np.zeros(8))


def test_triplet_single_segment_default_interval():
    # Segment [3, 7): first fake frame 3, last fake frame 6.
    trip = build_prob_triplet(ann(10, audio=[(3, 7)]), d_f=1.0)
    np.testing.assert_array_equal(trip[:, 0], [0, 0, 0, 1, 0, 0, 0, 0, 0, 0])
    np.testing.assert_array_equal(trip[:, 1], [0, 0, 0, 0, 0, 0, 1, 0, 0, 0])
    np.testing.assert_array_equal(trip[:, 2], [0, 0, 0, 1, 1, 1, 1, 0, 0, 0])
    assert trip[4, 0] == 0.0


def test_triplet_wider_interval_spreads_boundaries():
    trip = build_prob_triplet(ann(10, audio=[(3, 7)]), d_f=2.0)
    np.testing.assert_array_equal(trip[:, 0], [0, 0, 0.5, 1, 0.5, 0, 0, 0, 0, 0])
    np.testing.assert_array_equal(trip[:, 1], [0, 0, 0, 0, 0, 0.5, 1, 0.5, 0, 0])
    np.testing.assert_array_equal(trip[:, 2], [0, 0, 0, 1, 1, 1, 1, 0, 0, 0])


def test_triplet_values_in_unit_interval():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = random_annotation(rng, 32)
        for direction in ("forward", "backward"):
            trip = build_prob_triplet(a, 3.0, direction)
            for seq in trip.T:
                assert np.all(seq >= 0.0) and np.all(seq <= 1.0)


def test_triplet_matches_brute_force():
    rng = np.random.default_rng(99)
    for _ in range(50):
        t = int(rng.integers(8, 33))
        d_f = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
        a = random_annotation(rng, t)
        for direction in ("forward", "backward"):
            trip = build_prob_triplet(a, d_f, direction)
            start, end, content = brute_force_triplet(a, d_f, direction)
            np.testing.assert_allclose(trip[:, 0], start, atol=1e-12)
            np.testing.assert_allclose(trip[:, 1], end, atol=1e-12)
            np.testing.assert_allclose(trip[:, 2], content, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    t=st.sampled_from([8, 12, 16, 24, 32]),
    d_f=st.sampled_from([0.5, 1.0, 2.0]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_flip_consistency(t, d_f, seed):
    a = random_annotation(np.random.default_rng(seed), t)
    fwd = build_prob_triplet(a, d_f, "forward")
    bwd = build_prob_triplet(a, d_f, "backward")
    np.testing.assert_array_equal(bwd[:, 0], fwd[:, 1][::-1])
    np.testing.assert_array_equal(bwd[:, 1], fwd[:, 0][::-1])
    np.testing.assert_array_equal(bwd[:, 2], fwd[:, 2][::-1])


def test_triplet_order_invariance():
    base = ann(20, audio=[(2, 5), (9, 12)], visual=[(3, 6)])
    swapped = ann(20, audio=[(9, 12), (2, 5)][::-1], visual=[(3, 6)])
    f0 = build_prob_triplet(base, 1.0)
    f1 = build_prob_triplet(swapped, 1.0)
    np.testing.assert_array_equal(f0[:, 0], f1[:, 0])
    np.testing.assert_array_equal(f0[:, 2], f1[:, 2])


def test_triplet_rejects_bad_args():
    for d_f in (0.0, -1.0, float("nan")):  # NaN would make every label NaN
        with pytest.raises(ValueError, match="d_f"):
            build_prob_triplet(ann(8), d_f=d_f)
    with pytest.raises(ValueError, match="direction"):
        build_prob_triplet(ann(8), direction="sideways")
