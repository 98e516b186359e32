import math

import numpy as np
import pytest

from avloc import autodiff as ad
from avloc.autodiff import Tensor, grad_check
from avloc.losses import (
    LossConfig,
    boundary_map_loss,
    contrastive_loss,
    focal_loss,
    frame_prob_loss,
    total_loss,
)

RNG = np.random.default_rng(2024)
CFG = LossConfig()


def test_config_validation():
    with pytest.raises(ValueError, match="alpha"):
        LossConfig(alpha=-0.1)
    with pytest.raises(ValueError, match="margin"):
        LossConfig(margin=0.0)
    with pytest.raises(ValueError, match="beta0"):
        LossConfig(beta0=1.0)
    with pytest.raises(ValueError, match="label_threshold"):
        LossConfig(label_threshold=1.5)


# -- contrastive ------------------------------------------------------------

def _embeddings(t=4, c=3, seed=0):
    # Two stacked [2, T, C] pairs, f_av and f_va, element 1 in reversed time.
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=(2, t, c))) for _ in range(2)]


def test_contrastive_zero_when_real_and_aligned():
    f = Tensor(RNG.normal(size=(2, 4, 3)))
    y = np.zeros(4)
    loss = contrastive_loss(f, f, y, CFG)
    assert loss.item() == 0.0


def test_contrastive_zero_when_fake_and_separated():
    a = Tensor(np.zeros((2, 4, 3)))
    b = Tensor(np.full((2, 4, 3), 10.0))
    y = np.ones(4)
    loss = contrastive_loss(a, b, y, CFG)
    assert loss.item() == 0.0


def test_contrastive_single_fake_frame_hand_value():
    f = Tensor(RNG.normal(size=(2, 4, 3)))
    y = np.array([0.0, 0.0, 0.0, 1.0])
    # Identical views give d = 0 everywhere: real frames contribute 0 and the
    # fake frame contributes max(0, 1 - 0)^2 = 1, averaged over T = 4.
    loss = contrastive_loss(f, f, y, CFG)
    assert loss.item() == pytest.approx(0.25)


def test_contrastive_pairs_backward_at_reversed_index():
    t, c = 4, 2
    f_av = Tensor(np.zeros((2, t, c)))
    f_va = np.zeros((2, t, c))
    f_va[1, 0, :] = [3.0, 4.0]  # backward element, index 0 = forward frame t-1
    y = np.array([0.0, 0.0, 0.0, 1.0])
    loss = contrastive_loss(f_av, Tensor(f_va), y, CFG)
    # d = 5 lands on the fake frame: hinge saturates, everything else is 0.
    assert loss.item() == 0.0


def test_contrastive_gradients_match_finite_differences():
    y = np.array([0.0, 1.0, 0.0, 1.0])
    worst = 0.0
    for trial in range(20):
        fixed = _embeddings(seed=100 + trial)

        def f(x, fixed=fixed):
            return contrastive_loss(x, fixed[1], y, CFG)

        worst = max(worst, grad_check(f, _embeddings(seed=trial)[0], h=1e-5))
    assert worst <= 1e-4


def test_contrastive_gradient_finite_for_identical_embeddings():
    # d = 0 at every frame, where sqrt's derivative is unbounded: the zero
    # subgradient keeps the gradient finite.
    z = Tensor(np.array([0.0, 4.0]), requires_grad=True)
    ad.mean(ad.sqrt(z)).backward()
    np.testing.assert_array_equal(z.grad, [0.0, 0.125])
    f = RNG.normal(size=(2, 4, 3))
    x = Tensor(f.copy(), requires_grad=True)
    y = np.array([0.0, 1.0, 0.0, 1.0])
    contrastive_loss(x, Tensor(f), y, CFG).backward()
    np.testing.assert_array_equal(x.grad, np.zeros_like(f))


def test_contrastive_shape_mismatch():
    a = Tensor(np.zeros((2, 4, 3)))
    with pytest.raises(ad.ShapeError):
        contrastive_loss(a, Tensor(np.zeros((2, 4, 2))), np.zeros(4), CFG)
    with pytest.raises(ad.ShapeError, match=r"\[2, T, C\]"):
        contrastive_loss(Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 3))), np.zeros(4), CFG)
    with pytest.raises(ad.ShapeError, match="labels length"):
        contrastive_loss(a, a, np.zeros(5), CFG)


# -- boundary map MSE -------------------------------------------------------

def _random_map_pair(l=4, t=8, seed=0):
    rng = np.random.default_rng(seed)
    from avloc.labels import in_range_mask

    mask = in_range_mask(l, t)
    true = rng.uniform(0, 1, (l, t)) * mask
    pred = Tensor(rng.uniform(0.01, 0.99, (l, t)))
    return pred, true, mask


def test_boundary_loss_zero_on_exact_match():
    pred, true, mask = _random_map_pair(seed=1)
    loss = boundary_map_loss(Tensor(true), true, mask)
    assert loss.item() == 0.0


def test_boundary_loss_constant_offset():
    _, true, mask = _random_map_pair(seed=2)
    shifted = true + 0.1 * mask
    loss = boundary_map_loss(Tensor(shifted), true, mask)
    assert loss.item() == pytest.approx(0.01)


def test_boundary_loss_matches_two_loop_oracle():
    pred, true, mask = _random_map_pair(seed=3)
    total, count = 0.0, 0
    for i in range(mask.shape[0]):
        for j in range(mask.shape[1]):
            if mask[i, j]:
                total += (pred.data[i, j] - true[i, j]) ** 2
                count += 1
    assert boundary_map_loss(pred, true, mask).item() == pytest.approx(total / count)


def test_boundary_loss_only_counts_in_range_cells():
    pred, true, mask = _random_map_pair(seed=4)
    noisy = pred.data.copy()
    noisy[~mask] += 17.0  # out-of-range junk must not affect the loss
    assert boundary_map_loss(Tensor(noisy), true, mask).item() == pytest.approx(
        boundary_map_loss(pred, true, mask).item()
    )


def test_boundary_loss_shape_mismatch():
    pred, true, mask = _random_map_pair()
    with pytest.raises(ad.ShapeError):
        boundary_map_loss(Tensor(np.zeros((2, 2))), true, mask)


def test_boundary_loss_gradients():
    worst = 0.0
    for trial in range(20):
        pred, true, mask = _random_map_pair(seed=trial)
        f = lambda x: boundary_map_loss(x, true, mask)
        worst = max(worst, grad_check(f, pred, h=1e-5))
    assert worst <= 1e-4


# -- focal ------------------------------------------------------------------

def test_focal_hand_value():
    cfg = LossConfig(beta0=0.75, beta1=2.0)
    loss = focal_loss(Tensor(np.array([0.5])), np.array([1.0]), cfg)
    assert loss.item() == pytest.approx(0.75 * 0.25 * math.log(2.0))


def test_focal_reduces_to_half_bce_when_unfocused():
    cfg = LossConfig(beta0=0.5, beta1=0.0)
    rng = np.random.default_rng(3)
    p = rng.uniform(0.05, 0.95, size=6)
    target = (rng.uniform(size=6) > 0.5).astype(float)
    bce = -(target * np.log(p) + (1 - target) * np.log(1 - p)).mean()
    loss = focal_loss(Tensor(p), target, cfg)
    assert loss.item() == pytest.approx(0.5 * bce)


def test_focal_vanishes_for_confident_correct_predictions():
    target = np.array([1.0, 0.0, 1.0])
    p = np.array([1 - 1e-9, 1e-9, 1 - 1e-9])
    assert focal_loss(Tensor(p), target, CFG).item() < 1e-15


def test_focal_monotone_decreasing_in_true_class_probability():
    target = np.array([1.0])
    values = [focal_loss(Tensor(np.array([p])), target, CFG).item()
              for p in np.linspace(0.05, 0.95, 10)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_focal_rejects_out_of_range():
    for bad in (0.0, 1.0, np.nan):  # a NaN prediction fails both range comparisons
        with pytest.raises(ValueError, match="strictly inside"):
            focal_loss(Tensor(np.array([bad, 0.5])), np.array([1.0, 0.0]), CFG)
    for bad in (1.5, -0.5, np.nan):  # a NaN target would read as negative
        with pytest.raises(ValueError, match="targets"):
            focal_loss(Tensor(np.array([0.5, 0.5])), np.array([1.0, bad]), CFG)


def test_focal_gradients_through_sigmoid():
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(trial)
        target = rng.uniform(0, 1, size=8)

        def f(x, target=target):
            return focal_loss(ad.sigmoid(x), target, CFG)

        worst = max(worst, grad_check(f, Tensor(rng.normal(size=8)), h=1e-5))
    assert worst <= 1e-4


# -- frame-probability loss -------------------------------------------------

def _triplet_tensors(rng, t=8):
    # [2, T, 3] columns start, end, content, drawn row-wise as [2, 3, T].
    return ad.sigmoid(Tensor(np.swapaxes(rng.normal(size=(2, 3, t)), 1, 2)))


def _triplet_labels(rng, t=8):
    # [2, T, 3] columns start, end, content, drawn column by column per direction.
    return np.stack([rng.uniform(0, 1, (3, t)).T for _ in range(2)])


def test_frame_prob_loss_is_sum_of_six_focal_terms():
    rng = np.random.default_rng(4)
    probs, triplets = _triplet_tensors(rng), _triplet_labels(rng)
    loss = frame_prob_loss(probs, triplets, CFG)
    manual = sum(
        focal_loss(Tensor(probs.data[d, :, k]), triplets[d, :, k], CFG).item()
        for d in range(2)
        for k in range(3)
    )
    assert loss.item() == pytest.approx(manual, rel=1e-12)


@pytest.mark.parametrize("t", [7, 64, 100])
def test_frame_prob_loss_bytes_match_per_direction_focal_sum(t):
    # The mean is taken per direction before the two are combined, so the
    # value keeps the bytes of 3 * (focal_fwd + focal_bwd) on [T, 3] halves.
    for seed in range(10):
        rng = np.random.default_rng(1000 * t + seed)
        probs = Tensor(rng.uniform(0.01, 0.99, (2, t, 3)))
        triplets = _triplet_labels(rng, t)
        halves = [focal_loss(Tensor(probs.data[d]), triplets[d], CFG) for d in range(2)]
        want = ad.scalar_mul(halves[0] + halves[1], 3.0)
        assert frame_prob_loss(probs, triplets, CFG).data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("t", [7, 64, 100])
def test_frame_prob_loss_gradient_equals_six_column_terms(t):
    # The gradient through one focal pass over the [2, T, 3] pair is
    # bit-identical to the per-column reference: 6 / 2 / (3T) rounds exactly
    # like 1 / T.
    rng = np.random.default_rng(t)
    pred = rng.uniform(0.01, 0.99, (2, t, 3))
    triplets = _triplet_labels(rng, t)
    leaf = Tensor(pred.copy(), requires_grad=True)
    frame_prob_loss(leaf, triplets, CFG).backward()

    columns = [[Tensor(pred[d, :, k].copy(), requires_grad=True) for k in range(3)]
               for d in range(2)]
    reference = None
    for cols, true in zip(columns, triplets):
        for k, col in enumerate(cols):
            term = focal_loss(col, true[:, k], CFG)
            reference = term if reference is None else reference + term
    reference.backward()
    for grad, cols in zip(leaf.grad, columns):
        assert np.array_equal(grad, np.column_stack([c.grad for c in cols]))


def test_frame_prob_loss_near_zero_for_easy_negatives():
    t = 8
    zeros = np.zeros((2, t, 3))
    tiny = Tensor(np.full((2, t, 3), 1e-9))
    assert frame_prob_loss(tiny, zeros, CFG).item() < 1e-12


def test_frame_prob_loss_shape_mismatch():
    rng = np.random.default_rng(7)
    probs = _triplet_tensors(rng)
    with pytest.raises(ad.ShapeError, match=r"\[2, T, 3\]"):
        frame_prob_loss(ad.batch_element(probs, 0), _triplet_labels(rng)[0], CFG)
    with pytest.raises(ad.ShapeError, match="focal: shapes differ"):
        frame_prob_loss(probs, _triplet_labels(rng, t=9), CFG)


def test_frame_prob_loss_gradients():
    rng = np.random.default_rng(5)
    triplets = _triplet_labels(rng)
    fixed = rng.normal(size=(5, 8))

    def f(x):
        pf = ad.reshape(ad.sigmoid(ad.transpose(x)), (1, 8, 3))
        pb = ad.reshape(ad.sigmoid(Tensor(fixed[:3].T)), (1, 8, 3))
        return frame_prob_loss(ad.concat([pf, pb], axis=0), triplets, CFG)

    assert grad_check(f, Tensor(rng.normal(size=(3, 8))), h=1e-5) <= 1e-4


# -- total ------------------------------------------------------------------

def test_total_loss_weights_contrastive_term():
    cfg = LossConfig(alpha=0.1)
    total = total_loss(Tensor(2.0), Tensor(0.5), Tensor(1.0), cfg)
    assert total.item() == pytest.approx(1.7)


def test_total_loss_alpha_zero_excludes_contrastive():
    cfg = LossConfig(alpha=0.0)
    total = total_loss(Tensor(123.0), Tensor(0.5), Tensor(1.0), cfg)
    assert total.item() == pytest.approx(1.5)


def test_total_loss_zero_components():
    assert total_loss(Tensor(0.0), Tensor(0.0), Tensor(0.0), CFG).item() == 0.0


def test_all_losses_nonnegative_on_random_inputs():
    rng = np.random.default_rng(6)
    for trial in range(10):
        pred, true, mask = _random_map_pair(seed=trial)
        assert boundary_map_loss(pred, true, mask).item() >= 0.0
        target = rng.uniform(0, 1, 8)
        assert focal_loss(ad.sigmoid(Tensor(rng.normal(size=8))), target, CFG).item() >= 0.0
        embs = _embeddings(seed=trial)
        y = (rng.uniform(size=4) > 0.5).astype(float)
        assert contrastive_loss(*embs, y, CFG).item() >= 0.0
