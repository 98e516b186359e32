import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avloc import autodiff as ad
from avloc.autodiff import ShapeError, Tensor, grad_check
from avloc.model import build_sampling_mask, folded_conv2d
from oracles import (
    reference_banded_matmul,
    reference_banded_matmul_per_start,
    reference_correlate,
    reference_max_pool1d,
)

RNG = np.random.default_rng(1234)
GRAD_TOL = 1e-4
H = 1e-5


def rand(*shape):
    return RNG.uniform(-2.0, 2.0, size=shape)


def test_sigmoid_symmetry_point():
    assert ad.sigmoid(Tensor([0.0])).data[0] == 0.5


def test_matmul_identity():
    a = rand(3, 3)
    out = ad.matmul(Tensor(np.eye(3)), Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_conv1d_delta_kernel():
    x = Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
    kernel = Tensor(np.array([0.0, 1.0, 0.0]).reshape(3, 1, 1))
    out = ad.conv1d(x, kernel)
    np.testing.assert_array_equal(out.data.ravel(), [1.0, 2.0, 3.0, 4.0])


def test_sigmoid_grad_at_zero():
    w = Tensor([0.0], requires_grad=True)
    ad.mean(ad.sigmoid(w)).backward()
    assert w.grad[0] == pytest.approx(0.25, abs=1e-15)


def test_mean_grad_is_uniform():
    x = Tensor(rand(7), requires_grad=True)
    ad.mean(x).backward()
    np.testing.assert_allclose(x.grad, np.full(7, 1.0 / 7.0))


def test_backward_requires_scalar():
    x = Tensor(rand(3), requires_grad=True)
    y = ad.relu(x)
    with pytest.raises(ShapeError, match="scalar"):
        y.backward()


def test_backward_on_untracked_loss_names_no_grad():
    x = Tensor(rand(3), requires_grad=True)
    with ad.no_grad():
        loss = ad.mean(ad.mul(x, x))
    with pytest.raises(ValueError, match=r"no_grad\(\)"):
        loss.backward()
    assert x.grad is None


def test_grad_check_of_a_function_that_ignores_x_is_zero():
    c = Tensor(rand(3))
    assert grad_check(lambda x: ad.mean(ad.mul(c, c)), Tensor(rand(4)), h=H) == 0.0


def test_grad_accumulates_across_two_consumers():
    x = Tensor(np.array([2.0]), requires_grad=True)
    a = ad.mul(x, Tensor([3.0]))
    b = ad.mul(x, Tensor([5.0]))
    ad.mean(ad.add(a, b)).backward()
    assert x.grad[0] == pytest.approx(8.0)


def test_repeated_backward_accumulates_into_leaf():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    ad.mean(x).backward()
    ad.mean(x).backward()
    np.testing.assert_allclose(x.grad, [1.0, 1.0])


@pytest.mark.parametrize("n", [1, 7, 8, 9, 37, 40 * 128 * 32])
def test_relu_bytes_match_where_on_signed_zero_nan_and_inf(n):
    # numpy runs fmax in a vector loop and a scalar tail, which keep
    # different signs of zero for fmax(-0.0, 0.0); sizes 1, 7 and 9 hit the tail
    values = np.array([-0.0, 0.0, np.nan, -np.nan, -np.inf, np.inf, -1.5, 2.5, 5e-324, -5e-324])
    x = np.resize(values, n)
    for view in (x, x[::-1], np.resize(values, (n, 2))[:, 1], x.reshape(-1, 1)):
        got = ad.relu(Tensor(view)).data
        assert got.tobytes() == np.where(view > 0, view, 0.0).tobytes()
    x = Tensor(values, requires_grad=True)
    ad.mean(ad.relu(x)).backward()
    assert x.grad.tolist() == [0.0] * 5 + [0.1, 0.0, 0.1, 0.1, 0.0]


def test_backward_frees_interior_arrays_the_caller_dropped():
    x = Tensor(rand(5), requires_grad=True)
    hidden = ad.relu(x)
    interior = weakref.ref(hidden.data)
    loss = ad.mean(ad.mul(hidden, hidden))
    del hidden
    assert interior() is not None  # held by mul's VJP closure until backward()
    loss.backward()
    assert interior() is None
    assert loss.item() >= 0.0 and x.grad is not None  # the loss keeps its value


def test_second_backward_through_a_released_graph_raises():
    x = Tensor(rand(4), requires_grad=True)
    hidden = ad.sigmoid(x)
    loss = ad.mean(ad.mul(hidden, hidden))
    sibling = ad.mean(hidden)
    loss.backward()
    grad = x.grad.copy()
    for again in (loss, sibling):
        with pytest.raises(ValueError, match=r"released by an earlier backward\(\)"):
            again.backward()
        assert x.grad.tobytes() == grad.tobytes()
    fresh = Tensor(x.data.copy(), requires_grad=True)
    ad.mean(ad.sigmoid(fresh)).backward()
    ad.mean(ad.sigmoid(x)).backward()  # a new forward from the same leaf still backpropagates
    assert x.grad.tobytes() == (grad + fresh.grad).tobytes()


def test_forward_bit_identical():
    x = rand(6, 5)
    w = rand(3, 5, 4)
    a = ad.conv1d(Tensor(x), Tensor(w)).data
    b = ad.conv1d(Tensor(x), Tensor(w)).data
    assert np.array_equal(a, b)


# (bad operand, good operand). The last is a kernel with no taps.
@pytest.mark.parametrize("op,shapes", [
    ("add", ((2, 7), (3, 4))),
    ("mul", ((2, 7), (3, 4))),
    ("matmul", ((2, 7), (4, 2))),
    ("concat", ((2, 7), (3, 3))),
    ("banded_matmul", ((2, 7), (5, 2))),
    ("banded_matmul", ((0, 3, 3), (5, 2))),
])
def test_shape_errors_name_op_and_shapes(op, shapes):
    bad = Tensor(rand(*shapes[0]))
    good = Tensor(rand(*shapes[1]))
    fn = {"add": ad.add, "mul": ad.mul, "matmul": ad.matmul,
          "concat": lambda a, b: ad.concat([a, b], axis=0),
          "banded_matmul": ad.banded_matmul}[op]
    with pytest.raises(ShapeError) as err:
        fn(bad, good)
    message = str(err.value)
    assert op in message and str(shapes[0]) in message and str(shapes[1]) in message


@pytest.mark.parametrize("op,x_shape,w_shape", [
    ("conv1d", (6, 4), (2, 4, 3)),  # even kernel
    ("conv1d", (6, 4), (3, 5, 3)),  # C_in mismatch
])
def test_conv_shape_errors_name_op(op, x_shape, w_shape):
    with pytest.raises(ShapeError, match=f"{op}: incompatible shapes"):
        getattr(ad, op)(Tensor(rand(*x_shape)), Tensor(rand(*w_shape)))


def _reference_sigmoid(x):
    """The earlier sigmoid: the two stable forms scattered by a boolean mask."""
    s = np.empty_like(x)
    pos = x >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    s[~pos] = ex / (1.0 + ex)
    return s


@pytest.mark.parametrize("size", [1, 7, 33, 4096])
def test_sigmoid_bytes_match_the_masked_formula(size):
    special = np.array([0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 800.0, -800.0,
                        5e-324, -5e-324, 2e-308, -2e-308, np.nan])
    rng = np.random.default_rng(size)
    x = np.concatenate([special, rng.normal(scale=10.0, size=size)])
    got, want = ad.sigmoid(Tensor(x)).data, _reference_sigmoid(x)
    np.testing.assert_array_equal(got, want)  # NaN stays NaN, its bit pattern may differ
    finite = ~np.isnan(x)
    assert got[finite].tobytes() == want[finite].tobytes()


def _probability_space_focal(z, positive, alpha, gamma):
    """The earlier focal terms, -w (1 - p)^gamma log p on p = sigmoid(z) for
    positives and 1 - sigmoid(z) elsewhere, in extended precision: in float64,
    1 - p loses digits to cancellation once p is near 1."""
    z = z.astype(np.longdouble)
    p = 1.0 / (1.0 + np.exp(-z))
    p_hat = np.where(positive, p, 1.0 - p)
    w = np.where(positive, alpha, 1.0 - alpha)
    return w * (1.0 - p_hat) ** gamma * -np.log(p_hat)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="long double is float64 here")
@pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
def test_focal_matches_the_probability_space_formula(gamma):
    rng = np.random.default_rng(int(10 * gamma))
    z = np.concatenate([np.linspace(-8.0, 8.0, 161), rng.uniform(-8.0, 8.0, 2000)])
    for positive in (np.ones(z.size, bool), np.zeros(z.size, bool), rng.uniform(size=z.size) > 0.5):
        got = ad.focal(Tensor(z), positive, 0.75, gamma).data
        np.testing.assert_allclose(got, _probability_space_focal(z, positive, 0.75, gamma).astype(
            np.float64), rtol=1e-12, atol=0)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
def test_focal_is_finite_at_saturated_logits(gamma):
    # sigmoid(40.0) is exactly 1.0 in float64, so log(1 - p) would be -inf.
    z = Tensor(np.array([-1e300, -800.0, -50.0, -40.0, -0.0, 0.0, 40.0, 50.0, 800.0, 1e300]),
               requires_grad=True)
    for positive in (np.ones(z.size, bool), np.zeros(z.size, bool)):
        z.zero_grad()
        terms = ad.focal(z, positive, 0.75, gamma)
        assert np.all(np.isfinite(terms.data)) and np.all(terms.data >= 0.0)
        ad.mean(terms).backward()
        assert np.all(np.isfinite(z.grad))
    # A wrong class far out costs |z| w and has slope -w, whatever gamma is.
    wrong = ad.focal(Tensor([-50.0, 50.0]), [True, False], 0.75, gamma).data
    np.testing.assert_allclose(wrong, [0.75 * 50.0, 0.25 * 50.0], rtol=1e-15)


def test_focal_rejects_labels_of_another_shape():
    with pytest.raises(ShapeError, match=r"focal: shapes differ, logits \(2, 3\) vs labels \(3,\)"):
        ad.focal(Tensor(np.zeros((2, 3))), np.ones(3, bool), 0.75, 2.0)


def test_max_pool_ties_route_to_lowest_index():
    x = Tensor(np.array([[1.0], [1.0]]), requires_grad=True)
    ad.mean(ad.max_pool1d(x)).backward()
    np.testing.assert_array_equal(x.grad.ravel(), [1.0, 0.0])
    # Batched [2, T, C]: the rule holds in each element.
    xb = Tensor(np.array([[[1.0], [1.0]], [[-2.0], [-2.0]]]), requires_grad=True)
    ad.mean(ad.max_pool1d(xb)).backward()
    np.testing.assert_array_equal(xb.grad.ravel(), [0.5, 0.0, 0.5, 0.0])


@pytest.mark.parametrize("shape", [(64, 8), (128, 32), (2, 3)])
def test_max_pool_bytes_match_argmax_reference(shape):
    rng = np.random.default_rng(list(shape))
    x = rng.integers(-2, 3, shape).astype(np.float64)  # small integers: many ties
    x[::3] += rng.uniform(-1, 1, x[::3].shape)
    out = ad.max_pool1d(Tensor(x, requires_grad=True))
    want, want_vjp = reference_max_pool1d(x)
    assert out.data.tobytes() == want.tobytes()
    g = rng.uniform(-2, 2, want.shape)
    assert out._parents[0][1](g).tobytes() == want_vjp(g).tobytes()


def test_upsample_then_pool_roundtrip_shape():
    x = Tensor(rand(4, 3))
    for length in (8, 7):  # 2T, and 2T - 1 with the last copy cropped
        up = ad.upsample1d(x, length)
        assert up.shape == (length, 3)
        assert up.data.tobytes() == np.repeat(x.data, 2, axis=0)[:length].tobytes()
        np.testing.assert_array_equal(ad.max_pool1d(up).data, x.data)


@pytest.mark.parametrize("shape", [(1, 3), (7, 3), (63, 8), (2, 5, 4)])
def test_max_pool_odd_last_frame_pairs_with_itself(shape):
    # Ceil mode: pooling an odd T gives the bytes of pooling the clip with
    # its last frame repeated, and the last frame takes its pool's whole
    # gradient.
    rng = np.random.default_rng(shape[-2])
    x = rng.integers(-2, 3, shape).astype(np.float64)
    padded = np.concatenate([x, x[..., -1:, :]], axis=-2)
    out = ad.max_pool1d(Tensor(x, requires_grad=True))
    want = ad.max_pool1d(Tensor(padded, requires_grad=True))
    assert out.data.tobytes() == want.data.tobytes()
    g = rng.uniform(-2, 2, out.shape)
    got_vjp, want_vjp = out._parents[0][1](g), want._parents[0][1](g)
    assert got_vjp.tobytes() == want_vjp[..., :-1, :].tobytes()
    assert np.array_equal(got_vjp[..., -1, :], g[..., -1, :])


@pytest.mark.parametrize("t, length", [(4, 9), (4, 6), (4, 0), (1, 3)])
def test_upsample_takes_only_2t_minus_1_or_2t(t, length):
    message = rf"upsample1d: .* got shape \({t}, 3\) and length {length}$"
    with pytest.raises(ShapeError, match=message):
        ad.upsample1d(Tensor(rand(t, 3)), length)


def _dense_band(kernel, t):
    """dense[i, j, s] = kernel[i, s - j] for in-range (i, j) and s < t."""
    l = kernel.shape[0]
    dense = np.zeros((l, t, t))
    for i in range(l):
        for j in range(t - i):
            for k in range(l):
                if j + k < t:
                    dense[i, j, j + k] = kernel[i, k]
    return dense


# L < T, L = T, and L > T: a clip shorter than the longest candidate.
@pytest.mark.parametrize("l,t", [(3, 5), (4, 4), (6, 4), (9, 2)])
def test_banded_matmul_matches_dense_band(l, t):
    kernel, x = rand(l, l), rand(t, 2)
    out = ad.banded_matmul(Tensor(kernel[None]), Tensor(x))
    np.testing.assert_allclose(out.data, _dense_band(kernel, t) @ x, rtol=0, atol=1e-12)


# A taps: tap a's band applied to channel block a of x, summed over the taps.
@pytest.mark.parametrize("a,l,t", [(3, 3, 5), (3, 4, 4), (2, 6, 4), (3, 9, 2)])
def test_banded_matmul_taps_match_dense_bands(a, l, t):
    kernel, x = rand(a, l, l), rand(t, a * 2)
    out = ad.banded_matmul(Tensor(kernel), Tensor(x))
    want = sum(_dense_band(kernel[k], t) @ x[:, 2 * k:2 * k + 2] for k in range(a))
    assert out.shape == (l, t, 2)
    np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)


# Shapes of the model's correlations: the default boundary-map conv
# ([T, C+1] -> [T, 3C], one C block per duration tap), the default
# frame-head convs, the criterion-8 small config (T=64, C=8) and a T=512 map.
CORRELATE_SHAPES = {
    "conv1d_map_default": ((128, 33), (3, 33, 96)),
    "conv1d_default": ((128, 16), (3, 16, 32)),
    "conv1d_default_pointwise": ((128, 32), (1, 32, 3)),
    "conv1d_map_small": ((64, 9), (3, 9, 24)),
    "conv1d_small": ((64, 9), (3, 9, 8)),
    "conv1d_small_pointwise": ((64, 8), (1, 8, 3)),
    "conv1d_map_t512": ((512, 33), (3, 33, 96)),
}


@pytest.mark.parametrize("x_shape,w_shape", CORRELATE_SHAPES.values(), ids=CORRELATE_SHAPES)
def test_correlation_bytes_match_patch_copy_reference(x_shape, w_shape):
    rng = np.random.default_rng([*x_shape, *w_shape])
    x, w = rng.uniform(-2, 2, x_shape), rng.uniform(-2, 2, w_shape)
    out = ad.conv1d(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True))
    want, *want_vjps = reference_correlate(x, w)
    assert out.shape == want.shape
    assert out.data.tobytes() == want.tobytes()
    g = rng.uniform(-2, 2, want.shape)
    for (_, vjp), want_vjp in zip(out._parents, want_vjps, strict=True):
        assert vjp(g).tobytes() == want_vjp(g).tobytes()


# The boundary-map conv at T = 128 and 512, and the default channel counts
# at 49 rows, one past a multiple of 16. Budgets, in rows of the forward: 1,
# which rounds up to the 16-row minimum, and the primes 37 and 61, which
# round down to 32 rows and 48.
BLOCK_SHAPES = {
    "conv1d_map_t128": ((128, 33), (3, 33, 96)),
    "conv1d_map_t512": ((512, 33), (3, 33, 96)),
    "conv1d": ((49, 16), (3, 16, 32)),
    "conv1d_pointwise": ((49, 32), (1, 32, 3)),
}
BLOCK_BUDGET_ROWS = [1, 37, 61]


def _set_block_rows(monkeypatch, rows: int, w_shape) -> int:
    """Set the budget to `rows` forward rows of w_shape's conv; returns the bytes a row."""
    *_, cin, cout = w_shape
    row_bytes = 8 * (cin + 2 * cout)
    monkeypatch.setattr(ad, "_BLOCK_BYTES", rows * row_bytes)
    return row_bytes


@pytest.mark.parametrize("m", [1, 16, 17, 250, 497, 5198])
@pytest.mark.parametrize("rows", [*BLOCK_BUDGET_ROWS, 506])
def test_row_blocks_are_tile_aligned(monkeypatch, m, rows):
    row_bytes = _set_block_rows(monkeypatch, rows, (33, 32))
    blocks = ad._row_blocks(m, row_bytes)
    align = ad._BLOCK_ALIGN
    step = max(align, rows // align * align)
    assert [lo for lo, _ in blocks] == list(range(0, len(blocks) * step, step))
    assert blocks[-1][1] == m and all(hi == lo2 for (_, hi), (lo2, _) in zip(blocks, blocks[1:]))
    assert all(hi - lo == step for lo, hi in blocks[:-1])
    assert min(m, align) <= blocks[-1][1] - blocks[-1][0] < step + align


@pytest.mark.parametrize("rows", BLOCK_BUDGET_ROWS)
@pytest.mark.parametrize("x_shape,w_shape", BLOCK_SHAPES.values(), ids=BLOCK_SHAPES)
def test_correlation_bytes_do_not_depend_on_row_blocks(monkeypatch, rows, x_shape, w_shape):
    row_bytes = _set_block_rows(monkeypatch, rows, w_shape)
    m = x_shape[0]
    # Every case splits, but the 49-row conv1d under the 48-row budget: its
    # 1-row remainder joins the first block.
    assert len(ad._row_blocks(m, row_bytes)) > 1 or rows == 61 and m == 49
    rng = np.random.default_rng([rows, *x_shape, *w_shape])
    x, w = rng.uniform(-2, 2, x_shape), rng.uniform(-2, 2, w_shape)
    out = ad.conv1d(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True))
    want, *want_vjps = reference_correlate(x, w)
    assert out.data.tobytes() == want.tobytes()
    g = rng.uniform(-2, 2, want.shape)
    for (_, vjp), want_vjp in zip(out._parents, want_vjps, strict=True):
        assert vjp(g).tobytes() == want_vjp(g).tobytes()


@pytest.mark.parametrize("rows", BLOCK_BUDGET_ROWS)
@pytest.mark.parametrize("name", ["conv1d_default", "conv1d_pointwise"])
def test_batched_correlation_bytes_do_not_depend_on_row_blocks(monkeypatch, rows, name):
    # A batched conv1d's rows run on across the element boundary.
    _set_block_rows(monkeypatch, rows, BATCH_CASES[name][2][1])
    test_batched_op_bytes_match_per_element_calls(name)


def test_map_conv_forward_transient_stays_within_block_budget():
    # The map conv at T = 512 under no_grad: the padded input, the output
    # rows and one block's scratch, 208 rows (160 KB), which is less than
    # half the budget. One full-height scratch (393 KB) does not fit.
    rng = np.random.default_rng(19)
    x, w = Tensor(rng.uniform(-2, 2, (512, 33))), Tensor(rng.uniform(-2, 2, (3, 33, 96)))
    padded_input, output_rows = 514 * 33 * 8, 512 * 96 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with ad.no_grad():
            out = ad.conv1d(x, w)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.shape == (512, 96)
    assert peak < padded_input + output_rows + ad._BLOCK_BYTES // 2, f"peak {peak / 2**10:.0f} KiB"


# One tap, [1, L, L] x [T, D], gives the VJP bytes of the single-kernel
# product: default, small config, T=512 / L=60, a tiny case, and clips
# shorter than L (the default L = 40 at T = 32, and two tiny ones). Its
# forward runs one GEMM per start, which sums in another order than the
# reference's one GEMM over all starts: the L >= 40 cases differ in the last
# bits (up to 2.1e-14).
@pytest.mark.parametrize("l,t,d", [(40, 128, 33), (12, 64, 9), (60, 512, 33), (4, 16, 5),
                                   (40, 32, 33), (6, 4, 3), (9, 2, 2)])
def test_banded_matmul_bytes_match_sliding_window_reference(l, t, d):
    rng = np.random.default_rng([l, t, d])
    kernel, x = rng.uniform(-2, 2, (l, l)), rng.uniform(-2, 2, (t, d))
    out = ad.banded_matmul(Tensor(kernel[None], requires_grad=True), Tensor(x, requires_grad=True))
    want, *want_vjps = reference_banded_matmul(kernel, x)
    assert out.shape == want.shape
    np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
    g = rng.uniform(-2, 2, want.shape)
    for (_, vjp), want_vjp in zip(out._parents, want_vjps, strict=True):
        assert vjp(g).tobytes() == want_vjp(g).tobytes()


def _sampling_taps(l: int, seed: int) -> np.ndarray:
    """The map head's [3, L, L] kernels: the sampling mask under random sample weights."""
    taps = build_sampling_mask(l, 16).taps
    return np.tensordot(np.random.default_rng(seed).uniform(-1, 1, 16), taps, axes=1)


# Stopping each row block at its last nonzero column, and skipping the
# starts where a block has no cell in range, gives the bytes of one
# all-columns GEMM per start. (T, L, D): the default config, the small one,
# full scale, L > T, an odd D, and an L that is not a multiple of 16.
BAND_SHAPES = {
    "default": (128, 40, 32),
    "small": (64, 12, 8),
    "full_scale": (512, 60, 32),
    "l_past_t": (16, 40, 8),
    "odd_width": (128, 40, 33),
    "l37": (128, 37, 32),
}


@pytest.mark.parametrize("t,l,d", BAND_SHAPES.values(), ids=BAND_SHAPES)
def test_banded_matmul_bytes_match_all_columns_per_start(t, l, d):
    kernel = _sampling_taps(l, seed=l)
    assert not np.triu(kernel[1], 1).any()  # the band: no sample past its candidate's end
    x = np.random.default_rng([t, l, d]).uniform(-2, 2, (t, 3 * d))
    out = ad.banded_matmul(Tensor(kernel), Tensor(x))
    assert out.data.tobytes() == reference_banded_matmul_per_start(kernel, x).tobytes()


@pytest.mark.parametrize("zero_rows", [40, 16], ids=["all_zero", "first_block_zero"])
def test_banded_matmul_zero_row_blocks_match_all_columns_per_start(zero_rows):
    kernel = _sampling_taps(40, seed=7)
    kernel[:, :zero_rows] = 0.0
    x = np.random.default_rng(zero_rows).uniform(-2, 2, (128, 96))
    out = ad.banded_matmul(Tensor(kernel), Tensor(x))
    want = reference_banded_matmul_per_start(kernel, x)
    assert out.data.tobytes() == want.tobytes()
    assert not out.data[:zero_rows].any()


# Batched op vs the same op once per element: (batched op, unbatched op,
# per-element operand shapes, which operands carry the batch axis). A
# stacked operand's VJP must equal the per-element VJPs; a shared operand's
# (a weight, a bias) must equal element 0's plus element 1's.
BATCH_CASES = {
    "conv1d_small": (ad.conv1d, ad.conv1d, [(64, 9), (3, 9, 8)], (True, False)),
    "conv1d_default": (ad.conv1d, ad.conv1d, [(128, 16), (3, 16, 32)], (True, False)),
    "conv1d_pointwise": (ad.conv1d, ad.conv1d, [(64, 8), (1, 8, 3)], (True, False)),
    "matmul_shared": (ad.matmul, ad.matmul, [(64, 16), (16, 8)], (True, False)),
    "matmul_shared_column": (ad.matmul, ad.matmul, [(128, 32), (32, 1)], (True, False)),
    "matmul_stacked": (ad.matmul, ad.matmul, [(64, 8), (8, 64)], (True, True)),
    "transpose": (ad.transpose, ad.transpose, [(64, 8)], (True,)),
    "softmax": (lambda a: ad.softmax(a, axis=-1), lambda a: ad.softmax(a, axis=1),
                [(64, 64)], (True,)),
    "max_pool1d": (ad.max_pool1d, ad.max_pool1d, [(64, 8)], (True,)),
    "max_pool1d_odd": (ad.max_pool1d, ad.max_pool1d, [(63, 8)], (True,)),
    "upsample1d": (lambda a: ad.upsample1d(a, 64), lambda a: ad.upsample1d(a, 64),
                   [(32, 8)], (True,)),
    "upsample1d_cropped": (lambda a: ad.upsample1d(a, 63), lambda a: ad.upsample1d(a, 63),
                           [(32, 8)], (True,)),
    "add_bias": (lambda a, b: ad.add(a, b, batched=True), ad.add, [(64, 8), (8,)], (True, False)),
    "add_bias_column": (lambda a, b: ad.add(a, b, batched=True), ad.add,
                        [(128, 1), (1,)], (True, False)),
}


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_batched_op_bytes_match_per_element_calls(name):
    batched_op, op, shapes, stacked = BATCH_CASES[name]
    rng = np.random.default_rng(sorted(BATCH_CASES).index(name))
    arrays = [rng.uniform(-2, 2, (2,) + s if st else s) for s, st in zip(shapes, stacked)]
    out = batched_op(*(Tensor(a, requires_grad=True) for a in arrays))
    g = rng.uniform(-2, 2, out.shape)
    vjps = [vjp(g) for _, vjp in out._parents]
    per_element = []
    for i in range(2):
        single = op(*(Tensor(a[i] if st else a, requires_grad=True) for a, st in zip(arrays, stacked)))
        assert out.data[i].tobytes() == single.data.tobytes()
        per_element.append([vjp(g[i]) for _, vjp in single._parents])
    for k, st in enumerate(stacked):
        if st:
            for i in range(2):
                assert vjps[k][i].tobytes() == per_element[i][k].tobytes(), (k, i)
        else:
            assert vjps[k].tobytes() == (per_element[0][k] + per_element[1][k]).tobytes(), k


def test_batch_element_reads_one_element_and_adds_exactly():
    x = Tensor(rand(2, 3, 4), requires_grad=True)
    one = ad.batch_element(x, 1)
    assert one.data.tobytes() == x.data[1].tobytes()
    g = np.array([[-0.0, 0.0, 1.5, -2.0]] * 3)
    full = one._parents[0][1](g)
    assert full[1].tobytes() == g.tobytes()
    assert np.all(full[0] == 0.0) and np.all(np.signbit(full[0]))  # -0.0 everywhere
    other = rand(2, 3, 4)
    other[1] = -0.0
    assert (other + full)[0].tobytes() == other[0].tobytes()
    assert (other + full)[1].tobytes() == g.tobytes()
    with pytest.raises(ShapeError, match="batch_element"):
        ad.batch_element(x, 2)


def test_batch_axis_is_marked_not_inferred():
    # A [L, T, C] + [C] bias add is spatial, not batched.
    x = rand(2, 6, 4)
    b = Tensor(np.zeros(4), requires_grad=True)
    ad.mean(ad.add(Tensor(x), b)).backward()  # one reduction over both leading axes
    assert b.grad.tobytes() == np.full(x.shape, 1.0 / x.size).sum(axis=(0, 1)).tobytes()
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(Tensor(rand(2, 3, 4)), Tensor(rand(3, 4, 2)))
    with pytest.raises(ShapeError, match="conv1d"):
        ad.conv1d(Tensor(rand(2, 6, 4)), Tensor(rand(3, 5, 2)))


def test_no_grad_outputs_have_no_parents():
    x, w = Tensor(rand(6, 4), requires_grad=True), Tensor(rand(3, 4, 2), requires_grad=True)
    with ad.no_grad():
        out = _sq_mean(ad.relu(ad.conv1d(x, w)))
    assert out._parents == () and not out.requires_grad
    tracked = _sq_mean(ad.relu(ad.conv1d(x, w)))
    assert tracked._parents and tracked.requires_grad
    assert out.data.tobytes() == tracked.data.tobytes()


def test_no_grad_restores_the_flag_after_an_exception():
    x = Tensor(rand(2, 2), requires_grad=True)
    with pytest.raises(ShapeError):
        with ad.no_grad():
            ad.matmul(x, Tensor(rand(3, 3)))
    assert ad.add(x, x)._parents
    with ad.no_grad():
        with ad.no_grad():
            pass
        assert ad.add(x, x)._parents == ()  # an inner block restores "off"
    assert ad.add(x, x)._parents


def test_softmax_rows_sum_to_one():
    s = ad.softmax(Tensor(rand(6, 6) * 10), axis=1)
    np.testing.assert_allclose(s.data.sum(axis=1), np.ones(6), atol=1e-12)


# ---------------------------------------------------------------------------
# Finite-difference checks for every op kind: 20 random small tensors each,
# wrapped into a scalar by a mean-of-squares readout. Case factories freeze
# their random constants so f is deterministic across grad_check evaluations.
# ---------------------------------------------------------------------------

def _sq_mean(t):
    return ad.mean(ad.mul(t, t))


def _positive(x):
    return ad.add(ad.mul(x, x), Tensor(np.full(x.shape, 0.5)))


def _bands(a):
    """Fixed random bands for folded_conv2d: one [4, 4] band per duration tap."""
    return Tensor(rand(a, 4, 4))


OP_CASES = {
    "add": lambda c=None: ((lambda x, c=Tensor(rand(4, 4)): _sq_mean(ad.add(x, c))), (4, 4)),
    "add_bias_broadcast": lambda: ((lambda x, c=Tensor(rand(5, 4)): _sq_mean(ad.add(c, x))), (4,)),
    "mul": lambda: ((lambda x, c=Tensor(rand(4, 4)): _sq_mean(ad.mul(x, c))), (4, 4)),
    "scalar_mul": lambda: ((lambda x: _sq_mean(ad.scalar_mul(x, -1.7))), (4, 4)),
    "matmul_left": lambda: ((lambda x, c=Tensor(rand(4, 3)): _sq_mean(ad.matmul(x, c))), (4, 4)),
    "matmul_right": lambda: ((lambda x, c=Tensor(rand(3, 4)): _sq_mean(ad.matmul(c, x))), (4, 4)),
    "conv1d_x": lambda: ((lambda x, c=Tensor(rand(3, 4, 2)): _sq_mean(ad.conv1d(x, c))), (6, 4)),
    "conv1d_w": lambda: ((lambda w, c=Tensor(rand(6, 4)): _sq_mean(ad.conv1d(c, w))), (3, 4, 2)),
    # The map head's 2-d conv, folded into the band (model.folded_conv2d):
    # 3x3, 3x1 and 1x3 kernels, one [L, L] band per duration tap, L < T.
    "conv2d_x": lambda: ((lambda x, c=Tensor(rand(3, 3, 3, 2)), k=_bands(3): _sq_mean(folded_conv2d(k, x, c))), (5, 3)),
    "conv2d_w": lambda: ((lambda w, c=Tensor(rand(5, 3)), k=_bands(3): _sq_mean(folded_conv2d(k, c, w))), (3, 3, 3, 2)),
    "conv1d_x_pointwise": lambda: ((lambda x, c=Tensor(rand(1, 4, 3)): _sq_mean(ad.conv1d(x, c))), (6, 4)),
    "conv1d_w_pointwise": lambda: ((lambda w, c=Tensor(rand(6, 4)): _sq_mean(ad.conv1d(c, w))), (1, 4, 3)),
    "conv2d_x_3x1": lambda: ((lambda x, c=Tensor(rand(3, 1, 3, 2)), k=_bands(3): _sq_mean(folded_conv2d(k, x, c))), (5, 3)),
    "conv2d_w_3x1": lambda: ((lambda w, c=Tensor(rand(5, 3)), k=_bands(3): _sq_mean(folded_conv2d(k, c, w))), (3, 1, 3, 2)),
    "conv2d_x_1x3": lambda: ((lambda x, c=Tensor(rand(1, 3, 3, 2)), k=_bands(1): _sq_mean(folded_conv2d(k, x, c))), (5, 3)),
    "conv2d_w_1x3": lambda: ((lambda w, c=Tensor(rand(5, 3)), k=_bands(1): _sq_mean(folded_conv2d(k, c, w))), (1, 3, 3, 2)),
    "sigmoid": lambda: ((lambda x: _sq_mean(ad.sigmoid(x))), (4, 4)),
    "relu": lambda: ((lambda x: _sq_mean(ad.relu(x))), (4, 4)),
    "softmax": lambda: ((lambda x: _sq_mean(ad.softmax(x, axis=1))), (4, 4)),
    "mean_all": lambda: ((lambda x: ad.mean(ad.mul(x, x))), (4, 3)),
    "mean_axis": lambda: ((lambda x: _sq_mean(ad.mean(ad.mul(x, x), axis=0))), (4, 4)),
    "max_pool1d": lambda: ((lambda x: _sq_mean(ad.max_pool1d(x))), (6, 4)),
    "max_pool1d_odd": lambda: ((lambda x: _sq_mean(ad.max_pool1d(x))), (7, 4)),
    "max_pool1d_one_frame": lambda: ((lambda x: _sq_mean(ad.max_pool1d(x))), (1, 4)),
    "upsample1d": lambda: ((lambda x: _sq_mean(ad.upsample1d(x, 8))), (4, 3)),
    "upsample1d_cropped": lambda: ((lambda x: _sq_mean(ad.upsample1d(x, 7))), (4, 3)),
    "upsample1d_cropped_one_frame": lambda: ((lambda x: _sq_mean(ad.upsample1d(x, 1))), (1, 3)),
    "concat": lambda: ((lambda x, c=Tensor(rand(4, 4)): _sq_mean(ad.concat([x, c], axis=1))), (4, 4)),
    "transpose": lambda: ((lambda x: _sq_mean(ad.transpose(x))), (4, 4)),
    "transpose_axes": lambda: ((lambda x, c=Tensor(rand(3, 2, 2, 4)): _sq_mean(
        ad.mul(ad.transpose(x, (1, 2, 0, 3)), c))), (2, 3, 2, 4)),
    "reshape": lambda: ((lambda x: _sq_mean(ad.reshape(x, (16,)))), (4, 4)),
    "flip": lambda: ((lambda x: _sq_mean(ad.flip(x, axis=0))), (4, 4)),
    "sqrt": lambda: ((lambda x: _sq_mean(ad.sqrt(_positive(x)))), (4, 4)),
    # Focal terms of logits against a mix of positive and negative labels.
    "focal_gamma0": lambda: ((lambda x, g=rand(4, 4) > 0: ad.mean(ad.focal(x, g, 0.75, 0.0))), (4, 4)),
    "focal_gamma0.5": lambda: ((lambda x, g=rand(4, 4) > 0: ad.mean(ad.focal(x, g, 0.75, 0.5))), (4, 4)),
    "focal_gamma2": lambda: ((lambda x, g=rand(2, 4, 3) > 0: ad.mean(ad.focal(x, g, 0.25, 2.0))), (2, 4, 3)),
    "banded_matmul_kernel": lambda: ((lambda k, c=Tensor(rand(5, 2)): _sq_mean(ad.banded_matmul(k, c))), (1, 3, 3)),
    "banded_matmul_x": lambda: ((lambda x, c=Tensor(rand(1, 3, 3)): _sq_mean(ad.banded_matmul(c, x))), (5, 2)),
    "banded_matmul_kernel_square": lambda: ((lambda k, c=Tensor(rand(4, 2)): _sq_mean(ad.banded_matmul(k, c))), (1, 4, 4)),
    "banded_matmul_x_square": lambda: ((lambda x, c=Tensor(rand(1, 4, 4)): _sq_mean(ad.banded_matmul(c, x))), (4, 2)),
    "banded_matmul_kernel_long": lambda: ((lambda k, c=Tensor(rand(4, 2)): _sq_mean(ad.banded_matmul(k, c))), (1, 6, 6)),
    "banded_matmul_x_long": lambda: ((lambda x, c=Tensor(rand(1, 6, 6)): _sq_mean(ad.banded_matmul(c, x))), (4, 2)),
    # Three taps, as the map head uses them; L < T and L > T.
    "banded_matmul_kernel_taps": lambda: ((lambda k, c=Tensor(rand(5, 6)): _sq_mean(ad.banded_matmul(k, c))), (3, 3, 3)),
    "banded_matmul_x_taps": lambda: ((lambda x, c=Tensor(rand(3, 3, 3)): _sq_mean(ad.banded_matmul(c, x))), (5, 6)),
    "banded_matmul_kernel_taps_long": lambda: ((lambda k, c=Tensor(rand(4, 6)): _sq_mean(ad.banded_matmul(k, c))), (3, 6, 6)),
    "banded_matmul_x_taps_long": lambda: ((lambda x, c=Tensor(rand(3, 6, 6)): _sq_mean(ad.banded_matmul(c, x))), (4, 6)),
    # Batched forms: a leading batch axis of 2.
    "conv1d_x_batched": lambda: ((lambda x, c=Tensor(rand(3, 4, 2)): _sq_mean(ad.conv1d(x, c))), (2, 6, 4)),
    "conv1d_w_batched": lambda: ((lambda w, c=Tensor(rand(2, 6, 4)): _sq_mean(ad.conv1d(c, w))), (3, 4, 2)),
    "matmul_left_batched": lambda: ((lambda x, c=Tensor(rand(4, 3)): _sq_mean(ad.matmul(x, c))), (2, 5, 4)),
    "matmul_shared_right_batched": lambda: ((lambda x, c=Tensor(rand(2, 5, 4)): _sq_mean(ad.matmul(c, x))), (4, 3)),
    "matmul_both_left_batched": lambda: ((lambda x, c=Tensor(rand(2, 4, 3)): _sq_mean(ad.matmul(x, c))), (2, 5, 4)),
    "matmul_both_right_batched": lambda: ((lambda x, c=Tensor(rand(2, 5, 4)): _sq_mean(ad.matmul(c, x))), (2, 4, 3)),
    "transpose_batched": lambda: ((lambda x: _sq_mean(ad.transpose(x))), (2, 4, 3)),
    "softmax_batched": lambda: ((lambda x: _sq_mean(ad.softmax(x, axis=-1))), (2, 4, 4)),
    "max_pool1d_batched": lambda: ((lambda x: _sq_mean(ad.max_pool1d(x))), (2, 6, 4)),
    "max_pool1d_odd_batched": lambda: ((lambda x: _sq_mean(ad.max_pool1d(x))), (2, 7, 4)),
    "upsample1d_batched": lambda: ((lambda x: _sq_mean(ad.upsample1d(x, 8))), (2, 4, 3)),
    "upsample1d_cropped_batched": lambda: ((lambda x: _sq_mean(ad.upsample1d(x, 7))), (2, 4, 3)),
    "add_bias_batched": lambda: ((lambda x, c=Tensor(rand(2, 5, 4)): _sq_mean(ad.add(c, x, batched=True))), (4,)),
    "batch_element": lambda: ((lambda x: _sq_mean(ad.add(
        ad.batch_element(x, 0), ad.mul(ad.batch_element(x, 1), ad.batch_element(x, 1))))), (2, 4, 3)),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradients_match_finite_differences(name):
    worst = 0.0
    for _ in range(20):
        f, shape = OP_CASES[name]()
        err = grad_check(f, Tensor(rand(*shape)), h=H)
        worst = max(worst, err)
    assert worst <= GRAD_TOL, f"{name}: max relative error {worst:.3e}"


def test_grad_check_exact_polynomial():
    f = lambda x: ad.mean(ad.mul(x, x))
    err = grad_check(f, Tensor(np.array([1.0, 2.0, 3.0])), h=1e-5)
    assert err <= 1e-8


def test_central_differences_vector_valued():
    x = RNG.uniform(0.5, 2.0, size=(2, 3))
    before = x.copy()

    def f():
        return np.array([np.sum(x ** 2), np.sum(np.sin(x)), x[0, 1] * x[1, 2]])

    numeric = ad.central_differences(f, x, h=H)
    cross = np.zeros_like(x)
    cross[0, 1], cross[1, 2] = x[1, 2], x[0, 1]
    analytic = np.stack([2.0 * x, np.cos(x), cross]).reshape(3, x.size).T
    assert numeric.shape == (x.size, 3)
    np.testing.assert_allclose(numeric, analytic, rtol=0, atol=1e-8)
    assert np.array_equal(x, before)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=5),
    cols=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_add_mul_chain_gradients(rows, cols, data):
    values = data.draw(
        st.lists(
            st.floats(min_value=-2, max_value=2, allow_nan=False),
            min_size=rows * cols, max_size=rows * cols,
        )
    )
    x = Tensor(np.array(values).reshape(rows, cols))
    other = rand(rows, cols)
    f = lambda t: ad.mean(ad.mul(ad.add(t, Tensor(other)), t))
    assert grad_check(f, x, h=H) <= GRAD_TOL
