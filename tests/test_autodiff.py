import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avloc import autodiff as ad
from avloc.autodiff import ShapeError, Tensor, grad_check

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


def test_forward_bit_identical():
    x = rand(6, 5)
    w = rand(3, 5, 4)
    a = ad.conv1d(Tensor(x), Tensor(w)).data
    b = ad.conv1d(Tensor(x), Tensor(w)).data
    assert np.array_equal(a, b)


@pytest.mark.parametrize("op,shapes", [
    ("add", ((3, 4), (3, 4))),
    ("mul", ((3, 4), (3, 4))),
    ("matmul", ((3, 4), (4, 2))),
    ("concat", ((3, 2), (3, 3))),
    ("banded_matmul", ((3, 3), (5, 2))),
])
def test_shape_errors_name_op_and_shapes(op, shapes):
    bad = Tensor(rand(2, 7))
    good = Tensor(rand(*shapes[1]))
    fn = {"add": ad.add, "mul": ad.mul, "matmul": ad.matmul,
          "concat": lambda a, b: ad.concat([a, b], axis=0),
          "banded_matmul": ad.banded_matmul}[op]
    with pytest.raises(ShapeError) as err:
        fn(bad, good)
    assert op in str(err.value)
    assert "(2, 7)" in str(err.value)


@pytest.mark.parametrize("op,x_shape,w_shape", [
    ("conv1d", (6, 4), (2, 4, 3)),  # even kernel
    ("conv1d", (6, 4), (3, 5, 3)),  # C_in mismatch
    ("conv2d", (4, 5, 3), (3, 2, 3, 2)),
    ("conv2d", (4, 5, 3), (3, 3, 4, 2)),
])
def test_conv_shape_errors_name_op(op, x_shape, w_shape):
    with pytest.raises(ShapeError, match=f"{op}: incompatible shapes"):
        getattr(ad, op)(Tensor(rand(*x_shape)), Tensor(rand(*w_shape)))


def test_conv1d_is_conv2d_with_unit_width():
    x, w = rand(7, 4), rand(3, 4, 2)
    results = []
    for op, xv, wv in ((ad.conv1d, x, w), (ad.conv2d, x[:, None], w[:, None])):
        xt, wt = Tensor(xv, requires_grad=True), Tensor(wv, requires_grad=True)
        out = op(xt, wt)
        _sq_mean(out).backward()
        results.append((out.data.ravel(), xt.grad.ravel(), wt.grad.ravel()))
    for got, want in zip(*results):
        assert np.array_equal(got, want)


def test_log_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive"):
        ad.log(Tensor([0.0, 1.0]))


def test_max_pool_ties_route_to_lowest_index():
    x = Tensor(np.array([[1.0], [1.0]]), requires_grad=True)
    ad.mean(ad.max_pool1d(x)).backward()
    np.testing.assert_array_equal(x.grad.ravel(), [1.0, 0.0])


def test_upsample_then_pool_roundtrip_shape():
    x = Tensor(rand(4, 3))
    up = ad.upsample1d(x)
    assert up.shape == (8, 3)
    np.testing.assert_array_equal(ad.max_pool1d(up).data, x.data)


@pytest.mark.parametrize("l,t", [(3, 5), (4, 4)])
def test_banded_matmul_matches_dense_band(l, t):
    kernel, x = rand(l, l), rand(t, 2)
    dense = np.zeros((l, t, t))  # dense[i, j, s] = kernel[i, s - j] for in-range (i, j)
    for i in range(l):
        for j in range(t - i):
            for k in range(l):
                if j + k < t:
                    dense[i, j, j + k] = kernel[i, k]
    out = ad.banded_matmul(Tensor(kernel), Tensor(x))
    np.testing.assert_allclose(out.data, dense @ x, rtol=0, atol=1e-12)


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


OP_CASES = {
    "add": lambda c=None: ((lambda x, c=Tensor(rand(4, 4)): _sq_mean(ad.add(x, c))), (4, 4)),
    "add_bias_broadcast": lambda: ((lambda x, c=Tensor(rand(5, 4)): _sq_mean(ad.add(c, x))), (4,)),
    "mul": lambda: ((lambda x, c=Tensor(rand(4, 4)): _sq_mean(ad.mul(x, c))), (4, 4)),
    "scalar_mul": lambda: ((lambda x: _sq_mean(ad.scalar_mul(x, -1.7))), (4, 4)),
    "matmul_left": lambda: ((lambda x, c=Tensor(rand(4, 3)): _sq_mean(ad.matmul(x, c))), (4, 4)),
    "matmul_right": lambda: ((lambda x, c=Tensor(rand(3, 4)): _sq_mean(ad.matmul(c, x))), (4, 4)),
    "conv1d_x": lambda: ((lambda x, c=Tensor(rand(3, 4, 2)): _sq_mean(ad.conv1d(x, c))), (6, 4)),
    "conv1d_w": lambda: ((lambda w, c=Tensor(rand(6, 4)): _sq_mean(ad.conv1d(c, w))), (3, 4, 2)),
    "conv2d_x": lambda: ((lambda x, c=Tensor(rand(3, 3, 3, 2)): _sq_mean(ad.conv2d(x, c))), (4, 5, 3)),
    "conv2d_w": lambda: ((lambda w, c=Tensor(rand(4, 5, 3)): _sq_mean(ad.conv2d(c, w))), (3, 3, 3, 2)),
    "conv1d_x_pointwise": lambda: ((lambda x, c=Tensor(rand(1, 4, 3)): _sq_mean(ad.conv1d(x, c))), (6, 4)),
    "conv1d_w_pointwise": lambda: ((lambda w, c=Tensor(rand(6, 4)): _sq_mean(ad.conv1d(c, w))), (1, 4, 3)),
    "conv2d_x_3x1": lambda: ((lambda x, c=Tensor(rand(3, 1, 3, 2)): _sq_mean(ad.conv2d(x, c))), (4, 5, 3)),
    "conv2d_w_3x1": lambda: ((lambda w, c=Tensor(rand(4, 5, 3)): _sq_mean(ad.conv2d(c, w))), (3, 1, 3, 2)),
    "conv2d_x_1x3": lambda: ((lambda x, c=Tensor(rand(1, 3, 3, 2)): _sq_mean(ad.conv2d(x, c))), (4, 5, 3)),
    "conv2d_w_1x3": lambda: ((lambda w, c=Tensor(rand(4, 5, 3)): _sq_mean(ad.conv2d(c, w))), (1, 3, 3, 2)),
    "sigmoid": lambda: ((lambda x: _sq_mean(ad.sigmoid(x))), (4, 4)),
    "relu": lambda: ((lambda x: _sq_mean(ad.relu(x))), (4, 4)),
    "softmax": lambda: ((lambda x: _sq_mean(ad.softmax(x, axis=1))), (4, 4)),
    "mean_all": lambda: ((lambda x: ad.mean(ad.mul(x, x))), (4, 3)),
    "mean_axis": lambda: ((lambda x: _sq_mean(ad.mean(ad.mul(x, x), axis=0))), (4, 4)),
    "max_pool1d": lambda: ((lambda x: _sq_mean(ad.max_pool1d(x))), (6, 4)),
    "upsample1d": lambda: ((lambda x: _sq_mean(ad.upsample1d(x))), (4, 3)),
    "concat": lambda: ((lambda x, c=Tensor(rand(4, 4)): _sq_mean(ad.concat([x, c], axis=1))), (4, 4)),
    "transpose": lambda: ((lambda x: _sq_mean(ad.transpose(x))), (4, 4)),
    "reshape": lambda: ((lambda x: _sq_mean(ad.reshape(x, (16,)))), (4, 4)),
    "flip": lambda: ((lambda x: _sq_mean(ad.flip(x, axis=0))), (4, 4)),
    "log": lambda: ((lambda x: _sq_mean(ad.log(_positive(x)))), (4, 4)),
    "sqrt": lambda: ((lambda x: _sq_mean(ad.sqrt(_positive(x)))), (4, 4)),
    "pow_const": lambda: ((lambda x: _sq_mean(ad.pow_const(_positive(x), 1.7))), (4, 4)),
    "banded_matmul_kernel": lambda: ((lambda k, c=Tensor(rand(5, 2)): _sq_mean(ad.banded_matmul(k, c))), (3, 3)),
    "banded_matmul_x": lambda: ((lambda x, c=Tensor(rand(3, 3)): _sq_mean(ad.banded_matmul(c, x))), (5, 2)),
    "banded_matmul_kernel_square": lambda: ((lambda k, c=Tensor(rand(4, 2)): _sq_mean(ad.banded_matmul(k, c))), (4, 4)),
    "banded_matmul_x_square": lambda: ((lambda x, c=Tensor(rand(4, 4)): _sq_mean(ad.banded_matmul(c, x))), (4, 2)),
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
