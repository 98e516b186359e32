"""Reverse-mode automatic differentiation over dense float64 arrays.

Just enough tensor algebra for the two-stream localization model and its
losses. Every op records its parents and a vector-Jacobian closure on the
output tensor; backward() replays the graph once in reverse topological
order. Graphs are built per forward pass and garbage-collected with their
tensors, so independent forward passes never share state.

Ops: add, mul, scalar_mul, matmul, transpose, reshape, flip, concat,
sigmoid, relu, log, sqrt, pow_const, softmax, mean, conv1d, conv2d,
max_pool1d, upsample1d and banded_matmul. conv1d and conv2d share one
same-padded correlation (_correlate); sums are written as mean times count.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class Tensor:
    """Dense float64 tensor participating in the autodiff graph.

    Tensors produced by ops keep references to their parents together with
    the local vector-Jacobian products. After backward() on a scalar loss,
    every leaf created with requires_grad=True has its gradient accumulated
    into .grad (summed across all uses of the tensor).
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Array | None = None
        self._parents: tuple[tuple[Tensor, Callable[[Array], Array]], ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Arithmetic sugar. Python scalars are lifted to constant tensors.
    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return add(self, scalar_mul(_lift(other), -1.0))

    def __rsub__(self, other):
        return add(_lift(other), scalar_mul(self, -1.0))

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __neg__(self):
        return scalar_mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, _lift(other))

    def backward(self) -> None:
        """Accumulate gradients of this scalar into all requires_grad leaves."""
        if self.data.size != 1:
            raise ShapeError(
                f"backward: loss must be scalar, got shape {self.shape}"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, emitted = stack.pop()
            if emitted:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent, _ in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        grads: dict[int, Array] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and not node._parents:
                node.grad = g if node.grad is None else node.grad + g
            for parent, vjp in node._parents:
                contrib = vjp(g)
                pid = id(parent)
                if pid in grads:
                    grads[pid] = grads[pid] + contrib
                else:
                    grads[pid] = contrib


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _op(data: Array, parents: Sequence[tuple[Tensor, Callable[[Array], Array]]]) -> Tensor:
    out = Tensor(data)
    tracked = tuple((p, fn) for p, fn in parents if p.requires_grad)
    if tracked:
        out.requires_grad = True
        out._parents = tracked
    return out


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}") from None
    return _op(data, [
        (a, lambda g: _unbroadcast(g, a.data.shape)),
        (b, lambda g: _unbroadcast(g, b.data.shape)),
    ])


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}") from None
    return _op(data, [
        (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
        (b, lambda g: _unbroadcast(g * a.data, b.data.shape)),
    ])


def scalar_mul(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _op(a.data * c, [(a, lambda g: g * c)])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    return _op(a.data @ b.data, [
        (a, lambda g: g @ b.data.T),
        (b, lambda g: a.data.T @ g),
    ])


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: expected 2-d tensor, got shape {a.shape}")
    return _op(np.ascontiguousarray(a.data.T), [(a, lambda g: g.T)])


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.data.size:
        raise ShapeError(f"reshape: cannot view shape {a.shape} as {shape}")
    old = a.data.shape
    return _op(a.data.reshape(shape), [(a, lambda g: g.reshape(old))])


def flip(a: Tensor, axis: int = 0) -> Tensor:
    return _op(np.flip(a.data, axis=axis).copy(), [(a, lambda g: np.flip(g, axis=axis))])


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        shapes = [t.shape for t in tensors]
        raise ShapeError(f"concat: incompatible shapes {shapes} along axis {axis}") from None
    parents = []
    offset = 0
    for t in tensors:
        n = t.data.shape[axis]
        sl = [slice(None)] * data.ndim
        sl[axis] = slice(offset, offset + n)
        parents.append((t, lambda g, sl=tuple(sl): g[sl]))
        offset += n
    return _op(data, parents)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    s = np.empty_like(x)
    pos = x >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    s[~pos] = ex / (1.0 + ex)
    return _op(s, [(a, lambda g: g * s * (1.0 - s))])


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _op(np.where(mask, a.data, 0.0), [(a, lambda g: g * mask)])


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise ValueError("log: input must be strictly positive")
    return _op(np.log(a.data), [(a, lambda g: g / a.data)])


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0):
        raise ValueError("sqrt: input must be nonnegative")
    r = np.sqrt(a.data)
    # 1 / (2 sqrt(x)) is unbounded at 0; use the zero subgradient there.
    return _op(r, [(a, lambda g: np.divide(g, 2.0 * r, out=np.zeros_like(g), where=r > 0))])


def pow_const(a: Tensor, exponent: float) -> Tensor:
    c = float(exponent)
    if c == 0.0:
        return Tensor(np.ones_like(a.data))
    if np.any(a.data < 0):
        raise ValueError("pow_const: input must be nonnegative")
    data = a.data ** c
    return _op(data, [(a, lambda g: g * c * a.data ** (c - 1.0))])


def softmax(a: Tensor, axis: int) -> Tensor:
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def vjp(g: Array) -> Array:
        return s * (g - (g * s).sum(axis=axis, keepdims=True))

    return _op(s, [(a, vjp)])


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    if axis is None:
        n = a.data.size
        return _op(np.asarray(a.data.mean()), [(a, lambda g: np.full_like(a.data, g / n))])
    n = a.data.shape[axis]
    data = a.data.mean(axis=axis)
    return _op(data, [(a, lambda g: np.repeat(np.expand_dims(g / n, axis), n, axis=axis))])


def _correlate(name: str, x: Tensor, w: Tensor) -> Tensor:
    """Same-padded correlation over the leading axes: [*S, C_in] x [*K, C_in, C_out] -> [*S, C_out].

    Every kernel extent must be odd. One matmul per kernel offset, in np.ndindex order.
    """
    *ks, cin, cout = w.data.shape
    if cin != x.data.shape[-1] or any(k % 2 != 1 for k in ks):
        raise ShapeError(f"{name}: incompatible shapes {x.shape} and {w.shape}")
    s = x.data.shape[:-1]
    inner = tuple(slice(k // 2, k // 2 + n) for k, n in zip(ks, s))
    # Padded by hand: np.pad alone takes ~25 us a call (2-core x86-64).
    xp = np.zeros(tuple(n + k - 1 for n, k in zip(s, ks)) + (cin,))
    xp[inner] = x.data
    windows = {o: tuple(slice(a, a + n) for a, n in zip(o, s)) for o in np.ndindex(*ks)}
    data = np.zeros(s + (cout,))
    for o, win in windows.items():
        # Keep the last patch alive while the next is built: freeing it first page-faults
        # fresh memory per patch, 2-3x slower at [40, 128, 33] (glibc, 2-core x86-64).
        patch = xp[win].reshape(-1, cin)
        data += (patch @ w.data[o]).reshape(s + (cout,))

    def vjp_x(g: Array) -> Array:
        gp = np.zeros_like(xp)
        for o, win in windows.items():
            gp[win] += (g.reshape(-1, cout) @ w.data[o].T).reshape(s + (cin,))
        return gp[inner]

    def vjp_w(g: Array) -> Array:
        grads = [xp[win].reshape(-1, cin).T @ g.reshape(-1, cout) for win in windows.values()]
        return np.stack(grads).reshape(w.data.shape)

    return _op(data, [(x, vjp_x), (w, vjp_w)])


def conv1d(x: Tensor, w: Tensor) -> Tensor:
    """Same-padded correlation along axis 0: [T, C_in] x [k, C_in, C_out] -> [T, C_out]."""
    if x.data.ndim != 2 or w.data.ndim != 3:
        raise ShapeError(f"conv1d: expected [T,Cin] and [k,Cin,Cout], got {x.shape} and {w.shape}")
    return _correlate("conv1d", x, w)


def conv2d(x: Tensor, w: Tensor) -> Tensor:
    """Same-padded 3x3 correlation over a grid: [H, W, C_in] x [3, 3, C_in, C_out]."""
    if x.data.ndim != 3 or w.data.ndim != 4:
        raise ShapeError(f"conv2d: expected [H,W,Cin] and [kh,kw,Cin,Cout], got {x.shape} and {w.shape}")
    return _correlate("conv2d", x, w)


def max_pool1d(x: Tensor) -> Tensor:
    """Width-2 stride-2 max pooling along axis 0; ties go to the lower index."""
    if x.data.ndim != 2 or x.data.shape[0] % 2 != 0:
        raise ShapeError(f"max_pool1d: need even leading dim, got shape {x.shape}")
    t, c = x.data.shape
    pairs = x.data.reshape(t // 2, 2, c)
    idx = np.argmax(pairs, axis=1)  # argmax takes the first max: low index wins ties
    data = np.take_along_axis(pairs, idx[:, None, :], axis=1)[:, 0, :]

    def vjp(g: Array) -> Array:
        gp = np.zeros_like(pairs)
        np.put_along_axis(gp, idx[:, None, :], g[:, None, :], axis=1)
        return gp.reshape(t, c)

    return _op(data, [(x, vjp)])


def upsample1d(x: Tensor) -> Tensor:
    """Nearest-neighbour factor-2 upsampling along axis 0."""
    if x.data.ndim != 2:
        raise ShapeError(f"upsample1d: expected 2-d tensor, got shape {x.shape}")
    data = np.repeat(x.data, 2, axis=0)
    return _op(data, [(x, lambda g: g[0::2] + g[1::2])])


def banded_matmul(kernel: Tensor, x: Tensor) -> Tensor:
    """Apply an offset kernel at every start: [L, L] x [T, D] -> [L, T, D].

    out[i, j] = sum_k kernel[i, k] * x[j + k] where j + i < T, and 0 where
    j + i >= T; rows of x past the last frame read as zero. This is the
    dense [L*T, T] matrix with entries kernel[i, s - j], applied without
    building it: one [L, L] @ [L, T*D] matmul over a sliding-window view.
    """
    if kernel.data.ndim != 2 or x.data.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise ShapeError(
            f"banded_matmul: expected [L,L] and [T,D], got {kernel.shape} and {x.shape}"
        )
    l = kernel.data.shape[0]
    t, d = x.data.shape
    xp = np.pad(x.data, ((0, l - 1), (0, 0)))
    # windows[k, j * D + c] = x[j + k, c]
    windows = np.lib.stride_tricks.sliding_window_view(xp, l, axis=0)
    windows = windows.transpose(2, 0, 1).reshape(l, t * d)
    in_range = (np.arange(l)[:, None] + np.arange(t) < t)[:, :, None]  # [L, T, 1]
    data = np.where(in_range, (kernel.data @ windows).reshape(l, t, d), 0.0)

    def vjp_kernel(g: Array) -> Array:
        return np.where(in_range, g, 0.0).reshape(l, t * d) @ windows.T

    def vjp_x(g: Array) -> Array:
        gw = (kernel.data.T @ np.where(in_range, g, 0.0).reshape(l, t * d)).reshape(l, t, d)
        gp = np.zeros_like(xp)
        for k in range(l):
            gp[k:k + t] += gw[k]
        return gp[:t]

    return _op(data, [(kernel, vjp_kernel), (x, vjp_x)])


def central_differences(f: Callable[[], Array], x: Array, h: float = 1e-5) -> Array:
    """Numeric Jacobian of a vector-valued f() with respect to the array x.

    f() returns an [m] array and reads x. Each coordinate of x (in C order)
    is perturbed in place by +h and -h, then restored; row i of the
    [x.size, m] result is (f(x + h e_i) - f(x - h e_i)) / 2h.
    """
    rows = []
    for idx in np.ndindex(x.shape):
        orig = x[idx]
        x[idx] = orig + h
        plus = f()
        x[idx] = orig - h
        minus = f()
        x[idx] = orig
        rows.append((plus - minus) / (2.0 * h))
    return np.array(rows)


def grad_check(f: Callable[[Tensor], Tensor], point: Tensor, h: float = 1e-5) -> float:
    """Max relative error between the analytic gradient of scalar f and central differences.

    Error per coordinate is |analytic - numeric| / max(1, |analytic|); the
    caller asserts a threshold.
    """
    x = Tensor(point.data.copy(), requires_grad=True)
    y = f(x)
    if y.data.size != 1:
        raise ShapeError(f"grad_check: f must be scalar-valued, got shape {y.shape}")
    y.backward()
    analytic = x.grad if x.grad is not None else np.zeros_like(x.data)
    probe = point.data.copy()
    numeric = central_differences(lambda: f(Tensor(probe)).data.reshape(1), probe, h).ravel()
    a = analytic.ravel()
    rel = np.abs(a - numeric) / np.maximum(1.0, np.abs(a))
    return float(rel.max()) if rel.size else 0.0
