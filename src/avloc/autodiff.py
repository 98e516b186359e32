"""Reverse-mode automatic differentiation over dense float64 arrays.

Just enough tensor algebra for the two-stream localization model and its
losses. Every op records its parents and a vector-Jacobian closure on the
output tensor; backward() replays the graph once in reverse topological
order. Graphs are built per forward pass and released by backward(): each
op node drops its parents and VJP closures once its VJPs have run, so
independent forward passes never share state and a graph's arrays are freed
as soon as its gradients are taken. A second backward() that reaches a
released node, on the same loss or on another loss sharing the forward,
raises "ValueError: backward: the graph was released by an earlier
backward()" before any gradient changes; recompute the forward. Inside a
`with no_grad():` block ops record no graph: their outputs are untracked
tensors with no parents, for passes that never call backward().

Freed memory. keep_freed_memory(), called once by train() and
predict_clip(), keeps a released graph's memory in the heap for the next
graph instead of handing it back to the kernel.

Ops: add, mul, scalar_mul, matmul, transpose, reshape, flip, concat,
sigmoid, relu, sqrt, focal, softmax, mean, conv1d, max_pool1d,
upsample1d, banded_matmul and batch_element. conv1d is a same-padded
correlation over time; sums are written as mean times count.

Row blocks. conv1d's forward runs every kernel offset over one block of
output rows, within _BLOCK_BYTES (384 KiB), before the next block, so the
block stays in cache; blocks are 16-row aligned (_BLOCK_ALIGN), so the
outputs do not depend on the budget. Every conv1d at T = 128 is one block.
banded_matmul's forward runs one GEMM per start over zero-copy windows of
its padded input, in 16-row blocks of duration rows that each stop at the
block's last nonzero kernel column, so most of a banded kernel's zero
triangle is skipped.

Batch axis. conv1d, matmul, transpose, max_pool1d and upsample1d take an
optional leading batch axis, fixed by rank: [B, T, C] where the unbatched
form is [T, C] (for matmul, a [B, M, K] left operand against a shared
[K, N] or a stacked [B, K, N] right one). softmax and the elementwise ops
work at any rank. add takes the batch axis only by `batched=True`, since a
broadcast alone cannot tell a batch axis from a spatial one (the map head's
[L, T, C] grid plus a [C] bias). batch_element reads one element back.
Every gradient reduced over the batch axis (a shared weight, a bias) is
reduced per element and the per-element results are added in element
order, never summed as one reduction over B*T rows. A sum of two terms is
order-free, so a pair gives the bytes of two separate calls whose
gradients backward() adds up.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from typing import Callable, Iterator, Sequence

import numpy as np

Array = np.ndarray


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class Tensor:
    """Dense float64 tensor participating in the autodiff graph.

    Tensors produced by ops keep references to their parents together with
    the local vector-Jacobian products, until backward() consumes them. After
    backward() on a scalar loss, every leaf created with requires_grad=True
    has its gradient accumulated into .grad (summed across all uses of the
    tensor), and every op tensor the loss reached keeps its .data but is
    released (_parents is None): it can no longer be backpropagated through.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Array | None = None
        self._parents: tuple[tuple[Tensor, Callable[[Array], Array]], ...] | None = ()

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
        """Accumulate gradients of this scalar into all requires_grad leaves.

        Consumes the graph: each op node drops its parents and VJP closures
        (and the forward arrays they hold) once its VJPs have run, so only
        leaves and the tensors the caller still holds outlive the call. A
        later backward() that reaches a released node raises ValueError
        before any .grad changes.
        """
        if self.data.size != 1:
            raise ShapeError(
                f"backward: loss must be scalar, got shape {self.shape}"
            )
        if not self.requires_grad:
            raise ValueError(
                "backward: loss is untracked (requires_grad is False); it was computed "
                "inside no_grad() or from no requires_grad leaf"
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
            if node._parents is None:
                raise ValueError(
                    "backward: the graph was released by an earlier backward(); "
                    "recompute the forward pass to backpropagate again"
                )
            seen.add(id(node))
            stack.append((node, True))
            for parent, _ in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        grads: dict[int, Array] = {id(self): np.ones_like(self.data)}
        while topo:
            node = topo.pop()
            g = grads.pop(id(node))
            parents = node._parents
            if parents == ():  # a requires_grad leaf
                node.grad = g if node.grad is None else node.grad + g
                continue
            node._parents = None  # released, with its VJP closures and the arrays they hold
            for parent, vjp in parents:
                contrib = vjp(g)
                pid = id(parent)
                if pid in grads:
                    grads[pid] = grads[pid] + contrib
                else:
                    grads[pid] = contrib


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# False inside no_grad(): _op then records no parents.
_grad_enabled = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Run ops without recording the autodiff graph; the flag is restored on exit.

    The flag is one per process, not per thread.
    """
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


# glibc's mallopt parameter numbers (malloc.h) and the values set for them.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_THRESHOLD_BYTES = 256 * 2**20
_MMAP_THRESHOLD_BYTES = 32 * 2**20


@functools.cache
def keep_freed_memory() -> None:
    """Keep the memory a released graph frees in the heap, for the next graph.

    backward() frees a clip's whole graph at once, and by default glibc
    returns the freed top of the heap to the kernel and serves each array
    over its 128 KiB-and-rising mmap threshold from a fresh mapping; the next
    forward pass then faults every page back in. This sets, through glibc's
    mallopt, the mmap threshold to 32 MiB, so the graph's arrays come from
    the heap, and the trim threshold to 256 MiB, so the heap keeps its free
    top. Both are needed: setting the trim threshold alone also freezes the
    mmap threshold at 128 KiB, and the mmap threshold alone leaves the heap
    trimmed. The setting is process-wide and stays after the caller returns;
    it changes where arrays live, never their values. It runs once per
    process, and does nothing off glibc.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return
    if not libc or not libc.startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def _op(data: Array, parents: Sequence[tuple[Tensor, Callable[[Array], Array]]]) -> Tensor:
    out = Tensor(data)
    if not _grad_enabled:
        return out
    tracked = tuple((p, fn) for p, fn in parents if p.requires_grad)
    if tracked:
        out.requires_grad = True
        out._parents = tracked
    return out


def _batch_sum(parts: Sequence[Array]) -> Array:
    """Add per-element gradients in element order: ((g0 + g1) + g2) ..."""
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total


def _unbroadcast(g: Array, shape: tuple[int, ...], batched: bool = False) -> Array:
    """Reduce a broadcast gradient back to the operand's shape; with `batched`,
    one element of g's leading batch axis at a time."""
    if g.shape == shape:
        return g
    if batched and g.ndim > len(shape):
        return _batch_sum([_unbroadcast(gi, shape) for gi in g])
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor, *, batched: bool = False) -> Tensor:
    """a + b with broadcasting; `batched=True` marks axis 0 as a batch axis
    (a [B, T, C] tensor plus a [C] bias)."""
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}") from None
    return _op(data, [
        (a, lambda g: _unbroadcast(g, a.data.shape, batched)),
        (b, lambda g: _unbroadcast(g, b.data.shape, batched)),
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
    """[M, K] @ [K, N]; batched, [B, M, K] @ [K, N] (shared) or [B, M, K] @ [B, K, N]."""
    ranks = (a.data.ndim, b.data.ndim)
    if (ranks not in ((2, 2), (3, 2), (3, 3)) or a.shape[-1] != b.shape[-2]
            or ranks == (3, 3) and a.shape[0] != b.shape[0]):
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    if ranks == (3, 2):  # b is shared by the batch: one GEMM per element
        def vjp_b(g: Array) -> Array:
            return _batch_sum([ai.T @ gi for ai, gi in zip(a.data, g)])
    else:
        def vjp_b(g: Array) -> Array:
            return np.swapaxes(a.data, -1, -2) @ g
    return _op(a.data @ b.data, [(a, lambda g: g @ np.swapaxes(b.data, -1, -2)), (b, vjp_b)])


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    """Swap the last two axes of a [M, N] or batched [B, M, N] tensor, or
    permute the axes of any tensor by `axes`, as np.transpose does."""
    n = a.data.ndim
    if axes is None and n in (2, 3):
        axes = (*range(n - 2), n - 1, n - 2)
    if axes is None or sorted(axes) != list(range(n)):
        raise ShapeError(f"transpose: cannot permute shape {a.shape} by axes {axes}")
    inverse = tuple(np.argsort(axes))
    return _op(np.ascontiguousarray(a.data.transpose(axes)), [(a, lambda g: g.transpose(inverse))])


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
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, from one e^-|x|.
    e = np.exp(-np.abs(a.data))
    s = np.where(a.data >= 0, 1.0, e) / (1.0 + e)
    return _op(s, [(a, lambda g: g * s * (1.0 - s))])


def relu(a: Tensor) -> Tensor:
    # The bytes of np.where(a > 0, a, 0.0) without its branch, which
    # mispredicts on mixed signs: fmax sends NaN and -inf to 0.0, and adding
    # 0.0 turns the -0.0 that fmax keeps outside its vector loop into +0.0.
    mask = a.data > 0
    out = np.fmax(a.data, 0.0)
    out += 0.0
    return _op(out, [(a, lambda g: g * mask)])


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0):
        raise ValueError("sqrt: input must be nonnegative")
    r = np.sqrt(a.data)
    # 1 / (2 sqrt(x)) is unbounded at 0; use the zero subgradient there.
    return _op(r, [(a, lambda g: np.divide(g, 2.0 * r, out=np.zeros_like(g), where=r > 0))])


def focal(z: Tensor, positive: Array, alpha: float, gamma: float) -> Tensor:
    """Class-balanced focal terms -w (1 - p)^gamma log p of logits z (Lin et al., 2017).

    p = sigmoid(s z) is the true class's probability, s = 1 and w = alpha
    where `positive` (z's shape) holds, s = -1 and w = 1 - alpha elsewhere.
    log p and 1 - p come from softplus, so the terms and their gradient are
    finite for every finite z, a saturated sigmoid included.
    """
    g = np.asarray(positive, dtype=bool)
    if g.shape != z.shape:
        raise ShapeError(f"focal: shapes differ, logits {z.shape} vs labels {g.shape}")
    s = np.where(g, 1.0, -1.0)
    w = np.where(g, alpha, 1.0 - alpha)
    x = s * z.data
    # softplus(+-x) = max(+-x, 0) + log(1 + e^-|x|): unlike logaddexp, no warning on NaN.
    tail = np.log1p(np.exp(-np.abs(x)))
    log_p = -(np.maximum(-x, 0.0) + tail)
    q = np.exp(-(np.maximum(x, 0.0) + tail))  # 1 - p
    focus = q ** gamma

    def vjp(grad: Array) -> Array:
        return grad * s * w * (gamma * np.exp(log_p) * focus * log_p - focus * q)

    return _op(-w * focus * log_p, [(z, vjp)])


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


# Byte budget of one row block of conv1d's forward: the block's input rows,
# matmul scratch and output rows, (C_in + 2 C_out) * 8 bytes a row. On a
# 2-vCPU Xeon (48 KiB L1d, 2 MiB L2 per core), one BLAS thread, freed memory
# kept, T = 512: the map conv [512, 33] x [3, 33, 96] and the frame head's
# widest convs ran their blocked forward in 0.80-0.82 of the one-block time,
# the encoders' [2, 512, 16] convs in 1.09 (median ratios, 60 interleaved
# trials). Chosen on the former 3x3 map conv, where 256 KiB to 512 KiB did
# equally well and 1 MiB no better than one block.
_BLOCK_BYTES = 384 * 1024
# Blocks start at multiples of this many rows and hold at least as many. A
# GEMM's result rows are independent of each other only in that frame:
# numpy hands a 1-row product to gemv, which sums in another order, and
# OpenBLAS computes the rows after a call's last full tile with tail
# kernels that, for a narrow C_out, sum in another order too (seen for
# C_out of 1 to 3 when a call's row count is 4k + 1, 4k + 2 or 4k + 3).
_BLOCK_ALIGN = 16


def _row_blocks(m: int, row_bytes: int) -> list[tuple[int, int]]:
    """[lo, hi) blocks covering m rows of row_bytes each, within _BLOCK_BYTES.

    Every block is a multiple of _BLOCK_ALIGN rows long (_aligned_blocks);
    m rows within the budget are one block.
    """
    return _aligned_blocks(m, max(_BLOCK_ALIGN,
                                  _BLOCK_BYTES // row_bytes // _BLOCK_ALIGN * _BLOCK_ALIGN))


def _aligned_blocks(m: int, step: int) -> list[tuple[int, int]]:
    """[lo, hi) blocks of `step` rows, a multiple of _BLOCK_ALIGN, covering m rows.

    Every block starts at a multiple of step, except that the last also
    takes a remainder shorter than _BLOCK_ALIGN. So every row falls at the
    same place in a full tile, or in the tail, as it does in one m-row call.
    """
    bounds = list(range(0, m, step)) + [m]
    if len(bounds) > 2 and m - bounds[-2] < _BLOCK_ALIGN:
        del bounds[-2]
    return list(zip(bounds, bounds[1:]))


def conv1d(x: Tensor, w: Tensor) -> Tensor:
    """Same-padded correlation along the time axis: [T, C_in] x [k, C_in, C_out] -> [T, C_out],
    or batched, [B, T, C_in] -> [B, T, C_out]; k must be odd.

    The zero-padded input is read as flat rows, the elements one after the
    other, and output frame t of element e is laid at row e (T + k - 1) + t,
    so the patch of kernel offset o is the m contiguous rows from row o. In
    each row block (_row_blocks), one matmul per offset, in offset order,
    into the block's scratch is added to the block's rows: every output row
    sums the same GEMM rows in the same order as one full-height matmul per
    offset would. The output is the view of those rows without the pad
    rows. With a batch axis, the weight gradient is reduced per element.
    """
    if x.data.ndim not in (2, 3) or w.data.ndim != 3:
        raise ShapeError(f"conv1d: expected [T,Cin] or [B,T,Cin] and [k,Cin,Cout], "
                         f"got {x.shape} and {w.shape}")
    k, cin, cout = w.data.shape
    if cin != x.data.shape[-1] or k % 2 != 1:
        raise ShapeError(f"conv1d: incompatible shapes {x.shape} and {w.shape}")
    batched = x.data.ndim == 3
    b, t = x.data.shape[:-1] if batched else (1, x.data.shape[0])
    inner = slice(k // 2, k // 2 + t)
    m = (b - 1) * (t + k - 1) + t
    # Padded by hand: np.pad alone takes ~25 us a call (2-core x86-64).
    xp = np.zeros((b, t + k - 1, cin))
    xp[:, inner] = x.data
    rows = xp.reshape(-1, cin)
    acc = np.zeros((b, t + k - 1, cout))
    acc_rows = acc.reshape(-1, cout)[:m]
    blocks = _row_blocks(m, 8 * (cin + 2 * cout))
    scratch = np.empty((max(hi - lo for lo, hi in blocks), cout))
    for lo, hi in blocks:
        tmp = scratch[:hi - lo]
        for o in range(k):
            np.matmul(rows[o + lo:o + hi], w.data[o], out=tmp)
            acc_rows[lo:hi] += tmp
    data = acc[:, :t] if batched else acc[0, :t]

    def vjp_x(g: Array) -> Array:
        gp = np.zeros_like(xp)
        g_rows = g.reshape(-1, cout)
        for o in range(k):
            gp[:, o:o + t] += (g_rows @ w.data[o].T).reshape(b, t, cin)
        return gp[:, inner] if batched else gp[0, inner]

    def vjp_w(g: Array) -> Array:
        per_element = zip(xp, g if batched else g[None])
        return _batch_sum([np.stack([xe[o:o + t].T @ ge.reshape(-1, cout) for o in range(k)])
                           for xe, ge in per_element])

    return _op(data, [(x, vjp_x), (w, vjp_w)])


def max_pool1d(x: Tensor) -> Tensor:
    """Width-2 stride-2 max pooling along the time axis of [T, C] or batched [B, T, C];
    ties go to the lower index. An odd last frame is paired with itself (ceil mode)."""
    if x.data.ndim not in (2, 3):
        raise ShapeError(f"max_pool1d: expected [T,C] or [B,T,C], got shape {x.shape}")
    t = x.data.shape[-2]
    even, odd = x.data[..., 0::2, :], x.data[..., 1::2, :]
    if t % 2:
        odd = np.concatenate([odd, even[..., -1:, :]], axis=-2)
    first = even >= odd
    data = np.where(first, even, odd)

    def vjp(g: Array) -> Array:
        gp = np.empty_like(x.data)
        gp[..., 0::2, :] = np.where(first, g, 0.0)
        gp[..., 1::2, :] = np.where(first, 0.0, g)[..., :t // 2, :]
        return gp

    return _op(data, [(x, vjp)])


def upsample1d(x: Tensor, length: int) -> Tensor:
    """Nearest-neighbour factor-2 upsampling along the time axis of [T, C] or batched
    [B, T, C], cropped to `length`, 2T - 1 or 2T: the length of the skip it joins."""
    if x.data.ndim not in (2, 3) or length not in (2 * x.shape[-2] - 1, 2 * x.shape[-2]):
        raise ShapeError(f"upsample1d: need [T,C] or [B,T,C] and a length of 2T - 1 or 2T, "
                         f"got shape {x.shape} and length {length}")
    data = np.repeat(x.data, 2, axis=-2)[..., :length, :]

    def vjp(g: Array) -> Array:
        gx, n = np.empty_like(x.data), length // 2  # n frames keep both copies
        np.add(g[..., 0:2 * n:2, :], g[..., 1::2, :], out=gx[..., :n, :])
        gx[..., n:, :] = g[..., 2 * n:, :]
        return gx

    return _op(data, [(x, vjp)])


def batch_element(a: Tensor, i: int) -> Tensor:
    """Element i of a leading batch axis: [B, *S] -> [*S].

    The VJP fills the other elements with -0.0, the exact additive identity
    (x + -0.0 == x for every x, +0.0 included), so adding it to another
    gradient of `a` leaves that gradient's bytes as they are.
    """
    if a.data.ndim < 1 or not 0 <= i < a.data.shape[0]:
        raise ShapeError(f"batch_element: no element {i} in shape {a.shape}")

    def vjp(g: Array) -> Array:
        full = np.full(a.data.shape, -0.0)
        full[i] = g
        return full

    return _op(a.data[i], [(a, vjp)])


def _zero_past_end(a: Array) -> Array:
    """Zero the cells [i, j] of an [L, T, D] array where j + i >= T, in place; returns `a`."""
    l, t = a.shape[:2]
    for i in range(1, l):
        a[i, max(t - i, 0):] = 0.0
    return a


def banded_matmul(kernel: Tensor, x: Tensor) -> Tensor:
    """Apply A offset kernels at every start and add them: [A, L, L] x [T, A*D] -> [L, T, D].

    out[i, j] = sum_a sum_k kernel[a, i, k] * x_a[j + k] where j + i < T, and
    0 where j + i >= T, with x_a = x[:, a*D:(a+1)*D]; rows past the last frame
    read as zero. Each tap is the dense [L*T, T] matrix with entries
    kernel[a, i, s - j], applied without building it.

    The forward reads x zero-padded to [T + L - 1, A*D]: the L rows from row j
    are start j's window, one contiguous [L*A, D] block in (k, a) order, so a
    strided view gives every window without a copy. With the kernel laid out
    to match, [L, L*A], one GEMM per start gives out[:, j]. The rows run in
    blocks of _BLOCK_ALIGN (_aligned_blocks), and a block's GEMMs stop at its
    last nonzero kernel column and skip the starts where none of its cells is
    in range. The sampling kernels place every sample inside its candidate,
    so this skips most of the zero triangle, while a dense kernel runs every
    column. The skipped terms are exact zeros, so the bytes are those of
    all-columns GEMMs per start; but as they are never computed, a NaN in x
    reaches only the in-range cells of the row blocks whose columns run
    over its frame, not every cell whose window spans it. train()'s
    finite-loss guard still stops a run on the loss it reaches.

    The VJPs rebuild each tap's [L, T*D] windows from the padded input, one
    strided copy a tap, rather than keep them in the graph.
    """
    if (kernel.data.ndim != 3 or x.data.ndim != 2 or kernel.shape[1] != kernel.shape[2]
            or not kernel.shape[0] or x.shape[1] % kernel.shape[0]):
        raise ShapeError(f"banded_matmul: expected [A,L,L] with A >= 1 and [T,A*D], "
                         f"got {kernel.shape} and {x.shape}")
    a, l, _ = kernel.data.shape
    t, d = x.data.shape[0], x.data.shape[1] // a
    xp = np.zeros((t + l - 1, a * d))
    xp[:t] = x.data
    row, item = xp.strides
    windows = np.lib.stride_tricks.as_strided(xp, (t, l * a, d), (row, d * item, item),
                                              writeable=False)
    taps = np.ascontiguousarray(kernel.data.transpose(1, 2, 0)).reshape(l, l * a)
    data = np.zeros((l, t, d))
    for lo, hi in _aligned_blocks(l, _BLOCK_ALIGN):
        used = np.flatnonzero(taps[lo:hi].any(axis=0))
        if used.size and lo < t:
            cols, starts = used[-1] + 1, t - lo
            np.matmul(taps[lo:hi, :cols], windows[:starts, :cols],
                      out=data[lo:hi, :starts].transpose(1, 0, 2))
    _zero_past_end(data)

    def tap_windows(i: int) -> Array:
        """[L, T*D]: row k is x_i from frame k on, zero past the last frame."""
        view = np.lib.stride_tricks.as_strided(xp[:, i * d:], (l, t, d), (row, row, item),
                                               writeable=False)
        return np.ascontiguousarray(view).reshape(l, t * d)

    def vjp_kernel(g: Array) -> Array:
        gm = _zero_past_end(g.copy()).reshape(l, t * d)
        return np.stack([gm @ tap_windows(i).T for i in range(a)])

    def vjp_x(g: Array) -> Array:
        gm = _zero_past_end(g.copy()).reshape(l, t * d)
        gp = np.zeros((a, t + l - 1, d))
        for i in range(a):
            gw = (kernel.data[i].T @ gm).reshape(l, t, d)
            for k in range(l):
                gp[i, k:k + t] += gw[k]
        return gp[:, :t].transpose(1, 0, 2).reshape(t, a * d)

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
    if y.requires_grad:  # an f that ignores x has a zero gradient, and nothing to backpropagate
        y.backward()
    analytic = x.grad if x.grad is not None else np.zeros_like(x.data)
    probe = point.data.copy()
    numeric = central_differences(lambda: f(Tensor(probe)).data.reshape(1), probe, h).ravel()
    a = analytic.ravel()
    rel = np.abs(a - numeric) / np.maximum(1.0, np.abs(a))
    return float(rel.max()) if rel.size else 0.0
