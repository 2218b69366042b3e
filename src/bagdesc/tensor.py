"""Dense float64 tensors with analytic backward passes.

Implements exactly the differentiable operations the descriptor network and
the bag-matching score need: valid cross-correlation, ReLU, 2x2 max pooling,
an affine map, and row-wise L2 normalization. An operation with an input
that requires a gradient records a closure that scatters the output
gradient back into its inputs, so a scalar computed from Tensors can be
differentiated with `Tensor.backward()`. Over inputs that all have
`requires_grad=False` it records nothing, and its output holds no
reference to them.

Leaf Tensors (parameters and inputs) add every backward pass into `grad`;
interior nodes are freed as the walk passes them, so a graph is
backpropagated once. Convolution is valid (no padding) cross-correlation;
maxpool routes the gradient to the first (row-major) argmax of each window.
All arithmetic is 64-bit.

Image activations are stored batch-innermost: conv2d, maxpool2x2 and their
input gradients return [B,C,H,W] views of contiguous [C,H,W,B] memory, which
element-wise ops preserve. conv2d copies an input in any other layout into
this one, so every window it copies is a contiguous run of B values.

conv2d lowers a few output rows at a time: it copies their windows into one
column buffer and multiplies that block into its rows of the output. Its
backward rebuilds each block's columns from the saved input instead of
keeping them, and relu and maxpool2x2 find their routing masks in backward,
so an activation's `data` must not be mutated between forward and backward.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "DegenerateInputError",
    "conv2d",
    "relu",
    "maxpool2x2",
    "affine",
    "l2_normalize",
    "flatten",
    "sum_squares",
    "finite_diff_gradcheck",
]

# Norms at or below this are rejected by l2_normalize.
NORM_FLOOR = 1e-12
# Output rows per conv2d column block: each call lowers this many rows at a
# time into one reused buffer instead of holding every row's columns.
CONV_BLOCK_ROWS = 2


class ShapeError(ValueError):
    """Operands whose shapes cannot be combined."""


class DegenerateInputError(ValueError):
    """Input outside an operation's valid domain (e.g. near-zero norm)."""


class Tensor:
    """A dense float64 array with an optional accumulated gradient.

    Tensors form a DAG: an operation over an input that requires a gradient
    attaches its closure and parent references to its output (which then
    requires a gradient too), and `backward` replays the closures in
    reverse topological order, adding into each parent's `grad`. Only a
    leaf (a Tensor no operation produced) keeps its `grad` afterwards.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(
        self,
        data,
        parents: tuple["Tensor", ...] = (),
        backward_fn: Callable[[np.ndarray], None] | None = None,
        requires_grad: bool = True,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward_fn = backward_fn

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add `g` into `grad`; the first `g` becomes `grad` itself.

        That first array is kept, not copied, and later gradients are added
        into it in place: pass an array that nothing else holds or writes
        (copy a view of a buffer first).
        """
        if g.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {g.shape} does not match tensor shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = np.asarray(g, dtype=np.float64)
        else:
            self.grad += g

    def backward(self, seed=None) -> None:
        """Propagate `seed` (default: ones) back through the graph.

        Leaves add their gradient into `grad`. Each interior node, this one
        included, drops its `grad`, closure and parents once its closure
        has run, so its activations and gradients are freed during the
        walk and the graph cannot be backpropagated again.
        """
        if seed is None:
            seed = np.ones_like(self.data)
        seed = np.array(seed, dtype=np.float64)  # a copy: it becomes self.grad
        if seed.shape != self.data.shape:
            raise ShapeError(
                f"seed shape {seed.shape} does not match output shape {self.data.shape}"
            )
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        self.accumulate_grad(seed)
        while order:
            node = order.pop()
            if node._backward_fn is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                node._backward_fn(node.grad)
            node.grad, node._backward_fn, node._parents = None, None, ()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


def _node(out: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """An op's output; it keeps `parents` and `backward_fn` only when one of
    the parents requires a gradient."""
    if any(p.requires_grad for p in parents):
        return Tensor(out, parents, backward_fn)
    return Tensor(out, requires_grad=False)


def _finite_or_raise(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise DegenerateInputError(f"{what} contains non-finite values")


def _with_batch(x: np.ndarray, core_ndim: int) -> tuple[np.ndarray, bool]:
    """View `x` with a leading batch axis; report whether one was added."""
    if x.ndim == core_ndim:
        return x[None], True
    if x.ndim == core_ndim + 1:
        return x, False
    raise ShapeError(f"expected {core_ndim}D or {core_ndim + 1}D input, got shape {x.shape}")


def _block_cols(
    buf: np.ndarray, xs: np.ndarray, kh: int, kw: int, stride: int, y0: int, y1: int
) -> np.ndarray:
    """Copy the im2col windows of output rows [y0, y1) into the front of `buf`.

    `xs` is [C,H,W,B] storage. Returns the [C*kh*kw, (y1-y0)*Wo*B] column
    block: the reduction axis first, columns in (ho, wo, b) storage order.
    """
    c, _, w, b = xs.shape
    wo = (w - kw) // stride + 1
    sc, sh, sw, sb = xs.strides
    windows = np.lib.stride_tricks.as_strided(
        xs[:, y0 * stride :],
        shape=(c, kh, kw, y1 - y0, wo, b),
        strides=(sc, sh, sw, stride * sh, stride * sw, sb),
        writeable=False,
    )
    cols = buf[: windows.size].reshape(windows.shape)
    cols[...] = windows
    return cols.reshape(c * kh * kw, -1)


def conv2d(x: Tensor, weights: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """Valid cross-correlation plus per-channel bias.

    `x` is [C,H,W] or [B,C,H,W]; `weights` is [Cout,Cin,kh,kw]; `bias` is
    [Cout]. Output spatial extent is floor((H-kh)/stride)+1 per side.
    """
    if weights.data.ndim != 4:
        raise ShapeError(f"weights must be 4D [Cout,Cin,kh,kw], got {weights.data.shape}")
    if stride < 1 or int(stride) != stride:
        raise ShapeError(f"stride must be a positive integer, got {stride!r}")
    xd, squeeze = _with_batch(x.data, 3)
    b, c, h, w = xd.shape
    cout, cin, kh, kw = weights.data.shape
    if bias.data.shape != (cout,):
        raise ShapeError(f"bias shape {bias.data.shape} does not match {cout} output channels")
    if c != cin:
        raise ShapeError(f"input has {c} channels but weights expect {cin}")
    if h < kh or w < kw:
        raise ShapeError(f"input {h}x{w} smaller than kernel {kh}x{kw}")
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    xs = np.ascontiguousarray(xd.transpose(1, 2, 3, 0))
    wmat = weights.data.reshape(cout, cin * kh * kw)
    blocks = [(y0, min(y0 + CONV_BLOCK_ROWS, ho)) for y0 in range(0, ho, CONV_BLOCK_ROWS)]
    buf_size = c * kh * kw * min(CONV_BLOCK_ROWS, ho) * wo * b
    run = wo * b  # columns per output row
    out = np.empty((cout, ho * run))
    buf = np.empty(buf_size)
    for y0, y1 in blocks:
        cols = _block_cols(buf, xs, kh, kw, stride, y0, y1)
        np.matmul(wmat, cols, out=out[:, y0 * run : y1 * run])
    out += bias.data[:, None]
    out = out.reshape(cout, ho, wo, b).transpose(3, 0, 1, 2)

    def backward_fn(grad: np.ndarray) -> None:
        g = grad[None] if squeeze else grad
        gmat = np.ascontiguousarray(g.transpose(1, 2, 3, 0)).reshape(cout, ho * run)
        dw = np.zeros(wmat.shape)
        dw_blk = np.empty(wmat.shape)
        dxs = np.zeros((c, h, w, b))
        buf = np.empty(buf_size)
        dbuf = np.empty(buf_size)
        for y0, y1 in blocks:
            g_blk = gmat[:, y0 * run : y1 * run]
            cols = _block_cols(buf, xs, kh, kw, stride, y0, y1)
            np.matmul(g_blk, cols.T, out=dw_blk)
            dw += dw_blk
            if not x.requires_grad:
                continue
            # W^T @ G is the block's column gradient; each kernel offset's
            # rows add onto the input pixels that offset read.
            dcols = dbuf[: cols.size].reshape(cols.shape)
            np.matmul(wmat.T, g_blk, out=dcols)
            dcols = dcols.reshape(c, kh, kw, y1 - y0, wo, b)
            rows = stride * (y1 - y0)
            for i in range(kh):
                r0 = stride * y0 + i
                for j in range(kw):
                    dxs[:, r0 : r0 + rows : stride, j : j + stride * wo : stride] += dcols[:, i, j]
        bias.accumulate_grad(gmat.sum(axis=1))
        weights.accumulate_grad(dw.reshape(weights.data.shape))
        if x.requires_grad:
            dx = dxs.transpose(3, 0, 1, 2)
            x.accumulate_grad(dx[0] if squeeze else dx)

    return _node(out[0] if squeeze else out, (x, weights, bias), backward_fn)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x), NaN kept; gradient is zero where x <= 0 or NaN."""

    def backward_fn(grad: np.ndarray) -> None:
        x.accumulate_grad(grad * (x.data > 0))

    return _node(np.maximum(x.data, 0.0), (x,), backward_fn)


def maxpool2x2(x: Tensor) -> Tensor:
    """Non-overlapping 2x2 window maximum over [C,H,W] or [B,C,H,W].

    The backward pass routes each window's gradient to its first (row-major)
    argmax position, as `np.argmax` picks it: the first NaN, if any.
    """
    xd, squeeze = _with_batch(x.data, 3)
    b, c, h, w = xd.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2 requires even spatial extents, got {h}x{w}")
    xs = xd.transpose(1, 2, 3, 0)
    corners = [xs[:, i::2, j::2] for i in (0, 1) for j in (0, 1)]
    peak = np.maximum(np.maximum(np.maximum(corners[0], corners[1]), corners[2]), corners[3])

    def backward_fn(grad: np.ndarray) -> None:
        # The argmax is the number of leading corners that miss the maximum; a
        # NaN corner never misses, and a NaN maximum is missed by every number.
        misses = [(corner != peak) & (corner == corner) for corner in corners[:3]]
        misses[1] &= misses[0]
        misses[2] &= misses[1]
        idx = sum(m.view(np.int8) for m in misses)
        g = grad[None] if squeeze else grad
        gs = g.transpose(1, 2, 3, 0)
        dxs = np.empty((c, h, w, b), dtype=np.float64)
        for k in range(4):
            dxs[:, k // 2 :: 2, k % 2 :: 2] = np.where(idx == k, gs, 0.0)
        dx = dxs.transpose(3, 0, 1, 2)
        x.accumulate_grad(dx[0] if squeeze else dx)

    out = peak.transpose(3, 0, 1, 2)
    return _node(out[0] if squeeze else out, (x,), backward_fn)


def affine(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """weights @ x + bias for x of shape [D_in] or [B,D_in]."""
    if weights.data.ndim != 2:
        raise ShapeError(f"weights must be 2D [D_out,D_in], got {weights.data.shape}")
    xd, squeeze = _with_batch(x.data, 1)
    dout, din = weights.data.shape
    if xd.shape[1] != din:
        raise ShapeError(f"input dimension {xd.shape[1]} does not match weights D_in {din}")
    if bias.data.shape != (dout,):
        raise ShapeError(f"bias shape {bias.data.shape} does not match D_out {dout}")
    out = xd @ weights.data.T + bias.data

    def backward_fn(grad: np.ndarray) -> None:
        g = grad[None] if squeeze else grad
        bias.accumulate_grad(g.sum(axis=0))
        weights.accumulate_grad(g.T @ xd)
        dx = g @ weights.data
        x.accumulate_grad(dx[0] if squeeze else dx)

    return _node(out[0] if squeeze else out, (x, weights, bias), backward_fn)


def l2_normalize(x: Tensor) -> Tensor:
    """Scale [D] (or each row of [B,D]) to unit Euclidean norm.

    Rejects inputs with norm <= 1e-12. Backward applies the normalization
    Jacobian (I - y y^T) / ||x||.
    """
    xd, squeeze = _with_batch(x.data, 1)
    norms = np.sqrt(np.sum(xd * xd, axis=1))
    if np.any(norms <= NORM_FLOOR) or not np.all(np.isfinite(norms)):
        worst = float(np.min(norms))
        raise DegenerateInputError(
            f"cannot normalize vector with norm {worst:.3e} (floor {NORM_FLOOR:.0e})"
        )
    y = xd / norms[:, None]

    def backward_fn(grad: np.ndarray) -> None:
        g = grad[None] if squeeze else grad
        dx = (g - y * np.sum(y * g, axis=1, keepdims=True)) / norms[:, None]
        x.accumulate_grad(dx[0] if squeeze else dx)

    return _node(y[0] if squeeze else y, (x,), backward_fn)


def flatten(x: Tensor) -> Tensor:
    """[C,H,W] -> [C*H*W], or [B,C,H,W] -> [B, C*H*W]."""
    xd, squeeze = _with_batch(x.data, 3)
    b = xd.shape[0]
    out = xd.reshape(b, -1)

    def backward_fn(grad: np.ndarray) -> None:
        g = grad[None] if squeeze else grad
        dx = np.empty_like(xd)  # a copy of the view, in the input's layout
        dx[...] = g.reshape(xd.shape)
        x.accumulate_grad(dx[0] if squeeze else dx)

    return _node(out[0] if squeeze else out, (x,), backward_fn)


def sum_squares(x: Tensor) -> Tensor:
    """Scalar sum of squared entries (handy test objective)."""
    out = np.sum(x.data * x.data)

    def backward_fn(grad: np.ndarray) -> None:
        x.accumulate_grad(2.0 * float(grad) * x.data)

    return _node(out, (x,), backward_fn)


def finite_diff_gradcheck(
    f: Callable[[Tensor], Tensor],
    point: Tensor,
    h: float = 1e-5,
) -> float:
    """Compare f's analytic gradient at `point` against central differences.

    Returns max over coordinates of
    |analytic - central| / max(1, |analytic|, |central|).
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    base = Tensor(point.data.copy())
    out = f(base)
    if out.data.size != 1:
        raise ShapeError(f"gradcheck target must be scalar-valued, got shape {out.data.shape}")
    _finite_or_raise(out.data, "objective value")
    out.backward(np.ones_like(out.data))
    analytic = base.grad.copy() if base.grad is not None else np.zeros_like(base.data)

    numeric = np.zeros_like(point.data)
    flat_point = point.data.reshape(-1)
    flat_numeric = numeric.reshape(-1)
    for i in range(flat_point.size):
        for sign in (1.0, -1.0):
            shifted = point.data.copy().reshape(-1)
            shifted[i] += sign * h
            value = f(Tensor(shifted.reshape(point.data.shape))).data
            _finite_or_raise(np.asarray(value), "objective value")
            flat_numeric[i] += sign * float(np.sum(value))
        flat_numeric[i] /= 2.0 * h

    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))
