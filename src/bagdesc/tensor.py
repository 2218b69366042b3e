"""Dense float64 tensors with analytic backward passes.

Implements exactly the differentiable operations the descriptor network and
the bag-matching score need: valid cross-correlation, ReLU, 2x2 max pooling,
an affine map, and row-wise L2 normalization. An operation with an input
that requires a gradient records a closure that scatters the output
gradient back into its inputs, so a scalar computed from Tensors can be
differentiated with `Tensor.backward()`. Over inputs that all have
`requires_grad=False` it records nothing, and its output holds no
reference to them.

Leaf Tensors (parameters and inputs) add every backward pass into `grad`.
Each backward closure captures, when its op runs, exactly the arrays it
will read, and `Tensor.backward` releases the `data` of every interior node
but the root before it replays any closure, so an activation that no
closure reads is freed before the walk starts and the rest as the walk
passes them. Read an interior node's `data` before calling `backward`. A
graph is backpropagated once; a second `backward` over it raises.
Convolution is valid (no padding) cross-correlation; maxpool routes the
gradient to the first (row-major) argmax of each window. All arithmetic is
64-bit.

conv2d, maxpool2x2 and flatten take a [B,C,H,W] batch and affine and
l2_normalize [B,D] rows, and each raises ShapeError on any other rank;
relu and sum_squares are elementwise.

Image activations are stored batch-innermost: conv2d, maxpool2x2 and their
input gradients return [B,C,H,W] views of contiguous [C,H,W,B] memory, which
element-wise ops preserve. conv2d copies an input in any other layout into
this one, so every window it copies is a contiguous run of B values.

conv2d lowers a few output rows at a time: it copies their windows into one
column buffer and multiplies that block into its rows of the output. Its
backward runs over the live batch entries only, those whose output
gradient is not all zero: it compacts them, rebuilds each block's columns
from the saved input's live entries instead of keeping them, and gives
every other entry an exactly zero input gradient. relu masks its gradient
with its own output, which the next convolution keeps anyway, and
maxpool2x2 keeps one int8 route per output instead of its input. A closure
reads the arrays it captured, so mutating an activation's `data` between
forward and backward changes the gradient.
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
    `shape` outlives `data`, which `backward` releases on interior nodes.
    """

    __slots__ = ("data", "shape", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(
        self,
        data,
        parents: tuple["Tensor", ...] = (),
        backward_fn: Callable[[np.ndarray], None] | None = None,
        requires_grad: bool = True,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.shape = self.data.shape
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward_fn = backward_fn

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add `g` into `grad`; the first `g` becomes `grad` itself.

        That first array is kept, not copied, and later gradients are added
        into it in place: pass an array that nothing else holds or writes
        (copy a view of a buffer first). The node's closure may then reuse
        `grad` in place: relu scales it and conv2d compacts it.
        """
        if g.shape != self.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match tensor shape {self.shape}")
        if self.grad is None:
            self.grad = np.asarray(g, dtype=np.float64)
        else:
            self.grad += g

    def backward(self, seed=None) -> None:
        """Propagate `seed` (default: ones) back through the graph.

        Leaves add their gradient into `grad`. Before any closure runs, every
        interior node but this one drops its `data`: the closures captured
        what they read when their ops ran, so an activation that none of
        them reads is freed at once. Read such a node's `data` before this
        call. Each interior node, this one included, drops its `grad`,
        closure and parents once its closure has run, so the graph's
        gradients are freed during the walk too. The graph is spent: a
        second `backward` over any of its nodes raises RuntimeError.
        """
        if seed is None:
            seed = np.ones_like(self.data)
        seed = np.array(seed, dtype=np.float64)  # a copy: it becomes self.grad
        if seed.shape != self.shape:
            raise ShapeError(f"seed shape {seed.shape} does not match output shape {self.shape}")
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
            if node._backward_fn is _spent:
                raise RuntimeError(f"{node!r} belongs to a graph that was already backpropagated")
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        for node in order:
            if node._backward_fn is not None and node is not self:
                node.data = None
        self.accumulate_grad(seed)
        while order:
            node = order.pop()
            if node._backward_fn is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                node._backward_fn(node.grad)
            node.grad, node._backward_fn, node._parents = None, _spent, ()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def _spent(grad: np.ndarray) -> None:
    """The closure of a node that `backward` has passed: marks it spent, so
    it is not mistaken for a leaf."""
    raise RuntimeError("this graph was already backpropagated")


def _node(out: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """An op's output; it keeps `parents` and `backward_fn` only when one of
    the parents requires a gradient."""
    if any(p.requires_grad for p in parents):
        return Tensor(out, parents, backward_fn)
    return Tensor(out, requires_grad=False)


def _finite_or_raise(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise DegenerateInputError(f"{what} contains non-finite values")


def _batch(x: Tensor, ndim: int) -> np.ndarray:
    """`x.data`, which must be a batch: `ndim` axes, the first one B."""
    if x.data.ndim != ndim:
        raise ShapeError(f"expected a {ndim}D batch, got shape {x.data.shape}")
    return x.data


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


def _restride(flat: np.ndarray, rows: int, width: int, index: np.ndarray) -> None:
    """Rewrite in place the `rows` rows of `width` entries at the front of
    the 1D buffer `flat` as rows of len(index) entries: entry k of a row
    becomes its old entry index[k].

    Rows move in chunks, the first row first when rows shrink and the last
    first when they grow, so no chunk overwrites a row still to be read. A
    chunk grows as far as it can without overlapping its own old rows, and
    is at least 1/32 of the rows; numpy copies such an overlapping chunk
    through a buffer of its own size. The indices are in range, so `take`
    runs in "wrap" mode, which writes straight into `out`: "raise" first
    copies all of it, to leave it untouched on an error.
    """
    new = index.size
    step = -(-rows // 32)

    def move(r0: int, r1: int) -> None:
        old = flat[r0 * width : r1 * width].reshape(r1 - r0, width)
        np.take(old, index, axis=1, out=flat[r0 * new : r1 * new].reshape(r1 - r0, new), mode="wrap")

    if new <= width:
        r0 = 0
        while r0 < rows:
            r1 = min(rows, max(r0 * width // new if new else rows, r0 + step))
            move(r0, r1)
            r0 = r1
    else:
        r1 = rows
        while r1 > 0:
            r0 = max(0, min(-(-r1 * width // new), r1 - step))
            move(r0, r1)
            r1 = r0


def conv2d(x: Tensor, weights: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """Valid cross-correlation plus per-channel bias.

    `x` is [B,C,H,W]; `weights` is [Cout,Cin,kh,kw]; `bias` is [Cout].
    Output spatial extent is floor((H-kh)/stride)+1 per side.

    The backward runs over the live batch entries, those whose output
    gradient is not all zero (NaN counts as non-zero). It compacts them in
    place in its own gradient and gathers them from the saved input, runs
    the row-blocked weight-gradient products, then W^T @ G and the
    column-to-pixel scatter over them alone, and spreads the input gradient
    back over the whole batch, zero on every other entry. A dead entry adds
    nothing to the weight and bias gradients, as in a dense backward, but
    those sums run over fewer columns, so they can differ from the dense
    ones in the last bits.
    """
    if weights.data.ndim != 4:
        raise ShapeError(f"weights must be 4D [Cout,Cin,kh,kw], got {weights.data.shape}")
    if stride < 1 or int(stride) != stride:
        raise ShapeError(f"stride must be a positive integer, got {stride!r}")
    xd = _batch(x, 4)
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
        # The node's own gradient (see `Tensor.accumulate_grad`), so it may
        # be compacted in place; a gradient in another layout is copied.
        gs = np.ascontiguousarray(grad.transpose(1, 2, 3, 0))
        live = np.flatnonzero(np.any(gs.reshape(-1, b) != 0, axis=0))
        nl = live.size
        sparse = nl < b
        if sparse:
            _restride(gs.reshape(-1), cout * ho * wo, b, live)
        run = wo * nl  # columns per output row over the live entries
        gmat = gs.reshape(-1)[: cout * ho * run].reshape(cout, ho * run)
        # One input-sized buffer holds the live entries of the input while
        # the weight gradient reads them, then the input gradient, computed
        # over those entries plus, when some are dead, one all-zero entry
        # that every dead entry copies as the rows are spread in place.
        # Every large block has a size fixed by the batch, none larger than
        # the input: freeing a larger one would raise glibc's dynamic mmap
        # threshold above the activations, which would then stay resident
        # in the heap after they are freed.
        flat = np.empty(c * h * w * b)
        xl = xs
        if sparse:
            xl = np.take(xs, live, axis=3, out=flat[: c * h * w * nl].reshape(c, h, w, nl), mode="wrap")
        dw = np.zeros(wmat.shape)
        dw_blk = np.empty(wmat.shape)
        buf = np.empty(buf_size)
        for y0, y1 in blocks:
            cols = _block_cols(buf, xl, kh, kw, stride, y0, y1)
            np.matmul(gmat[:, y0 * run : y1 * run], cols.T, out=dw_blk)
            dw += dw_blk
        bias.accumulate_grad(gmat.sum(axis=1))
        weights.accumulate_grad(dw.reshape(weights.shape))
        if not x.requires_grad:
            return
        width = nl + 1 if sparse else nl
        dxs = flat[: c * h * w * width].reshape(c, h, w, width)
        dxs[...] = 0.0
        for y0, y1 in blocks:
            # W^T @ G is the block's column gradient; each kernel offset's
            # rows add onto the input pixels that offset read.
            cols = buf[: c * kh * kw * (y1 - y0) * run].reshape(c * kh * kw, -1)
            np.matmul(wmat.T, gmat[:, y0 * run : y1 * run], out=cols)
            dcols = cols.reshape(c, kh, kw, y1 - y0, wo, nl)
            rows = stride * (y1 - y0)
            for i in range(kh):
                r0 = stride * y0 + i
                for j in range(kw):
                    dxs[:, r0 : r0 + rows : stride, j : j + stride * wo : stride, :nl] += dcols[:, i, j]
        if sparse:
            spread = np.full(b, nl)
            spread[live] = np.arange(nl)
            _restride(flat, c * h * w, width, spread)
        x.accumulate_grad(flat[: c * h * w * b].reshape(c, h, w, b).transpose(3, 0, 1, 2))

    return _node(out, (x, weights, bias), backward_fn)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x), NaN kept; gradient is zero where x <= 0 or NaN.

    Backward masks with the output, not the input: out > 0 exactly where
    x > 0 (NaN and -0.0 included), and the next layer usually keeps the
    output anyway. The mask is multiplied into the gradient it is handed,
    which is this node's own (see `Tensor.accumulate_grad`).
    """
    out = np.maximum(x.data, 0.0)

    def backward_fn(grad: np.ndarray) -> None:
        grad *= out > 0
        x.accumulate_grad(grad)

    return _node(out, (x,), backward_fn)


def maxpool2x2(x: Tensor) -> Tensor:
    """Non-overlapping 2x2 window maximum over [B,C,H,W].

    The backward pass routes each window's gradient to its first (row-major)
    argmax position, as `np.argmax` picks it: the first NaN, if any. That
    route, one int8 per output, is found in forward when a graph is
    recorded, so the closure does not keep the input.
    """
    xd = _batch(x, 4)
    b, c, h, w = xd.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2 requires even spatial extents, got {h}x{w}")
    xs = xd.transpose(1, 2, 3, 0)
    corners = [xs[:, i::2, j::2] for i in (0, 1) for j in (0, 1)]
    peak = np.maximum(np.maximum(np.maximum(corners[0], corners[1]), corners[2]), corners[3])
    out = peak.transpose(3, 0, 1, 2)
    if not x.requires_grad:
        return Tensor(out, requires_grad=False)
    # The argmax is the number of leading corners that miss the maximum; a
    # NaN corner never misses, and a NaN maximum is missed by every number.
    misses = [(corner != peak) & (corner == corner) for corner in corners[:3]]
    misses[1] &= misses[0]
    misses[2] &= misses[1]
    idx = misses[0].view(np.int8) + misses[1].view(np.int8) + misses[2].view(np.int8)

    def backward_fn(grad: np.ndarray) -> None:
        gs = grad.transpose(1, 2, 3, 0)
        dxs = np.empty((c, h, w, b), dtype=np.float64)
        for k in range(4):
            dxs[:, k // 2 :: 2, k % 2 :: 2] = np.where(idx == k, gs, 0.0)
        x.accumulate_grad(dxs.transpose(3, 0, 1, 2))

    return _node(out, (x,), backward_fn)


def affine(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """weights @ x + bias for each row x of [B,D_in]."""
    if weights.data.ndim != 2:
        raise ShapeError(f"weights must be 2D [D_out,D_in], got {weights.data.shape}")
    xd = _batch(x, 2)
    dout, din = weights.data.shape
    if xd.shape[1] != din:
        raise ShapeError(f"input dimension {xd.shape[1]} does not match weights D_in {din}")
    if bias.data.shape != (dout,):
        raise ShapeError(f"bias shape {bias.data.shape} does not match D_out {dout}")
    wd = weights.data
    out = xd @ wd.T + bias.data

    def backward_fn(grad: np.ndarray) -> None:
        bias.accumulate_grad(grad.sum(axis=0))
        weights.accumulate_grad(grad.T @ xd)
        x.accumulate_grad(grad @ wd)

    return _node(out, (x, weights, bias), backward_fn)


def l2_normalize(x: Tensor) -> Tensor:
    """Scale each row of [B,D] to unit Euclidean norm.

    Rejects inputs with norm <= 1e-12. Backward applies the normalization
    Jacobian (I - y y^T) / ||x||.
    """
    xd = _batch(x, 2)
    norms = np.sqrt(np.sum(xd * xd, axis=1))
    if np.any(norms <= NORM_FLOOR) or not np.all(np.isfinite(norms)):
        worst = float(np.min(norms))
        raise DegenerateInputError(
            f"cannot normalize vector with norm {worst:.3e} (floor {NORM_FLOOR:.0e})"
        )
    y = xd / norms[:, None]

    def backward_fn(grad: np.ndarray) -> None:
        dx = (grad - y * np.sum(y * grad, axis=1, keepdims=True)) / norms[:, None]
        x.accumulate_grad(dx)

    return _node(y, (x,), backward_fn)


def flatten(x: Tensor) -> Tensor:
    """[B,C,H,W] -> [B, C*H*W].

    The input gradient is batch-innermost, the layout conv2d reads without
    a copy; the closure keeps only the input's shape.
    """
    xd = _batch(x, 4)
    b, c, h, w = xd.shape
    out = xd.reshape(b, -1)

    def backward_fn(grad: np.ndarray) -> None:
        dx = np.empty((c, h, w, b)).transpose(3, 0, 1, 2)
        dx[...] = grad.reshape(b, c, h, w)
        x.accumulate_grad(dx)

    return _node(out, (x,), backward_fn)


def sum_squares(x: Tensor) -> Tensor:
    """Scalar sum of squared entries (handy test objective)."""
    xd = x.data
    out = np.sum(xd * xd)

    def backward_fn(grad: np.ndarray) -> None:
        x.accumulate_grad(2.0 * float(grad) * xd)

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
