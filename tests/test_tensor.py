"""Tensor operations against naive oracles and finite differences."""

import numpy as np
import pytest

from bagdesc.tensor import (
    CONV_BLOCK_ROWS,
    DegenerateInputError,
    ShapeError,
    Tensor,
    affine,
    conv2d,
    finite_diff_gradcheck,
    flatten,
    l2_normalize,
    maxpool2x2,
    relu,
    sum_squares,
)

from oracles import (
    affine_loop,
    conv2d_backward_loop,
    conv2d_loop,
    conv2d_sixloop,
    maxpool2x2_backward_loop,
    maxpool2x2_loop,
)

RNG = np.random.default_rng(1234)


def test_conv2d_scaling_identity():
    x = Tensor(np.ones((1, 1, 3, 3)))
    w = Tensor(np.full((1, 1, 1, 1), 2.0))
    b = Tensor(np.zeros(1))
    out = conv2d(x, w, b, stride=1)
    assert out.data.shape == (1, 1, 3, 3)
    assert np.array_equal(out.data, np.full((1, 1, 3, 3), 2.0))


def test_conv2d_32x32_to_30x30():
    x = Tensor(RNG.uniform(0, 1, (1, 3, 32, 32)))
    w = Tensor(RNG.normal(size=(32, 3, 3, 3)))
    b = Tensor(np.zeros(32))
    assert conv2d(x, w, b, stride=1).data.shape == (1, 32, 30, 30)


def test_conv2d_matches_sixloop_reference():
    x = RNG.normal(size=(1, 2, 5, 5))
    w = RNG.normal(size=(3, 2, 2, 2))
    b = RNG.normal(size=3)
    out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2)
    ref = conv2d_sixloop(x[0], w, b, stride=2)
    assert out.data.shape == (1,) + ref.shape
    assert np.max(np.abs(out.data[0] - ref)) < 1e-12


def test_conv2d_matches_loop_reference_strided_batched():
    x = RNG.normal(size=(4, 2, 9, 9))
    w = RNG.normal(size=(5, 2, 3, 3))
    b = RNG.normal(size=5)
    out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2)
    for i in range(4):
        ref = conv2d_loop(x[i], w, b, stride=2)
        assert np.max(np.abs(out.data[i] - ref)) < 1e-12


def test_conv2d_rejects_bad_shapes():
    x = Tensor(RNG.normal(size=(1, 2, 5, 5)))
    with pytest.raises(ShapeError):
        conv2d(x, Tensor(RNG.normal(size=(3, 99, 2, 2))), Tensor(np.zeros(3)))
    with pytest.raises(ShapeError):
        conv2d(x, Tensor(RNG.normal(size=(3, 2, 6, 6))), Tensor(np.zeros(3)))
    with pytest.raises(ShapeError):
        conv2d(x, Tensor(RNG.normal(size=(3, 2, 2, 2))), Tensor(np.zeros(4)))


def test_relu_values_and_backward():
    out = relu(Tensor(np.array([-1.0, 0.0, 2.0])))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    x = Tensor(-np.abs(RNG.normal(size=(3, 4))) - 0.1)
    out = relu(x)
    assert np.array_equal(out.data, np.zeros((3, 4)))
    out.backward(np.ones((3, 4)))
    assert np.array_equal(x.grad, np.zeros((3, 4)))

    arr = RNG.normal(size=(6, 7))
    assert np.array_equal(relu(Tensor(arr)).data, np.maximum(arr, 0.0))


def test_relu_propagates_nan_and_clears_negative_zero():
    x = Tensor(np.array([np.nan, -0.0, -3.0, 0.5]))
    out = relu(x)
    assert np.isnan(out.data[0])
    assert np.array_equal(out.data[1:], [0.0, 0.0, 0.5])
    assert not np.signbit(out.data[1])
    out.backward(np.ones(4))
    assert np.array_equal(x.grad, [0.0, 0.0, 0.0, 1.0])


def test_maxpool_values():
    out = maxpool2x2(Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]])))
    assert out.data.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == 4.0

    const = maxpool2x2(Tensor(np.full((1, 2, 8, 6), 3.5)))
    assert const.data.shape == (1, 2, 4, 3)
    assert np.array_equal(const.data, np.full((1, 2, 4, 3), 3.5))

    x = RNG.normal(size=(1, 128, 12, 12))
    out = maxpool2x2(Tensor(x))
    assert out.data.shape == (1, 128, 6, 6)
    assert np.array_equal(out.data[0], maxpool2x2_loop(x[0]))


def test_maxpool_rejects_odd_extent():
    with pytest.raises(ShapeError):
        maxpool2x2(Tensor(RNG.normal(size=(1, 1, 3, 4))))


def test_maxpool_tie_gradient_goes_to_first_position():
    x = Tensor(np.array([[[[1.0, 1.0], [1.0, 1.0]]]]))
    out = maxpool2x2(x)
    out.backward(np.ones((1, 1, 1, 1)))
    assert np.array_equal(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])


LAYOUTS = ("c_contiguous", "batch_innermost", "strided_view", "batch_of_one")


def _in_layout(arr, layout):
    """`arr` ([B,C,H,W]) as the named kind of input array, same values."""
    if layout in ("c_contiguous", "batch_of_one"):
        return np.ascontiguousarray(arr)
    if layout == "batch_innermost":
        view = np.ascontiguousarray(arr.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
        assert view.strides[0] == arr.itemsize
        return view
    if layout == "strided_view":
        b, c, h, w = arr.shape
        base = np.full((2 * b, c, 2 * h, w + 3), np.inf)
        view = base[::2, :, ::2, 1 : w + 1]
        view[...] = arr
        assert not view.flags.c_contiguous and not view.flags.f_contiguous
        return view


def _check_conv2d_against_loops(x_in, w, b, stride, rng, between=None, dead=(), input_grad=True):
    """conv2d values and gradients against the loop oracles.

    `between`, if given, runs after the forward and before the backward.
    The output gradient of the batch entries in `dead` is zero, and those
    entries must get an exactly zero input gradient; with `input_grad`
    false the input takes no gradient, as conv1's patch stack does.
    """
    x = Tensor(x_in, requires_grad=input_grad)
    out = conv2d(x, w, b, stride=stride)
    if between is not None:
        between()
    grad = rng.normal(size=out.data.shape)
    grad[list(dead)] = 0.0
    out.backward(grad)
    dw_ref = np.zeros(w.data.shape)
    db_ref = np.zeros(b.data.shape)
    for i in range(x_in.shape[0]):
        # float64 sums of at most 4*3*2 = 24 products: rounding only
        assert np.max(np.abs(out.data[i] - conv2d_loop(x_in[i], w.data, b.data, stride))) < 1e-12
        dx_ref, dw_i, db_i = conv2d_backward_loop(x_in[i], w.data, grad[i], stride)
        if input_grad:
            # input gradient: sums of at most 5 * 3 * 2 products, in another order
            assert np.max(np.abs(x.grad[i] - dx_ref)) < 1e-12
            if i in dead:
                assert not np.any(x.grad[i])
        dw_ref += dw_i
        db_ref += db_i
    if not input_grad:
        assert x.grad is None
    # weight and bias gradients sum over the batch and every output pixel
    # (at most 3 * 7 * 7 terms) in a different order: a few ulps of the total
    assert np.max(np.abs(w.grad - dw_ref)) < 1e-12 * max(1.0, np.max(np.abs(dw_ref)))
    assert np.max(np.abs(b.grad - db_ref)) < 1e-12 * max(1.0, np.max(np.abs(db_ref)))
    return out


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("stride", (1, 2))
def test_conv2d_layouts_match_loop_oracle(layout, stride):
    rng = np.random.default_rng(40 + stride)
    batch = 1 if layout == "batch_of_one" else 3
    x_in = _in_layout(rng.normal(size=(batch, 4, 9, 8)), layout)
    w = Tensor(rng.normal(size=(5, 4, 3, 2)))
    b = Tensor(rng.normal(size=5))
    out = _check_conv2d_against_loops(x_in, w, b, stride, rng)
    assert out.data.shape == (batch, 5, (9 - 3) // stride + 1, (8 - 2) // stride + 1)


@pytest.mark.parametrize("stride", (1, 2))
@pytest.mark.parametrize(
    "case", ("partial_last_block", "kernel_equals_input", "batch_of_one")
)
def test_conv2d_row_block_edges_match_loop_oracle(case, stride):
    """Output heights that do not fill the last row block, Ho = 1, and B = 1."""
    rng = np.random.default_rng(60 + stride)
    ho = 2 * CONV_BLOCK_ROWS + 1  # one row past a whole number of blocks
    kh, kw = (3, 2)
    shape = (3, 4, stride * (ho - 1) + kh, 7)
    if case == "kernel_equals_input":
        shape, ho = shape[:2] + (kh, kw), 1
    elif case == "batch_of_one":
        shape = (1,) + shape[1:]
    x_in = rng.normal(size=shape)
    w = Tensor(rng.normal(size=(5, 4, kh, kw)))
    b = Tensor(rng.normal(size=5))
    out = _check_conv2d_against_loops(x_in, w, b, stride, rng)
    assert out.data.shape[-2] == ho


# (batch size, entries whose output gradient is zero). conv2d's backward
# runs over the other, live, entries only.
LIVE_CASES = {
    "some_dead": (6, (0, 2, 3, 5)),
    "one_dead": (5, (2,)),
    "every_entry_live": (4, ()),
    "every_entry_dead": (3, (0, 1, 2)),
    "batch_of_one_live": (1, ()),
    "batch_of_one_dead": (1, (0,)),
}


@pytest.mark.parametrize("input_grad", (True, False), ids=("input_grad", "no_input_grad"))
@pytest.mark.parametrize("stride", (1, 2))
@pytest.mark.parametrize("case", LIVE_CASES)
def test_conv2d_backward_over_live_entries_matches_loop_oracle(case, stride, input_grad):
    """Zero-gradient batch entries add nothing to the weight and bias
    gradients and get a zero input gradient; an all-zero seed gives zero
    gradients and no error. Without `input_grad` the input is conv1's."""
    batch, dead = LIVE_CASES[case]
    rng = np.random.default_rng(90 + stride)
    x_in = rng.normal(size=(batch, 4, 9, 8))
    w = Tensor(rng.normal(size=(5, 4, 3, 2)))
    b = Tensor(rng.normal(size=5))
    _check_conv2d_against_loops(x_in, w, b, stride, rng, dead=dead, input_grad=input_grad)
    if len(dead) == batch:
        assert not np.any(w.grad) and not np.any(b.grad)


def test_conv2d_backward_after_another_conv_on_the_same_thread():
    """A pending backward rebuilds its columns from its own saved input."""
    rng = np.random.default_rng(70)
    x_in = _in_layout(rng.normal(size=(3, 4, 9, 8)), "strided_view")
    w = Tensor(rng.normal(size=(5, 4, 3, 2)))
    b = Tensor(rng.normal(size=5))

    def other_conv():
        other = Tensor(rng.normal(size=(3, 4, 9, 8)))
        out = conv2d(other, Tensor(rng.normal(size=(5, 4, 3, 2))), Tensor(np.zeros(5)), 1)
        out.backward(rng.normal(size=out.data.shape))

    _check_conv2d_against_loops(x_in, w, b, 1, rng, between=other_conv)


def test_backward_hands_over_gradients_without_sharing_memory():
    """No leaf .grad aliases the caller's seed or another leaf's .grad, and
    the walk frees the interior nodes, the root included: each is spent,
    and every one but the root has released its data."""
    rng = np.random.default_rng(80)
    x = Tensor(rng.normal(size=(2, 3, 10, 10)))
    params = [
        Tensor(rng.normal(size=shape))
        for shape in ((4, 3, 3, 3), (4,), (6, 4, 2, 2), (6,), (5, 24), (5,))
    ]
    h = relu(conv2d(x, params[0], params[1], stride=1))
    h = maxpool2x2(conv2d(h, params[2], params[3], stride=2))
    out = l2_normalize(affine(flatten(h), params[4], params[5]))
    seed = rng.normal(size=out.data.shape)
    out.backward(seed)

    for node in (out, h):
        assert node.grad is None and node._parents == ()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            node.backward(np.ones(node.shape))
    assert h.data is None and out.data is not None
    grads = [t.grad for t in [x] + params]
    assert all(g is not None for g in grads)
    for i, g in enumerate(grads):
        assert not np.may_share_memory(g, seed)
        for other in grads[i + 1 :]:
            assert not np.may_share_memory(g, other)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_maxpool_layouts_match_loop_oracle(layout):
    rng = np.random.default_rng(50)
    batch = 1 if layout == "batch_of_one" else 3
    values = rng.normal(size=(batch, 4, 6, 8))
    values[:, :, 0, 0] = values[:, :, 1, 1] = 5.0  # each first window: a tie for the max
    x_in = _in_layout(values, layout)
    x = Tensor(x_in)
    out = maxpool2x2(x)
    grad = rng.normal(size=out.data.shape)
    out.backward(grad)
    assert out.data.shape == (batch, 4, 3, 4)
    for i in range(batch):
        # a maximum and a routed gradient are copies: exact
        assert np.array_equal(out.data[i], maxpool2x2_loop(x_in[i]))
        assert np.array_equal(x.grad[i], maxpool2x2_backward_loop(x_in[i], grad[i]))


def test_maxpool_ties_and_nan_route_like_argmax():
    nan = float("nan")
    windows = [
        [[1.0, 5.0], [2.0, 5.0]],  # tie between positions 1 and 3
        [[1.0, nan], [3.0, nan]],  # two NaNs: the first one wins
        [[7.0, 1.0], [2.0, nan]],  # a NaN after the largest number
        [[nan, 9.0], [9.0, 1.0]],  # a NaN first
    ]
    x_data = np.concatenate([np.array(wnd) for wnd in windows], axis=1)[None, None]  # [1,1,2,8]
    x = Tensor(x_data)
    out = maxpool2x2(x)
    out.backward(np.arange(1.0, 5.0).reshape(1, 1, 1, 4))
    for k, wnd in enumerate(windows):
        block = x_data[0, 0, :, 2 * k : 2 * k + 2]
        first = int(np.argmax(block))
        assert np.array_equal(out.data[0, 0, 0, k], np.max(block), equal_nan=True)
        expected = np.zeros(4)
        expected[first] = k + 1.0
        assert np.array_equal(x.grad[0, 0, :, 2 * k : 2 * k + 2].ravel(), expected)
    assert [int(np.argmax(np.array(w))) for w in windows] == [1, 1, 3, 0]


def test_affine_identity_and_shapes():
    x = RNG.normal(size=(1, 5))
    out = affine(Tensor(x), Tensor(np.eye(5)), Tensor(np.zeros(5)))
    assert np.array_equal(out.data, x)

    big = affine(
        Tensor(RNG.normal(size=(1, 1152))),
        Tensor(RNG.normal(size=(64, 1152)) * 0.01),
        Tensor(np.zeros(64)),
    )
    assert big.data.shape == (1, 64)


def test_affine_matches_loop_reference():
    x = RNG.normal(size=(1, 9))
    w = RNG.normal(size=(4, 9))
    b = RNG.normal(size=4)
    out = affine(Tensor(x), Tensor(w), Tensor(b))
    assert np.max(np.abs(out.data[0] - affine_loop(x[0], w, b))) < 1e-12


def test_affine_rejects_mismatch():
    with pytest.raises(ShapeError):
        affine(Tensor(np.zeros((1, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(4)))


def test_l2_normalize_values():
    out = l2_normalize(Tensor(np.array([[3.0, 4.0]])))
    assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-15)

    unit = RNG.normal(size=(1, 16))
    unit /= np.linalg.norm(unit)
    assert np.allclose(l2_normalize(Tensor(unit)).data, unit, atol=1e-12)

    vec = RNG.normal(size=(1, 64))
    assert abs(np.linalg.norm(l2_normalize(Tensor(vec)).data) - 1.0) < 1e-9


def test_l2_normalize_rejects_near_zero():
    with pytest.raises(DegenerateInputError):
        l2_normalize(Tensor(np.zeros((1, 8))))


def test_l2_normalize_jacobian_matches_finite_differences():
    vec = Tensor(RNG.normal(size=(1, 64)))
    probe = RNG.normal(size=64)

    def f(t):
        y = l2_normalize(t)
        return Tensor(
            float(y.data[0] @ probe), (y,), lambda g: y.accumulate_grad(float(g) * probe[None])
        )

    assert finite_diff_gradcheck(f, vec, h=1e-6) < 1e-6


@pytest.mark.parametrize("trial", range(5))
def test_all_ops_backward_match_finite_differences(trial):
    rng = np.random.default_rng(100 + trial)
    x = Tensor(rng.normal(size=(1, 2, 6, 6)))
    w = Tensor(rng.normal(size=(3, 2, 3, 3)))
    b = Tensor(rng.normal(size=3))
    assert finite_diff_gradcheck(lambda t: sum_squares(conv2d(t, w, b, 1)), x, 1e-5) < 1e-4
    assert finite_diff_gradcheck(lambda t: sum_squares(conv2d(x, t, b, 2)), w, 1e-5) < 1e-4
    assert finite_diff_gradcheck(lambda t: sum_squares(conv2d(x, w, t, 1)), b, 1e-5) < 1e-4

    # keep relu away from 0 and pooling away from ties
    xr = Tensor(rng.normal(size=(1, 2, 4, 4)) + np.where(rng.normal(size=(1, 2, 4, 4)) > 0, 0.5, -0.5))
    assert finite_diff_gradcheck(lambda t: sum_squares(relu(t)), xr, 1e-6) < 1e-4
    assert finite_diff_gradcheck(lambda t: sum_squares(maxpool2x2(t)), xr, 1e-6) < 1e-4

    xa = Tensor(rng.normal(size=(1, 7)))
    wa = Tensor(rng.normal(size=(4, 7)))
    ba = Tensor(rng.normal(size=4))
    assert finite_diff_gradcheck(lambda t: sum_squares(affine(t, wa, ba)), xa, 1e-6) < 1e-4
    assert finite_diff_gradcheck(lambda t: sum_squares(affine(xa, t, ba)), wa, 1e-6) < 1e-4
    assert finite_diff_gradcheck(lambda t: sum_squares(l2_normalize(t)), Tensor(rng.normal(size=(1, 9))), 1e-6) < 1e-4
    assert finite_diff_gradcheck(lambda t: sum_squares(flatten(t)), xr, 1e-6) < 1e-4


def test_gradcheck_quadratic_is_nearly_exact():
    point = Tensor(RNG.normal(size=12))
    assert finite_diff_gradcheck(sum_squares, point, h=1e-5) < 1e-8


def test_gradcheck_relu_affine_away_from_kinks():
    rng = np.random.default_rng(5)
    w = Tensor(rng.normal(size=(6, 8)))
    b = Tensor(rng.normal(size=6) + 1.0)
    x = Tensor(rng.normal(size=(1, 8)))
    # shift so no pre-activation sits near zero
    pre = w.data @ x.data[0] + b.data
    assert np.min(np.abs(pre)) > 1e-3
    err = finite_diff_gradcheck(lambda t: sum_squares(relu(affine(t, w, b))), x, 1e-5)
    assert err < 1e-5


def test_gradcheck_detects_corrupted_backward():
    def broken(t):
        out = np.sum(t.data * t.data)
        # wrong factor: claims d/dx sum(x^2) = 3x
        return Tensor(out, (t,), lambda g: t.accumulate_grad(3.0 * float(g) * t.data))

    point = Tensor(RNG.normal(size=6) + 2.0)
    assert finite_diff_gradcheck(broken, point, h=1e-5) > 1e-2


def test_gradcheck_rejects_bad_arguments():
    with pytest.raises(ValueError):
        finite_diff_gradcheck(sum_squares, Tensor(np.ones(3)), h=0.0)
    with pytest.raises(ShapeError):
        finite_diff_gradcheck(lambda t: relu(t), Tensor(np.ones(3)), h=1e-5)
    with pytest.raises(DegenerateInputError):
        finite_diff_gradcheck(
            lambda t: Tensor(np.nan, (t,), lambda g: None), Tensor(np.ones(2)), h=1e-5
        )


def test_operations_are_deterministic():
    x = RNG.normal(size=(1, 3, 8, 8))
    w = RNG.normal(size=(4, 3, 3, 3))
    b = RNG.normal(size=4)
    a = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1).data
    c = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1).data
    assert np.array_equal(a, c)
    assert np.array_equal(relu(Tensor(x)).data, relu(Tensor(x)).data)


def test_gradients_accumulate_across_backward_calls():
    w = Tensor(RNG.normal(size=(2, 3)))
    b = Tensor(np.zeros(2))
    for expected in (1, 2):
        out = sum_squares(affine(Tensor(np.ones((1, 3)), requires_grad=False), w, b))
        out.backward()
        assert w.grad is not None
    # second pass doubled the accumulated gradient
    single = Tensor(w.data.copy())
    out = sum_squares(affine(Tensor(np.ones((1, 3)), requires_grad=False), single, Tensor(np.zeros(2))))
    out.backward()
    assert np.allclose(w.grad, 2.0 * single.grad)


def test_second_backward_over_a_spent_graph_raises():
    """A spent root is not mistaken for a leaf: backpropagating it again, or
    a new graph built on it, raises and adds nothing to any gradient."""
    w = Tensor(RNG.normal(size=(2, 3)))
    b = Tensor(np.zeros(2))
    out = sum_squares(affine(Tensor(np.ones((1, 3)), requires_grad=False), w, b))
    out.backward()
    first = w.grad.copy()
    with pytest.raises(RuntimeError, match="already backpropagated"):
        out.backward()
    with pytest.raises(RuntimeError, match="already backpropagated"):
        sum_squares(out).backward()
    assert np.array_equal(w.grad, first)
    assert out.grad is None


def test_ops_over_inputs_without_gradient_record_no_graph():
    def frozen(*shape):
        return Tensor(RNG.normal(size=shape), requires_grad=False)

    x = frozen(2, 3, 8, 8)
    conv = conv2d(x, frozen(4, 3, 3, 3), frozen(4), stride=1)
    flat = flatten(conv)
    outputs = [
        conv,
        relu(conv),
        maxpool2x2(conv),
        flat,
        affine(flat, frozen(5, flat.data.shape[1]), frozen(5)),
        l2_normalize(flat),
        sum_squares(conv),
    ]
    for out in outputs:
        assert out._backward_fn is None
        assert out._parents == ()
        assert not out.requires_grad
    # One input that takes a gradient is enough for the op to record itself.
    tracked = conv2d(x, Tensor(RNG.normal(size=(4, 3, 3, 3))), frozen(4), stride=1)
    assert tracked.requires_grad and tracked._backward_fn is not None
    assert relu(tracked)._parents == (tracked,)


def test_outputs_finite_on_finite_inputs():
    x = Tensor(RNG.normal(size=(1, 2, 10, 10)) * 100)
    w = Tensor(RNG.normal(size=(3, 2, 3, 3)) * 100)
    b = Tensor(RNG.normal(size=3))
    out = maxpool2x2(relu(conv2d(x, w, b, stride=1)))
    assert np.all(np.isfinite(out.data))
