"""Descriptor network: shapes, parameter count, serialization, gradients."""

import json
import time
import tracemalloc

import numpy as np
import pytest

from bagdesc.data import BagTriplet, PatchBag
from bagdesc.matching import MatchConfig
from bagdesc.net import (
    FULL_CHANNELS,
    FULL_DESCRIPTOR_DIM,
    FULL_PARAM_COUNT,
    MODEL_MAGIC,
    IntegrityError,
    REDUCED_CHANNELS,
    REDUCED_DESCRIPTOR_DIM,
    describe,
    forward,
    forward_bag,
    init_net,
    load_net,
    save_net,
)
from bagdesc.tensor import (
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
)
from bagdesc.train import _batch_gradients, _graph, triplet_loss, validate

RNG = np.random.default_rng(42)


def random_patch(rng):
    return rng.uniform(0.0, 1.0, (1, 3, 32, 32))


def test_param_count_is_exact():
    for seed in (0, 1, 99):
        assert init_net(seed).param_count == FULL_PARAM_COUNT == 185_504


def test_init_deterministic_and_seed_sensitive():
    a, b = init_net(5), init_net(5)
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data)
    c = init_net(6)
    assert any(
        not np.array_equal(a.params[name].data, c.params[name].data) for name in a.params
    )


def test_init_scales_and_zero_biases():
    net = init_net(3)
    for name, tensor in net.params.items():
        if name.endswith("_b"):
            assert np.array_equal(tensor.data, np.zeros_like(tensor.data))
        else:
            fan_in = int(np.prod(tensor.data.shape[1:]))
            bound = 1.0 / np.sqrt(fan_in)
            assert np.max(np.abs(tensor.data)) <= bound
            # uniform draws should come close to the bound
            assert np.max(np.abs(tensor.data)) > 0.8 * bound


def test_forward_pipeline_shapes_layer_by_layer():
    net = init_net(0)
    p = net.params
    x = Tensor(random_patch(RNG))
    a1 = relu(conv2d(x, p["conv1_w"], p["conv1_b"], stride=1))
    assert a1.data.shape == (1, 32, 30, 30)
    a2 = relu(conv2d(a1, p["conv2_w"], p["conv2_b"], stride=2))
    assert a2.data.shape == (1, 64, 14, 14)
    a3 = conv2d(a2, p["conv3_w"], p["conv3_b"], stride=1)
    assert a3.data.shape == (1, 128, 12, 12)
    a3p = maxpool2x2(a3)
    assert a3p.data.shape == (1, 128, 6, 6)
    a4 = conv2d(a3p, p["conv4_w"], p["conv4_b"], stride=1)
    assert a4.data.shape == (1, 32, 6, 6)
    flat = flatten(a4)
    assert flat.data.shape == (1, 1152)
    out = l2_normalize(affine(flat, p["fc_w"], p["fc_b"]))
    assert out.data.shape == (1, 64)
    assert np.array_equal(out.data, forward(net, x.data).data)


def test_forward_unit_norm_and_determinism():
    net = init_net(7)
    patch = random_patch(np.random.default_rng(3))
    d1 = forward(net, patch).data
    d2 = forward(net, patch).data
    assert abs(np.linalg.norm(d1) - 1.0) < 1e-9
    assert np.array_equal(d1, d2)


def test_forward_rejects_wrong_shape():
    with pytest.raises(ShapeError):
        forward(init_net(0), np.zeros((1, 3, 16, 16)))


# Each entry point fed its unbatched form: one patch, one activation map or
# one row instead of a stack of them.
UNBATCHED_CALLS = {
    "conv2d": lambda net: conv2d(Tensor(np.full((3, 32, 32), 0.5)), net.params["conv1_w"], net.params["conv1_b"]),
    "maxpool2x2": lambda net: maxpool2x2(Tensor(np.full((4, 6, 6), 0.5))),
    "flatten": lambda net: flatten(Tensor(np.full((4, 6, 6), 0.5))),
    "affine": lambda net: affine(Tensor(np.full(144, 0.5)), net.params["fc_w"], net.params["fc_b"]),
    "l2_normalize": lambda net: l2_normalize(Tensor(np.full(8, 0.5))),
    "forward": lambda net: forward(net, np.full((3, 32, 32), 0.5)),
    "forward_bag": lambda net: forward_bag(net, np.full((3, 32, 32), 0.5)),
    "describe": lambda net: describe(net, np.full((3, 32, 32), 0.5)),
}


@pytest.mark.parametrize("entry", sorted(UNBATCHED_CALLS))
def test_unbatched_input_raises_shape_error(entry):
    net = init_net(0, channels=REDUCED_CHANNELS, descriptor_dim=REDUCED_DESCRIPTOR_DIM)
    with pytest.raises(ShapeError):
        UNBATCHED_CALLS[entry](net)


def test_describe_rejects_an_empty_stack_as_forward_bag_does():
    for reject in (describe, forward_bag):
        with pytest.raises(ShapeError, match=r"got \(0, 3, 32, 32\)"):
            reject(init_net(0), np.zeros((0, 3, 32, 32)))


def test_zero_patch_with_zero_biases_is_degenerate():
    net = init_net(0)  # biases start at zero
    with pytest.raises(DegenerateInputError):
        forward(net, np.zeros((1, 3, 32, 32)))


def test_forward_bag_rows():
    net = init_net(1)
    rng = np.random.default_rng(0)
    patch = random_patch(rng)
    same = np.concatenate([patch] * 5)
    rows = forward_bag(net, same).data
    assert rows.shape == (5, 64)
    for i in range(1, 5):
        # BLAS tail blocks can round identical columns apart by 1 ulp
        assert np.max(np.abs(rows[0] - rows[i])) < 1e-12

    stack = rng.uniform(0, 1, (32, 3, 32, 32))
    rows = forward_bag(net, stack).data
    assert rows.shape == (32, 64)
    norms = np.linalg.norm(rows, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9
    gram_diag = np.diag(rows @ rows.T)
    assert np.max(np.abs(gram_diag - 1.0)) < 1e-8


def test_describe_matches_forward():
    net = init_net(4, channels=REDUCED_CHANNELS, descriptor_dim=REDUCED_DESCRIPTOR_DIM)
    stack = np.random.default_rng(8).uniform(0, 1, (515, 3, 32, 32))
    a = describe(net, stack)
    b = forward_bag(net, stack).data
    assert np.max(np.abs(a - b)) < 1e-12


def test_float32_pixels_give_the_float64_bits():
    """The net widens float32 pixels at its input, so every descriptor
    equals that of the same values passed as float64."""
    net = init_net(4, channels=REDUCED_CHANNELS, descriptor_dim=REDUCED_DESCRIPTOR_DIM)
    narrow = np.random.default_rng(10).uniform(0, 1, (259, 3, 32, 32))
    narrow = narrow.astype(np.float32)
    wide = narrow.astype(np.float64)
    assert np.array_equal(forward(net, narrow[:1]).data, forward(net, wide[:1]).data)
    assert np.array_equal(forward_bag(net, narrow[:5]).data, forward_bag(net, wide[:5]).data)
    assert np.array_equal(describe(net, narrow), describe(net, wide))


def test_forward_over_frozen_leaves_records_no_graph(tmp_path):
    """A net from `init_net` or `load_net` is read-only: its leaves take no
    gradient, so `forward` records no graph, `describe` gives its rows, and
    the training gradients (a shared bag included) and validation build
    their graphs elsewhere, leaving every leaf's `grad` unset."""
    net = init_net(4, channels=REDUCED_CHANNELS, descriptor_dim=REDUCED_DESCRIPTOR_DIM)
    save_net(net, tmp_path / "model.net")
    stack = np.random.default_rng(9).uniform(0, 1, (5, 3, 32, 32))
    rng = np.random.default_rng(10)
    bags = [PatchBag(k // 2, k % 2, rng.uniform(0, 1, (4, 3, 32, 32))) for k in range(4)]
    # Both triplets hold the bags (0, 0) and (1, 0), so the batch shares them.
    triplets = [BagTriplet(bags[0], bags[1], bags[2]), BagTriplet(bags[2], bags[3], bags[0])]
    cfg = MatchConfig(tau=0.5, beta=10.0)
    for model in (net, load_net(tmp_path / "model.net")):
        assert not any(p.requires_grad for p in model.params.values())
        out = forward(model, stack)
        assert out._backward_fn is None
        assert out._parents == ()
        assert not out.requires_grad
        assert np.array_equal(describe(model, stack), out.data)
        triplet_loss(model, triplets[0], cfg)
        _batch_gradients(model, triplets, cfg, threads=2)
        validate(model, triplets, cfg)
        assert all(p.grad is None for p in model.params.values())


def test_describe_memory_peak():
    """Describing one full-width 32-patch bag keeps no activation alive
    after the next layer has read it.

    The traced peak is about 14.7 MB: conv1's output and its ReLU, 7.4 MB
    each, while both exist. A forward that records its graph keeps every
    activation and the convolutions' saved inputs, about 30 MB.
    """
    net = init_net(0)
    pixels = np.random.default_rng(19).uniform(0.0, 1.0, (32, 3, 32, 32))
    tracemalloc.start()
    try:
        describe(net, pixels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 22e6


def test_load_rejects_header_without_newline_quickly(tmp_path):
    """A corrupt file with no header newline is rejected after one read,
    not one byte at a time."""
    path = tmp_path / "no_newline.net"
    path.write_bytes(MODEL_MAGIC + b"{" * 4_000_000)
    start = time.perf_counter()
    with pytest.raises(IntegrityError, match="truncated header"):
        load_net(path)
    assert time.perf_counter() - start < 5.0


def test_save_load_round_trip(tmp_path):
    net = init_net(11)
    path = tmp_path / "model.net"
    save_net(net, path)
    loaded = load_net(path)
    # disk format is float32; the first save quantizes, after that the
    # round trip is exact
    for name in net.params:
        assert np.array_equal(
            loaded.params[name].data, net.params[name].data.astype(np.float32).astype(np.float64)
        )
    path2 = tmp_path / "model2.net"
    save_net(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()
    reloaded = load_net(path2)
    probe = random_patch(np.random.default_rng(2))
    assert np.array_equal(forward(loaded, probe).data, forward(reloaded, probe).data)


def test_load_rejects_corruption(tmp_path):
    net = init_net(0)
    path = tmp_path / "model.net"
    save_net(net, path)
    raw = path.read_bytes()

    truncated = tmp_path / "truncated.net"
    truncated.write_bytes(raw[:-17])
    with pytest.raises(IntegrityError):
        load_net(truncated)

    bad_magic = tmp_path / "magic.net"
    bad_magic.write_bytes(b"XXXXXXXX" + raw[8:])
    with pytest.raises(IntegrityError):
        load_net(bad_magic)

    nan_payload = tmp_path / "nan.net"
    header_end = raw.index(b"\n") + 1
    payload = bytearray(raw)
    payload[header_end : header_end + 4] = np.array([np.nan], "<f4").tobytes()
    nan_payload.write_bytes(bytes(payload))
    with pytest.raises(IntegrityError, match="conv1_w"):
        load_net(nan_payload)


def test_save_load_round_trip_reduced_width(tmp_path):
    net = init_net(3, channels=REDUCED_CHANNELS, descriptor_dim=REDUCED_DESCRIPTOR_DIM)
    path = tmp_path / "small.net"
    save_net(net, path)
    loaded = load_net(path)
    assert loaded.channels == REDUCED_CHANNELS
    assert loaded.descriptor_dim == REDUCED_DESCRIPTOR_DIM
    for name in net.params:
        assert np.array_equal(
            loaded.params[name].data, net.params[name].data.astype(np.float32).astype(np.float64)
        )
    path2 = tmp_path / "small2.net"
    save_net(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def _rewrite_header(raw: bytes, edit) -> bytes:
    header_end = raw.index(b"\n") + 1
    header = json.loads(raw[len(MODEL_MAGIC):header_end])
    edit(header)
    return MODEL_MAGIC + (json.dumps(header) + "\n").encode("ascii") + raw[header_end:]


def test_load_rejects_wrong_parameter_count(tmp_path):
    for channels, dim in ((FULL_CHANNELS, FULL_DESCRIPTOR_DIM), (REDUCED_CHANNELS, REDUCED_DESCRIPTOR_DIM)):
        path = tmp_path / "model.net"
        save_net(init_net(0, channels=channels, descriptor_dim=dim), path)
        raw = path.read_bytes()

        def miscount(header):
            header["count"] += 1

        def widen_conv2(header):  # conv2's output no longer feeds conv3
            header["shapes"][2][0] += 1
            header["shapes"][3][0] += 1

        def drop_fc_bias(header):
            del header["shapes"][-1]

        def float_width(header):
            header["shapes"][0][0] = float(header["shapes"][0][0])

        def fractional_count(header):  # int() would truncate it to the right count
            header["count"] += 0.5

        for edit in (miscount, widen_conv2, drop_fc_bias, float_width, fractional_count):
            path.write_bytes(_rewrite_header(raw, edit))
            with pytest.raises(ShapeError):
                load_net(path)


def test_reduced_net_end_to_end_gradients():
    net = init_net(9, channels=REDUCED_CHANNELS, descriptor_dim=REDUCED_DESCRIPTOR_DIM)
    rng = np.random.default_rng(17)
    patch = rng.uniform(0.05, 0.95, (1, 3, 32, 32))
    probe = rng.normal(size=REDUCED_DESCRIPTOR_DIM)
    for name in net.params:
        original = net.params[name]

        def objective(t, name=name, original=original):
            net.params[name] = t
            try:
                d = forward(net, patch)
                return Tensor(
                    float(d.data[0] @ probe), (d,), lambda g: d.accumulate_grad(float(g) * probe[None])
                )
            finally:
                net.params[name] = original

        assert finite_diff_gradcheck(objective, original, h=1e-6) < 1e-4


def test_zero_seed_rows_backpropagate_as_if_their_patches_were_absent():
    """A seed row of zeros, as `triplet_loss` gives every patch that is no
    anchor row's nearest neighbour, changes no parameter gradient: the
    backward over all 12 patches matches one over the 7 live patches alone.

    The convolutions' backward skips the zero rows, so both run the same
    weight-gradient products; the forward batches differ in size, which
    moves the activations by a few ulps. 1e-12 of each gradient's largest
    entry bounds that (about 1e-15 here).
    """
    pixels = np.random.default_rng(30).uniform(0.0, 1.0, (12, 3, 32, 32))
    seed = np.random.default_rng(31).normal(size=(12, FULL_DESCRIPTOR_DIM))
    live = [1, 2, 5, 6, 8, 9, 10]
    dead = [i for i in range(12) if i not in live]
    seed[dead] = 0.0
    net = init_net(0)
    grads = []
    for rows in (slice(None), live):
        desc, params = _graph(net, pixels[rows])
        desc.backward(seed[rows])
        grads.append({name: p.grad for name, p in params.items()})
        assert all(g is not None for g in grads[-1].values())
    for name, whole in grads[0].items():
        alone = grads[1][name]
        assert np.max(np.abs(whole - alone)) <= 1e-12 * np.max(np.abs(alone)), name


def test_full_width_forward_backward_memory_peak():
    """One 96-patch forward and backward holds no convolution column matrix
    and frees each activation gradient once its node's backward has run.

    The traced peak is about 91 MB, at the end of the forward pass. Keeping
    the activations that no closure reads through the backward walk raises
    it to about 127 MB, activation gradients kept until the graph is
    dropped to about 180 MB, and a stored [C*kh*kw, Ho*Wo*B] matrix per
    convolution (77 MB at conv2, 64 MB at conv3) to about 350.
    """
    net = init_net(0)
    pixels = np.random.default_rng(18).uniform(0.0, 1.0, (96, 3, 32, 32))
    tracemalloc.start()
    try:
        desc, params = _graph(net, pixels)
        desc.backward(np.ones_like(desc.data))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(p.grad is not None for p in params.values())
    assert peak <= 150e6
