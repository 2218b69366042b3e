"""The patch descriptor extractor: a small convolutional network.

Maps a 32x32 RGB patch (values in [0,1]) to a unit-length 64-dim vector via
conv(3x3) -> ReLU -> conv(4x4, stride 2) -> ReLU -> conv(3x3) -> maxpool 2x2
-> conv(1x1) -> flatten -> fully connected -> L2 normalize. The third and
fourth convolutions carry no activation. Default widths give 185,504
parameters; a narrower variant with the same topology exists for gradient
checking.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .files import atomic_write
from .tensor import (
    DegenerateInputError,
    ShapeError,
    Tensor,
    affine,
    conv2d,
    flatten,
    l2_normalize,
    maxpool2x2,
    relu,
)

__all__ = [
    "DescriptorNet",
    "IntegrityError",
    "FULL_CHANNELS",
    "FULL_DESCRIPTOR_DIM",
    "FULL_PARAM_COUNT",
    "REDUCED_CHANNELS",
    "REDUCED_DESCRIPTOR_DIM",
    "init_net",
    "forward",
    "forward_bag",
    "describe",
    "describe_bags",
    "save_net",
    "load_net",
]

PATCH_SHAPE = (3, 32, 32)
# (kernel_h, kernel_w, stride) of the four convolutions, in order.
CONV_GEOMETRY = ((3, 3, 1), (4, 4, 2), (3, 3, 1), (1, 1, 1))
FULL_CHANNELS = (32, 64, 128, 32)
FULL_DESCRIPTOR_DIM = 64
FULL_PARAM_COUNT = 185_504
REDUCED_CHANNELS = (4, 8, 16, 4)
REDUCED_DESCRIPTOR_DIM = 8

MODEL_MAGIC = b"WLRNNET1"


class IntegrityError(ValueError):
    """A model file that fails structural or numeric validation."""


def _layer_shapes(channels, descriptor_dim):
    """Per-parameter-tensor shapes (weights then bias per layer, fc last)."""
    shapes = []
    cin = PATCH_SHAPE[0]
    spatial = PATCH_SHAPE[1]
    for layer, (cout, (kh, kw, stride)) in enumerate(zip(channels, CONV_GEOMETRY)):
        shapes.append((cout, cin, kh, kw))
        shapes.append((cout,))
        spatial = (spatial - kh) // stride + 1
        if layer == 2:
            spatial //= 2  # pooling follows the third convolution
        cin = cout
    flat = channels[-1] * spatial * spatial
    shapes.append((descriptor_dim, flat))
    shapes.append((descriptor_dim,))
    return shapes


class DescriptorNet:
    """Parameter container for the extractor, with named layer groups. Nets
    from `init_net` and `load_net` are read-only: their leaves take no gradient."""

    PARAM_NAMES = ("conv1_w", "conv1_b", "conv2_w", "conv2_b", "conv3_w",
                   "conv3_b", "conv4_w", "conv4_b", "fc_w", "fc_b")

    def __init__(self, params: dict[str, Tensor], channels=FULL_CHANNELS,
                 descriptor_dim=FULL_DESCRIPTOR_DIM):
        expected = _layer_shapes(channels, descriptor_dim)
        for name, shape in zip(self.PARAM_NAMES, expected):
            tensor = params.get(name)
            if tensor is None:
                raise ShapeError(f"missing parameter group {name}")
            if tensor.data.shape != shape:
                raise ShapeError(f"{name} has shape {tensor.data.shape}, expected {shape}")
            if not np.all(np.isfinite(tensor.data)):
                raise IntegrityError(f"{name} contains non-finite values")
        self.params = {name: params[name] for name in self.PARAM_NAMES}
        self.channels = tuple(channels)
        self.descriptor_dim = descriptor_dim

    @property
    def param_count(self) -> int:
        return sum(t.data.size for t in self.params.values())


def init_net(seed: int, channels=FULL_CHANNELS,
             descriptor_dim=FULL_DESCRIPTOR_DIM) -> DescriptorNet:
    """Fresh read-only network: uniform weights scaled by 1/sqrt(fan_in), zero biases."""
    rng = np.random.Generator(np.random.PCG64(seed))
    params: dict[str, Tensor] = {}
    for name, shape in zip(DescriptorNet.PARAM_NAMES, _layer_shapes(channels, descriptor_dim)):
        if name.endswith("_b"):
            params[name] = Tensor(np.zeros(shape), requires_grad=False)
        else:
            fan_in = int(np.prod(shape[1:]))
            scale = 1.0 / np.sqrt(fan_in)
            params[name] = Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=False)
    return DescriptorNet(params, channels, descriptor_dim)


def forward(net: DescriptorNet, patches) -> Tensor:
    """Descriptors of a stack of patches, [B,3,32,32] with B >= 1.

    The pixels (float32 as bags hold them, or float64) are widened to
    float64 straight into the batch-innermost [3,32,32,B] layout that conv1
    reads, in one copy, so every activation, gradient and descriptor is
    float64. Returns a [B, descriptor_dim] Tensor of unit rows. Over a
    read-only net it records no graph; over `train._graph`'s leaves it
    records one, whose ReLUs write their outputs over conv1's and conv2's
    and whose `backward` releases its activations, so read none of them
    afterwards. Raises ShapeError on any other shape and
    DegenerateInputError when a pre-normalization row vanishes.
    """
    pixels = np.asarray(patches)
    if pixels.ndim != 4 or pixels.shape[1:] != PATCH_SHAPE or pixels.shape[0] < 1:
        raise ShapeError(f"expected [B,3,32,32] pixels with B >= 1, got {pixels.shape}")
    wide = np.empty(PATCH_SHAPE + pixels.shape[:1])
    wide[...] = pixels.transpose(1, 2, 3, 0)
    p = net.params
    x = Tensor(wide.transpose(3, 0, 1, 2), requires_grad=False)
    x = relu(conv2d(x, p["conv1_w"], p["conv1_b"], stride=1))
    x = relu(conv2d(x, p["conv2_w"], p["conv2_b"], stride=2))
    x = maxpool2x2(conv2d(x, p["conv3_w"], p["conv3_b"], stride=1))
    x = conv2d(x, p["conv4_w"], p["conv4_b"], stride=1)
    x = affine(flatten(x), p["fc_w"], p["fc_b"])
    return l2_normalize(x)


def forward_bag(net: DescriptorNet, pixels: np.ndarray) -> Tensor:
    """`forward` of one bag's [n,3,32,32] pixels: one row per patch."""
    return forward(net, pixels)


def describe(net: DescriptorNet, pixels: np.ndarray) -> np.ndarray:
    """The rows of `forward` over [B,3,32,32] pixels, as an array."""
    return forward(net, pixels).data


def describe_bags(net: DescriptorNet, stacks, threads: int = 1) -> list[np.ndarray]:
    """`describe` of each pixel stack, one stack per task on `threads` workers.

    Every stack is described alone, so the result is the same, bit for bit,
    at any thread count.
    """
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda stack: describe(net, stack), stacks))


def save_net(net: DescriptorNet, path) -> None:
    """Write magic, a JSON header (shapes + count), then float32 parameters.

    Parameters are stored little-endian float32 in layer order (weights then
    bias), row-major; they widen back to float64 on load. The file appears
    only once complete (`files.atomic_write`).
    """
    shapes = [list(net.params[name].data.shape) for name in net.PARAM_NAMES]
    header = json.dumps({"shapes": shapes, "count": net.param_count}) + "\n"
    with atomic_write(path) as fh:
        fh.write(MODEL_MAGIC)
        fh.write(header.encode("ascii"))
        for name in net.PARAM_NAMES:
            fh.write(net.params[name].data.astype("<f4").tobytes())


def load_net(path) -> DescriptorNet:
    """Read a model file back as a read-only net; rejects bad magic, shapes, count or values."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise IntegrityError(f"bad magic {raw[: len(MODEL_MAGIC)]!r}")
    newline = raw.find(b"\n", len(MODEL_MAGIC))
    if newline < 0:
        raise IntegrityError("truncated header")
    try:
        header = json.loads(raw[len(MODEL_MAGIC) : newline].decode("ascii"))
        shapes = [tuple(s) for s in header["shapes"]]
        count = header["count"]
    except (ValueError, KeyError, TypeError) as exc:
        raise IntegrityError(f"malformed header: {exc}") from exc
    # The conv and fc output widths in the header fix every other shape.
    widths = [s[0] for s in shapes[::2] if s and type(s[0]) is int and s[0] > 0]
    expected = _layer_shapes(widths[:-1], widths[-1]) if len(widths) == 5 else None
    if shapes != expected:
        raise ShapeError(f"layer shapes {shapes} do not match the expected architecture")
    total = sum(int(np.prod(shape)) for shape in expected)
    if type(count) is not int or count != total:
        raise ShapeError(f"parameter count {count!r} != {total}")
    payload = raw[newline + 1 :]
    if len(payload) != 4 * count:
        raise IntegrityError(
            f"parameter payload has {len(payload)} bytes, expected {4 * count}"
        )
    values = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    params: dict[str, Tensor] = {}
    offset = 0
    for name, shape in zip(DescriptorNet.PARAM_NAMES, expected):
        size = int(np.prod(shape))
        params[name] = Tensor(values[offset : offset + size].reshape(shape), requires_grad=False)
        offset += size
    return DescriptorNet(params, tuple(widths[:-1]), widths[-1])
