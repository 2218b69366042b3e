"""Tour of the descriptor extractor.

Builds the full-width network, walks a patch through every stage as a
one-patch batch (every op and `forward` take a leading batch axis), checks
the unit-norm contract, and runs a finite-difference gradient check on the
narrow variant.
"""

import numpy as np

from bagdesc.net import (
    REDUCED_CHANNELS,
    REDUCED_DESCRIPTOR_DIM,
    forward,
    init_net,
)
from bagdesc.tensor import (
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


def main():
    net = init_net(seed=0)
    print(f"network parameters: {net.param_count:,}")

    rng = np.random.default_rng(0)
    patch = rng.uniform(0.0, 1.0, (1, 3, 32, 32))  # a one-patch batch
    p = net.params
    x = Tensor(patch)
    stages = [("input", x)]
    x = relu(conv2d(x, p["conv1_w"], p["conv1_b"], stride=1))
    stages.append(("conv1 + relu", x))
    x = relu(conv2d(x, p["conv2_w"], p["conv2_b"], stride=2))
    stages.append(("conv2 (stride 2) + relu", x))
    x = conv2d(x, p["conv3_w"], p["conv3_b"], stride=1)
    stages.append(("conv3", x))
    x = maxpool2x2(x)
    stages.append(("maxpool 2x2", x))
    x = conv2d(x, p["conv4_w"], p["conv4_b"], stride=1)
    stages.append(("conv4 (1x1)", x))
    x = flatten(x)
    stages.append(("flatten", x))
    x = l2_normalize(affine(x, p["fc_w"], p["fc_b"]))
    stages.append(("fc + l2 normalize", x))
    for name, tensor in stages:
        print(f"  {name:26s} -> {tensor.data.shape}")

    descriptor = forward(net, patch).data
    print(f"descriptor norm: {np.linalg.norm(descriptor):.12f}")

    print("\ngradient check on the narrow variant (same topology):")
    small = init_net(seed=1, channels=REDUCED_CHANNELS, descriptor_dim=REDUCED_DESCRIPTOR_DIM)

    def objective(t):
        small.params["fc_w"], saved = t, small.params["fc_w"]
        try:
            return sum_squares(forward(small, patch))
        finally:
            small.params["fc_w"] = saved

    err = finite_diff_gradcheck(objective, small.params["fc_w"], h=1e-6)
    print(f"  fc weights: max relative error vs central differences = {err:.2e}")


if __name__ == "__main__":
    main()
