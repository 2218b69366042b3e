"""What one training graph holds, and that holding less changed no bit.

A `--threads` worker keeps one triplet's autograd graph alive at a time, so
its peak memory is paid once per worker.
"""

import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np

from bagdesc import net as net_module
from bagdesc.net import REDUCED_CHANNELS, REDUCED_DESCRIPTOR_DIM, init_net
from bagdesc.tensor import Tensor
from bagdesc.train import _batch_gradients, _graph, triplet_loss

from graph_digests import CFG, triplets

TESTS = Path(__file__).resolve().parent

# Printed by tests/graph_digests.py with one BLAS thread before the backward
# closures stopped holding unread activations; "validate" was recorded
# before `validate` scored the pairs that `_triplet_pairs` builds. The
# "grad.conv*" and "batch.*" values were re-pinned when conv2d's backward
# began to skip the batch entries whose gradient is zero: the weight and
# bias gradients then sum over fewer columns, and moved by at most 4.6e-15
# of their largest entry. "batch.threads*" were re-pinned again when
# `_batch_gradients` began to backpropagate a bag that several triplets
# share once, on its summed row gradients: the fixture's triplets share
# the bags (k + 1, 0), whose parameter gradients are now added after the
# triplets' instead of inside them, a different association of the same
# sum. Their loss kept its bits. "batch.unshared", a batch that shares no
# bag, was recorded before that change and runs the same path; its bags
# are those the fixture held before a repeated (object, view) named one
# bag, so it equals the earlier "batch.threads*" value.
GRAPH_DIGESTS = {
    "loss": "0c7d9bac8c4348f56a7500adde85f168fd0dc016869169e5a81885fdcd28410b",
    "grad.conv1_w": "71ae949ddc8bf63da4269e33840cda0078f9f64183841cd2cad2a27c610adef7",
    "grad.conv1_b": "613d259c8751ca0afab71b0cdc6d41e34dbdd1a27b42631cc38279b69f07535d",
    "grad.conv2_w": "dfdbe99816eb54aa2ad0c7b2670d6f06943a9ddc76b3a098d2ee9d78889d9908",
    "grad.conv2_b": "be8dda41023695cbd9bb724806cde0068c8030920b20bc0768ff20eb3d2f3f3c",
    "grad.conv3_w": "c9e1954ff106375e38c57332ec3a52cf3f78b25bd7e720fbfae1cebc502b1573",
    "grad.conv3_b": "502c25d9e89633e06ea000a8574504b5afa0e1bd6549f0f29ecdf67150c6302a",
    "grad.conv4_w": "57c89423a5f25fb11048db9ca52cd8c1d718dcab039720b3d80c9220664f1a2b",
    "grad.conv4_b": "906883b557e7e4f1aa796a977782b15fbd2005a0a73e114a0f0490413822683b",
    "grad.fc_w": "28f4bd49dc7568879f01e11a13a64bd978a8246c1610bc950a205c68b7fd26fe",
    "grad.fc_b": "12f0075b59224c7685e72ceefef76962a0819163a2c2c9ae74baa0f1e3916c8a",
    "batch.threads1": "bb167a4564d703da289391d0e60ae4e5e38ad596f2ff4878b3ef4a5053858d5f",
    "batch.threads2": "bb167a4564d703da289391d0e60ae4e5e38ad596f2ff4878b3ef4a5053858d5f",
    "batch.unshared": "976779561f90e1e0ce3f9c37d6c2cbcaa3acb0b4bd0c91e457e927f3ce682c37",
    "describe": "7d075d2149a5f93c26898e03a86979f2476047889dc92db5208811543b012a98",
    "validate": "94291e44ce82bb34d3e86605c99d07ec0891ca7c27e1c386397f49f7a7acb651",
}


def _one_blas_thread(*args: str) -> str:
    """Standard output of `python args` on one BLAS thread, which the rest
    of the suite leaves unpinned, with the package and tests importable."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    paths = [str(TESTS.parent / "src"), str(TESTS), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    result = subprocess.run(
        [sys.executable, *args], env=env, check=True, capture_output=True, text=True, timeout=300,
    )
    return result.stdout


def test_training_values_are_pinned():
    """The loss, every gradient and the descriptors keep their bits."""
    assert json.loads(_one_blas_thread(str(TESTS / "graph_digests.py"))) == GRAPH_DIGESTS


# Each bag of a full-width triplet at each of the three positions of a
# 96-patch `forward` stack, against the bag described alone.
ROWS_BY_POSITION = """
import numpy as np
from bagdesc.net import describe, forward, init_net
from graph_digests import triplets

net = init_net(0)
t = triplets(1)[0]
bags = [t.anchor, t.positive, t.negative]
n = t.anchor.n
alone = [describe(net, bag.pixels) for bag in bags]
same = []
for shift in range(3):
    order = bags[shift:] + bags[:shift]
    stacked = forward(net, np.concatenate([bag.pixels for bag in order])).data
    for position, bag in enumerate(order):
        same.append(np.array_equal(stacked[position * n : (position + 1) * n], alone[bags.index(bag)]))
print(len(same), all(same))
"""


def test_bag_rows_do_not_depend_on_their_stack():
    """A bag's descriptor rows keep their bits whether it is described alone
    or sits at any position of a triplet's stack. `_batch_gradients` rests
    on this: a shared bag's rows come from describing it alone, and every
    loss is the one `triplet_loss` gives the whole triplet."""
    assert _one_blas_thread("-c", ROWS_BY_POSITION).split() == ["9", "True"]


def test_triplet_loss_memory_peak():
    """One full-width triplet (3 x 32 patches) forward and backward.

    The traced peak is about 92 MB, reached inside the forward pass, which
    leaves about 86 MB at its end. When relu and maxpool2x2 kept their
    inputs for backward and `backward` freed no activation before
    replaying the closures, it was 131 MB.
    """
    net = init_net(0)
    triplet = triplets(1)[0]
    tracemalloc.start()
    try:
        triplet_loss(net, triplet, CFG)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 100e6


def test_batch_gradients_hold_one_triplet_and_the_running_sum():
    """Eight full-width triplets on one worker: the first six share the bags
    (k + 1, 0) and the last two share none, so each of those forwards all
    96 patches. The batch's traced peak stays within one unshared
    triplet's, plus the running sum (1.5 MB), plus 3 MB of slack: the
    previous triplet's gradients, which the summing loop still holds while
    the next triplet runs (1.5 MB), and the shared bags' rows and row
    gradients. Measured: 3.2 MB over one triplet; keeping every triplet's
    gradients until the end gave 10.7 MB.
    """
    net = init_net(0)
    batch = triplets(6) + triplets(8, stride=2)[6:]
    running_sum = sum(p.data.nbytes for p in net.params.values())
    tracemalloc.start()
    try:
        triplet_loss(net, batch[-1], CFG)
        _, one_triplet = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        _batch_gradients(net, batch, CFG, threads=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= one_triplet + running_sum + 3e6


def test_triplet_loss_backward_stays_below_the_end_of_its_forward(monkeypatch):
    """The backward of one full-width triplet holds no more traced memory
    than its forward left behind: about 86.4 MB, which the walk holds only
    as it starts. Each convolution's backward compacts its gradient in place
    and works in one input-sized buffer, so none of them passes about 72 MB.
    The allowance covers the seed copy and the walk's node list (about 50 kB).
    """
    net = init_net(0)
    triplet = triplets(1)[0]
    real_backward = Tensor.backward
    seen = {}

    def backward(self, seed=None):
        seen["forward end"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        real_backward(self, seed)
        seen["backward peak"] = tracemalloc.get_traced_memory()[1]

    monkeypatch.setattr(Tensor, "backward", backward)
    tracemalloc.start()
    try:
        triplet_loss(net, triplet, CFG)
    finally:
        tracemalloc.stop()
    assert seen["backward peak"] <= seen["forward end"] + 1e6


def test_conv1_output_is_freed_before_its_backward_runs(monkeypatch):
    """Nothing reads conv1's output in backward: relu's closure masks with
    its own output, so `backward` frees conv1's output before the walk
    reaches conv1."""
    net = init_net(3, REDUCED_CHANNELS, REDUCED_DESCRIPTOR_DIM)
    pixels = np.random.default_rng(3).uniform(0.0, 1.0, (4, 3, 32, 32))
    real_conv2d = net_module.conv2d
    seen = {}

    def conv2d(x, weights, bias, stride=1):
        out = real_conv2d(x, weights, bias, stride=stride)
        if "output" not in seen:
            seen["output"] = weakref.ref(out.data.base)  # the array that owns the memory
            backward = out._backward_fn

            def checked(grad):
                seen["alive at backward"] = seen["output"]() is not None
                backward(grad)

            out._backward_fn = checked
        return out

    monkeypatch.setattr(net_module, "conv2d", conv2d)
    desc, params = _graph(net, pixels)
    assert seen["output"]() is not None
    desc.backward(np.ones_like(desc.data))
    assert params["conv1_w"].grad is not None
    assert seen["alive at backward"] is False
