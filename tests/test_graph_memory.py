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
from bagdesc.train import triplet_loss

from graph_digests import CFG, triplets

TESTS = Path(__file__).resolve().parent

# Printed by tests/graph_digests.py with one BLAS thread before the backward
# closures stopped holding unread activations; "validate" was recorded
# before `validate` scored the pairs that `_triplet_pairs` builds.
GRAPH_DIGESTS = {
    "loss": "0c7d9bac8c4348f56a7500adde85f168fd0dc016869169e5a81885fdcd28410b",
    "grad.conv1_w": "d0e5e507166ea3b49b358cff5b3ade4f029fa605341c99097ac71f2e0e6664a3",
    "grad.conv1_b": "69d1f107267f8421e42c24da0e1a7bc172a040a47d0623377b538355b899cb53",
    "grad.conv2_w": "0dab3b15b343dcc2b14f052da335350f05c162d504c2567fead1cdb485bf36c3",
    "grad.conv2_b": "686ecb48d89ba0884ddc3626ae83ed93c54a8d5ed1b8e00d4e77ae74660ae18c",
    "grad.conv3_w": "7c7179fb4281d7ad3469d0c500df845ead4a46109d8980aa2e1ca984e6f6818e",
    "grad.conv3_b": "7cd1d08a0b51a6150039cdcf1876d89d5eb540bc04ea3256d58bcb7de26c987f",
    "grad.conv4_w": "070f40c5559b33afda5076336db77da09ddbfe09364ff87ab66c2bf858436bee",
    "grad.conv4_b": "423285b4394688a6c8d7513782539ad557d9896a3260109a81281752e5164b4f",
    "grad.fc_w": "28f4bd49dc7568879f01e11a13a64bd978a8246c1610bc950a205c68b7fd26fe",
    "grad.fc_b": "12f0075b59224c7685e72ceefef76962a0819163a2c2c9ae74baa0f1e3916c8a",
    "batch.threads1": "bec119b676c6be8839897b8a888d0bb8a565c7d5c1f57acb27c95dcd557808bd",
    "batch.threads2": "bec119b676c6be8839897b8a888d0bb8a565c7d5c1f57acb27c95dcd557808bd",
    "describe": "7d075d2149a5f93c26898e03a86979f2476047889dc92db5208811543b012a98",
    "validate": "94291e44ce82bb34d3e86605c99d07ec0891ca7c27e1c386397f49f7a7acb651",
}


def test_training_values_are_pinned():
    """The loss, every gradient and the descriptors keep their bits. The
    script runs on one BLAS thread, which the rest of the suite leaves
    unpinned."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    paths = [str(TESTS.parent / "src"), str(TESTS), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    result = subprocess.run(
        [sys.executable, str(TESTS / "graph_digests.py")],
        env=env, check=True, capture_output=True, text=True, timeout=300,
    )
    assert json.loads(result.stdout) == GRAPH_DIGESTS


def test_triplet_loss_memory_peak():
    """One full-width triplet (3 x 32 patches) forward and backward.

    The traced peak is about 94 MB, reached at the end of the forward pass.
    When relu and maxpool2x2 kept their inputs for backward and `backward`
    freed no activation before replaying the closures, it was 131 MB.
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
    desc = net_module.forward(net, pixels)
    assert seen["output"]() is not None
    desc.backward(np.ones_like(desc.data))
    assert seen["alive at backward"] is False
