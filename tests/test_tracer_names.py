"""The benchmark's tracer still finds every package name it wraps.

perfbench/tracer.py replaces functions by module attribute name; a rename in
src/ would otherwise only surface when `perfbench/run.py --trace 1` runs.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(tracer_module):
    module = tracer_module
    originals = {
        (name, attr): getattr(module.MODULES[name], attr)
        for name, attr, _ in module.PLAIN_SPANS
    }
    tracer = module.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    for (name, attr), original in originals.items():
        assert getattr(module.MODULES[name], attr) is original


def test_traced_forward_and_backward_record_every_layer(tracer_module):
    """A kernel refactor must not silently zero the per-layer metrics."""
    net = tracer_module.MODULES["net"]
    model = net.init_net(0, net.REDUCED_CHANNELS, net.REDUCED_DESCRIPTOR_DIM)
    pixels = np.random.default_rng(0).uniform(0, 1, (2, 3, 32, 32))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        desc = net.forward(model, pixels)
        desc.backward(np.ones_like(desc.data))
    finally:
        tracer.uninstall()
    names = {span[1] for span in tracer.spans}
    for layer in range(1, tracer_module.CONV_LAYERS + 1):
        assert {f"tensor.conv{layer}.fwd", f"tensor.conv{layer}.bwd"} <= names
    assert {"tensor.maxpool.fwd", "tensor.maxpool.bwd", "net.forward", "net.backward"} <= names
    metrics = tracer_module.layer_metrics(tracer, passes=1)
    assert metrics["tensor.conv.im2col_bytes"][0] > 0
    assert metrics["tensor.conv.col2im_bytes"][0] > 0
    assert metrics["net.forward_patches"][0] == 2


def test_traced_batch_gradients_match_untraced(tracer_module):
    """Per-triplet graphs on worker threads still time every conv backward."""
    from bagdesc.data import BagTriplet, PatchBag
    from bagdesc.matching import MatchConfig

    net = tracer_module.MODULES["net"]
    train = tracer_module.MODULES["train"]
    model = net.init_net(1, net.REDUCED_CHANNELS, net.REDUCED_DESCRIPTOR_DIM)
    rng = np.random.default_rng(1)

    def bag(obj, view):
        return PatchBag(obj, view, rng.uniform(0, 1, (3, 3, 32, 32)))

    triplets = [BagTriplet(bag(k, 0), bag(k, 1), bag(k + 1, 0)) for k in range(3)]
    cfg = MatchConfig(tau=0.9, beta=8.0)
    want_loss, want = train._batch_gradients(model, triplets, cfg, 2)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        loss, grads = train._batch_gradients(model, triplets, cfg, 2)
    finally:
        tracer.uninstall()
    assert loss == want_loss
    assert set(grads) == set(want)
    for name in want:
        assert np.array_equal(grads[name], want[name])
    names = {span[1] for span in tracer.spans}
    assert "train.triplet" in names
    for layer in range(1, tracer_module.CONV_LAYERS + 1):
        assert f"tensor.conv{layer}.bwd" in names


def test_traced_build_dataset_records_the_data_layer(tracer_module):
    """gen-data's per-layer metrics rest on these three wrapped names."""
    data = tracer_module.MODULES["data"]
    want = data.build_dataset(2, 2, 4, 3, image_size=256, patch_radius=8)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        got = data.build_dataset(2, 2, 4, 3, image_size=256, patch_radius=8)
    finally:
        tracer.uninstall()
    for a, b in zip(got.bags, want.bags):
        assert np.array_equal(a.pixels, b.pixels)
    names = [span[1] for span in tracer.spans]
    assert {"data.scene", "data.fast", "data.extract"} <= set(names)
    assert names.count("data.fast") == names.count("data.extract") >= 4
    assert tracer.counts["data.scene_attempts"] == names.count("data.scene") >= 2
    metrics = tracer_module.layer_metrics(tracer, passes=1)
    assert metrics["data.scene_s"][0] > 0


def test_traced_eval_records_the_retrieval_layer(tracer_module, tmp_path):
    """eval's per-layer metrics rest on these wrapped names, and every bag
    of the tuning and target splits is described once per command, on two
    worker threads."""
    from bagdesc.data import load_dataset

    cli = tracer_module.MODULES["cli"]
    net = tracer_module.MODULES["net"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data": {"objects": 7, "views": 2, "bag_size": 6, "image_size": 256, "patch_radius": 8,
                 "train_fraction": 0.45, "val_fraction": 0.3},
        "retrieval": {"tau_grid": [0.05, 0.2], "k_list": [2]},
    }))
    base = ["--config", str(config), "--out", str(tmp_path)]
    assert cli.main(base + ["gen-data"]) == 0
    net.save_net(net.init_net(0), tmp_path / "model.net")
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert cli.main(base + ["--threads", "2", "eval-match"]) == 0
        assert cli.main(base + ["--threads", "2", "eval-vlad"]) == 0
    finally:
        tracer.uninstall()
    names = {span[1] for span in tracer.spans}
    assert {"retrieval.index", "retrieval.sweep_tau", "retrieval.kmeans",
            "retrieval.vlad_encode"} <= names
    # Each worker numbers the convolutions of its own forward passes.
    forwards = [span[1] for span in tracer.spans].count("net.forward")
    for layer in range(1, tracer_module.CONV_LAYERS + 1):
        assert [span[1] for span in tracer.spans].count(f"tensor.conv{layer}.fwd") == forwards
    patches = sum(
        bag.n for split in ("val", "test")
        for bag in load_dataset(tmp_path / f"{split}.bags", split).bags
    )
    assert tracer.counts["net.forward_patches"] == 2 * patches
