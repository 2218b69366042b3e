"""The demos stay runnable: the quick ones run, and the training demo,
which takes minutes, is imported and its helper runs on a few bags."""

import runpy
from pathlib import Path

import numpy as np
import pytest

from bagdesc.data import BagDataset, PatchBag
from bagdesc.net import init_net
from bagdesc.retrieval import build_match_index

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_descriptor_network", "02_bag_matching", "03_synthetic_bags"])
def test_quick_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out


def test_training_demo_imports_and_its_helpers_run():
    demo = runpy.run_path(str(DEMOS / "04_training_and_retrieval.py"))
    assert callable(demo["main"])
    rng = np.random.default_rng(0)
    dataset = BagDataset(
        [PatchBag(obj, view, rng.uniform(0, 1, (4, 3, 32, 32))) for obj in range(3) for view in range(2)],
        4,
    )
    net = init_net(0)
    descs, ids = build_match_index(net, dataset), [bag.object_id for bag in dataset.bags]
    assert 0.0 <= demo["vlad_nn"](net, dataset, descs, ids, k=2) <= 1.0
