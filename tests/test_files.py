"""Outputs appear whole or not at all."""

import numpy as np
import pytest

from bagdesc.data import load_dataset, save_dataset
from bagdesc.files import atomic_write
from bagdesc.net import init_net, load_net, save_net
from bagdesc.retrieval import write_score_rows

from test_data import make_dataset


class Interrupted(Exception):
    pass


def interrupt(*args):
    raise Interrupted


class Unwritable:
    """Stands in for a parameter array and raises when it is converted."""

    def __init__(self, array):
        self.shape, self.size = array.shape, array.size

    astype = interrupt


def test_atomic_write_replaces_only_a_complete_file(tmp_path):
    path = tmp_path / "out.txt"
    with atomic_write(path, "w") as fh:
        fh.write("first\n")
        assert not path.exists()
    assert path.read_text() == "first\n"
    with pytest.raises(Interrupted):
        with atomic_write(path, "w") as fh:
            fh.write("second\n")
            raise Interrupted
    assert path.read_text() == "first\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_writer_failing_partway_leaves_the_old_file_or_none(tmp_path):
    """Each writer dies after writing part of its output."""

    def rows():
        yield (0, 0.5)
        raise Interrupted

    csv = tmp_path / "scores.csv"
    with pytest.raises(Interrupted):
        write_score_rows(csv, ["a", "b"], rows())
    assert not csv.exists()
    write_score_rows(csv, ["a", "b"], [(1, 0.25)])
    with pytest.raises(Interrupted):
        write_score_rows(csv, ["a", "b"], rows())
    assert csv.read_text() == "a,b\n1,0.25\n"

    dataset = make_dataset(num_objects=2, views=2, n=2)
    bags = tmp_path / "d.bags"
    save_dataset(dataset, bags)
    before = bags.read_bytes()
    dataset.bags[-1].pixel_stack = interrupt  # fails at the last record
    with pytest.raises(Interrupted):
        save_dataset(dataset, bags)
    assert bags.read_bytes() == before
    assert len(load_dataset(bags)) == 4

    model = tmp_path / "model.net"
    net = init_net(0)
    net.params["fc_b"].data = Unwritable(net.params["fc_b"].data)  # the last layer
    with pytest.raises(Interrupted):
        save_net(net, model)
    assert not model.exists()
    save_net(init_net(0), model)
    assert np.array_equal(load_net(model).params["fc_b"].data, init_net(0).params["fc_b"].data)

    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.bags", "model.net", "scores.csv"]
