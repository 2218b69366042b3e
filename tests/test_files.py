"""Outputs appear whole or not at all."""

import ctypes
import os

import numpy as np
import pytest

from bagdesc import files
from bagdesc.cli import DEFAULT_CONFIG, _write_manifest
from bagdesc.data import DataError, load_dataset, save_dataset
from bagdesc.files import atomic_write
from bagdesc.net import IntegrityError, init_net, load_net, save_net
from bagdesc.retrieval import write_score_rows

from test_data import make_dataset


class Interrupted(Exception):
    pass


def interrupt(*args, **kwargs):
    raise Interrupted


class Unwritable:
    """Stands in for a parameter or pixel array and raises when it is converted."""

    def __init__(self, array):
        self.shape, self.size = array.shape, array.size

    def __len__(self):
        return self.shape[0]

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
    dataset.bags[-1].pixels = Unwritable(dataset.bags[-1].pixels)  # fails at the last record
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


def test_rewrite_replaces_the_target_not_its_bytes(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with open(path) as old:
        with atomic_write(path, "w") as fh:
            fh.write("new\n")
        assert old.read() == "old\n"  # rewritten in place, this would read "new"
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_directory_at_the_target_raises_and_stays(tmp_path):
    target = tmp_path / "out"
    target.mkdir()
    (target / "inside.txt").write_text("kept\n")
    with pytest.raises(IsADirectoryError):
        with atomic_write(target, "w") as fh:
            fh.write("new\n")
    assert target.is_dir() and (target / "inside.txt").read_text() == "kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def write_every_output(out_dir, times=2):
    """Each writer's output; written twice, the second write replaces the first."""
    for _ in range(times):
        save_dataset(make_dataset(num_objects=2, views=2, n=2), out_dir / "d.bags")
        save_net(init_net(0), out_dir / "model.net")
        write_score_rows(out_dir / "scores.csv", ["a", "b"], [(1, 0.25)])
        _write_manifest(out_dir, "manifest.json", DEFAULT_CONFIG, {"files": {}})
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_fallback_writes_the_bytes_of_the_exchange(tmp_path, monkeypatch):
    (tmp_path / "swap").mkdir()
    (tmp_path / "replace").mkdir()
    swapped = write_every_output(tmp_path / "swap")
    monkeypatch.setattr(files, "_exchanged", lambda temporary, path: False)
    assert write_every_output(tmp_path / "replace") == swapped
    assert list(swapped) == ["d.bags", "manifest.json", "model.net", "scores.csv"]


def test_writing_fresh_outputs_never_resolves_the_exchange(tmp_path, monkeypatch):
    """`ctypes` is loaded only once a target exists, and only to swap it."""

    def unexpected():
        raise AssertionError("renameat2 resolved for a fresh output")

    monkeypatch.setattr(files, "_renameat2", unexpected)
    assert len(write_every_output(tmp_path, times=1)) == 4


def exchange_unsupported(tmp_path):
    """Why this platform or filesystem cannot swap two files, or None where it can."""
    renameat2 = files._renameat2()
    if renameat2 is None:
        return "libc has no renameat2"
    a, b = tmp_path / "probe_a", tmp_path / "probe_b"
    a.write_text("a")
    b.write_text("b")
    try:
        fd = files._AT_FDCWD
        if renameat2(fd, os.fsencode(a), fd, os.fsencode(b), files._RENAME_EXCHANGE) != 0:
            return f"renameat2(RENAME_EXCHANGE) fails: {os.strerror(ctypes.get_errno())}"
        assert (a.read_text(), b.read_text()) == ("b", "a")
        return None
    finally:
        a.unlink()
        b.unlink()


def test_rewrite_does_not_rename_over_the_target(tmp_path, monkeypatch):
    """Renaming over an existing file forces its data to disk on ext4."""
    reason = exchange_unsupported(tmp_path)
    if reason:
        pytest.skip(reason)
    path = tmp_path / "scores.csv"
    write_score_rows(path, ["a", "b"], [(1, 0.25)])
    monkeypatch.setattr(os, "replace", interrupt)
    write_score_rows(path, ["a", "b"], [(2, 0.5)])
    assert path.read_text() == "a,b\n2,0.5\n"
    assert [p.name for p in tmp_path.iterdir()] == ["scores.csv"]


def test_loaders_reject_an_empty_file(tmp_path):
    """A power loss after an unsynced replacement can leave an output empty."""
    empty = tmp_path / "empty"
    empty.touch()
    with pytest.raises(DataError, match="bad magic b''"):
        load_dataset(empty)
    with pytest.raises(IntegrityError, match="bad magic b''"):
        load_net(empty)
