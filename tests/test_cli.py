"""End-to-end command-line runs on miniature configurations."""

import hashlib
import inspect
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bagdesc import data as data_module
from bagdesc import net as net_module
from bagdesc import train as train_module
from bagdesc.cli import DEFAULT_CONFIG, build_parser, main, resolve_config, ConfigError
from bagdesc.data import MAX_KEYPOINTS, build_dataset, extract_bag, generate_scene, load_dataset
from bagdesc.net import DescriptorNet, init_net, load_net, save_net
from bagdesc.tensor import Tensor

TINY = {
    "seed": 3,
    "data": {
        "objects": 7,
        "views": 2,
        "bag_size": 6,
        "image_size": 256,
        "patch_radius": 8,
        "train_fraction": 0.45,
        "val_fraction": 0.3,
    },
    "match": {"tau": 0.15, "beta": 30.0},
    "train": {
        "iters_per_round": 2,
        "triplets_per_round": 8,
        "batch_size": 2,
        "rounds": 1,
        "val_triplets": 4,
    },
    "retrieval": {"tau_grid": [0.05, 0.1, 0.2], "k_list": [1, 2]},
}


def write_config(tmp_path, overrides=None):
    cfg = json.loads(json.dumps(TINY))
    for section, values in (overrides or {}).items():
        if isinstance(values, dict):
            cfg.setdefault(section, {}).update(values)
        else:
            cfg[section] = values
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    cfg = write_config(out)
    assert main(["--config", str(cfg), "--out", str(out), "gen-data"]) == 0
    return out, cfg


def test_resolve_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown"):
        resolve_config({"data": {"objects": 5, "bogus": 1}})
    with pytest.raises(ConfigError, match="unknown"):
        resolve_config({"nonsense": {}})
    # TrainConfig fields that the CLI fills from the master seed and the match section
    for key, value in (("seed", 3), ("match", {"tau": 0.5})):
        with pytest.raises(ConfigError, match="unknown"):
            resolve_config({"train": {key: value}})


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("data", "intensity_threshold", 0.05),
        ("data", "max_keypoints", 75),
        ("match", "epsilon", 1e-6),
        ("train", "rmsprop_decay", 0.9),
        ("train", "rmsprop_eps", 1e-8),
    ],
)
def test_protocol_constants_are_not_config_keys(tmp_path, capsys, section, key, value):
    """The five constants of data and train are rejected even at their values."""
    cfg = write_config(tmp_path, {section: {key: value}})
    out = tmp_path / "out"
    for command in ("gen-data", "train"):
        assert main(["--config", str(cfg), "--out", str(out), command]) == 1
        assert "unknown key" in capsys.readouterr().err
    assert not out.exists()


def test_readme_minimal_config_resolves():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A minimal config", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    raw = json.loads(block)
    cfg = resolve_config(raw)
    for section, values in raw.items():
        if isinstance(values, dict):
            assert {key: cfg[section][key] for key in values} == values
        else:
            assert cfg[section] == values


def test_resolve_config_rejects_single_object():
    with pytest.raises(ConfigError):
        resolve_config({"data": {"objects": 1}})


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("retrieval", "tau_grid", ["a"]),
        ("retrieval", "tau_grid", [0.1, True]),
        ("retrieval", "tau_grid", 0.5),
        ("retrieval", "k_list", "24"),
        ("retrieval", "k_list", [2.5]),
        ("retrieval", "k_list", [True]),
        ("retrieval", "kmeans_iters", 2.5),
        ("train", "rounds", 2.5),
        ("train", "batch_size", "8"),
        ("train", "lr0", "fast"),
        ("data", "objects", 20.5),
        ("data", "views", True),
        ("data", "train_fraction", None),
        ("match", "beta", float("inf")),
    ],
)
def test_resolve_config_rejects_mistyped_fields(tmp_path, section, key, value):
    with pytest.raises(ConfigError, match=key):
        resolve_config({section: {key: value}})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({section: {key: value}}))
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "gen-data"]) == 1


def test_default_config_is_unchanged():
    """The match and train sections, now read from MatchConfig and
    TrainConfig, equal the literal that the CLI once wrote out by hand."""
    assert DEFAULT_CONFIG == {
        "seed": 0,
        "data": {
            "objects": 50,
            "views": 4,
            "bag_size": 32,
            "image_size": 512,
            "patch_radius": 16,
            "train_fraction": 0.7,
            "val_fraction": 0.15,
        },
        "match": {"tau": 0.8, "beta": 20.0},
        "train": {
            "lr0": 0.001,
            "batch_size": 32,
            "iters_per_round": 512,
            "triplets_per_round": 5000,
            "rounds": 128,
            "patience": 5,
            "val_triplets": 128,
        },
        "retrieval": {"tau_grid": None, "k_list": [2, 4, 8], "kmeans_iters": 100},
    }


def test_data_defaults_are_the_library_defaults():
    """The config's image size and patch radius are the data module's
    constants, which its functions take as their defaults."""
    data = DEFAULT_CONFIG["data"]
    build = inspect.signature(build_dataset).parameters
    size = inspect.signature(generate_scene).parameters["size"].default
    radius = inspect.signature(extract_bag).parameters["patch_radius"].default
    assert data["image_size"] == build["image_size"].default == size == data_module.IMAGE_SIZE
    assert data["patch_radius"] == build["patch_radius"].default == radius == data_module.PATCH_RADIUS


def test_val_triplets_below_one_fails_before_training(tmp_path):
    for value in (0, -1):
        with pytest.raises(ConfigError, match="val_triplets"):
            resolve_config({"train": {"val_triplets": value}})
    cfg = write_config(tmp_path, {"train": {"val_triplets": 0}})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "train"]) == 1
    assert not out.exists()


def test_resolve_config_accepts_ints_for_floats_and_rejects_bool_seed():
    cfg = resolve_config({"match": {"beta": 20}, "retrieval": {"tau_grid": [1, 0.5]}})
    assert cfg["match"]["beta"] == 20
    with pytest.raises(ConfigError, match="seed"):
        resolve_config({"seed": True})


def test_gen_data_outputs(generated):
    out, _ = generated
    ids = {}
    for split in ("train", "val", "test"):
        path = out / f"{split}.bags"
        assert path.exists()
        ds = load_dataset(path, split)
        assert ds.bag_size == 6
        ids[split] = set(ds.object_ids)
    assert ids["train"] == {0, 1, 2}
    assert ids["val"] == {3, 4}
    assert ids["test"] == {5, 6}
    manifest = json.loads((out / "manifest_gen_data.json").read_text())
    assert manifest["config"]["seed"] == 3
    assert manifest["object_counts"] == {"train": 3, "val": 2, "test": 2}


def test_gen_data_idempotent(generated, tmp_path):
    out, cfg = generated
    again = tmp_path / "again"
    assert main(["--config", str(cfg), "--out", str(again), "gen-data"]) == 0
    for split in ("train", "val", "test"):
        assert (out / f"{split}.bags").read_bytes() == (again / f"{split}.bags").read_bytes()


def test_train_and_reports(generated, tmp_path):
    out, cfg = generated
    run = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(run), "train", "--data", str(out)]) == 0
    model = run / "model.net"
    curves = run / "curves.csv"
    assert load_net(model).param_count == 185_504
    lines = curves.read_text().strip().splitlines()
    assert lines[0] == "round,train_loss,val_loss,lr"
    assert len(lines) == 2  # rounds = 1

    # deterministic rerun produces byte-identical outputs
    rerun = tmp_path / "rerun"
    assert main(["--config", str(cfg), "--out", str(rerun), "train", "--data", str(out)]) == 0
    assert model.read_bytes() == (rerun / "model.net").read_bytes()
    assert curves.read_text() == (rerun / "curves.csv").read_text()

    # eval-match on the held-out and training splits, clearly labeled
    for split in ("test", "train"):
        code = main(
            ["--config", str(cfg), "--out", str(run),
             "eval-match", "--data", str(out), "--split", split]
        )
        assert code == 0
        report = (run / f"eval_match_{split}.csv").read_text().strip().splitlines()
        assert report[0] == "tau,NN,FT,ST"
        assert len(report) == 2
    assert (run / "sweep_val.csv").exists()

    # eval-vlad with k list {1, 2}: one row per k, vlad_dim = 64 * k
    assert main(
        ["--config", str(cfg), "--out", str(run), "eval-vlad", "--data", str(out)]
    ) == 0
    rows = (run / "eval_vlad_test.csv").read_text().strip().splitlines()
    assert rows[0] == "k,vlad_dim,NN,FT,ST"
    assert rows[1].startswith("1,64,")
    assert rows[2].startswith("2,128,")

    # sweep-tau standalone
    assert main(
        ["--config", str(cfg), "--out", str(run),
         "sweep-tau", "--data", str(out), "--split", "val"]
    ) == 0
    sweep = (run / "sweep_val.csv").read_text().strip().splitlines()
    assert len(sweep) == 4  # 3 grid points


def test_non_finite_gradient_fails_train_and_writes_nothing(generated, tmp_path, monkeypatch, capsys):
    """A NaN in conv2_w's gradient from round 1, iteration 0 on (two
    iterations of two triplets per round) stops the run and names where."""
    data, _ = generated
    cfg = write_config(tmp_path, {"train": {"rounds": 2}})
    real = train_module.triplet_loss
    calls = []

    def poisoned(net, triplet, match_cfg, shared=None):
        loss, grads = real(net, triplet, match_cfg, shared)
        if len(calls) >= 4:
            grads["conv2_w"][0, 0, 0, 0] = np.nan
        calls.append(loss)
        return loss, grads

    monkeypatch.setattr(train_module, "triplet_loss", poisoned)
    out = tmp_path / "out"
    argv = ["--config", str(cfg), "--out", str(out), "--threads", "1", "train", "--data", str(data)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "round 1, iteration 0: non-finite gradient in layer conv2_w" in err
    assert not (out / "model.net").exists()
    assert not (out / "curves.csv").exists()


def test_degenerate_descriptor_fails_train_and_writes_nothing(generated, tmp_path, monkeypatch, capsys):
    """From round 1, iteration 0 on, triplet_loss sees a net of zeros, whose
    descriptors l2_normalize rejects; the run stops and names where."""
    data, _ = generated
    cfg = write_config(tmp_path, {"train": {"rounds": 2}})
    real = train_module.triplet_loss
    calls = []

    def degenerate(net, triplet, match_cfg, shared=None):
        calls.append(triplet)
        if len(calls) > 4:
            zeros = {name: Tensor(np.zeros_like(p.data)) for name, p in net.params.items()}
            net = DescriptorNet(zeros, net.channels, net.descriptor_dim)
        return real(net, triplet, match_cfg, shared)

    monkeypatch.setattr(train_module, "triplet_loss", degenerate)
    out = tmp_path / "out"
    argv = ["--config", str(cfg), "--out", str(out), "--threads", "1", "train", "--data", str(data)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error: round 1, iteration 0: cannot normalize vector with norm 0" in err
    assert not (out / "model.net").exists()
    assert not (out / "curves.csv").exists()


def test_train_with_zero_iterations_writes_nan_train_loss(generated, tmp_path):
    out, _ = generated
    run = tmp_path / "idle"
    cfg = write_config(tmp_path, {"train": {"iters_per_round": 0}})
    assert main(["--config", str(cfg), "--out", str(run), "train", "--data", str(out)]) == 0
    header, row = (run / "curves.csv").read_text().strip().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert values["train_loss"] == "nan"
    assert np.isfinite(float(values["val_loss"]))


# Three objects per evaluated split, and a tau grid across the row-minimum
# distances of init_net(0)'s descriptors (about 0.01 to 0.07), so a moved
# score shows in NN, FT or ST.
EVAL_OVERRIDES = {
    "data": {"objects": 10, "views": 3, "train_fraction": 0.4, "val_fraction": 0.3},
    "retrieval": {"tau_grid": [0.01, 0.02, 0.03, 0.04, 0.06], "k_list": [2, 4]},
}
# SHA-256 of the .bags files that gen-data writes for EVAL_OVERRIDES,
# recorded while bags were held as float64 and rounded to float32 on save.
BAGS_DIGESTS = {
    "train.bags": "858fc4005aa949e823863fa73fe54197a8e1c717653010439d208a371b3f98f0",
    "val.bags": "bc464037ba06d96a8113429acfc43cf2a63ff35d5171bee9324a9b6c1087dc99",
    "test.bags": "40f542a4a70a89f976e1dfcc2454a1a64f8f98e0a64e2974c2ae910ee694737a",
}
# SHA-256 of every CSV that eval-match, eval-vlad and sweep-tau write with
# init_net(0) on data from EVAL_OVERRIDES, one output directory per command
# and split, recorded while evaluation still described bags through
# `forward_bag`.
EVAL_DIGESTS = {
    "eval-match_test/eval_match_test.csv": "aba95b48c2fdd0d7fafa7accc004adf262e3199b92efbbdb3f67bc74452bfea0",
    "eval-match_test/sweep_val.csv": "ff892ed5a9a3f83f168f43662517a1019e88d211491bf9d6c79eeab7ab1a66c2",
    "eval-match_val/eval_match_val.csv": "5d61c0e4d86c142c33a973f47cb6570cd1a7a49d08d1154e01437b12ddeceb44",
    "eval-match_val/sweep_val.csv": "ff892ed5a9a3f83f168f43662517a1019e88d211491bf9d6c79eeab7ab1a66c2",
    "eval-vlad_test/eval_vlad_test.csv": "3c33c48db83c42db084f36a984c38833902f0c7abcd4dadf854cbe330ff86a0c",
    "eval-vlad_val/eval_vlad_val.csv": "ea14b95b97e9d52bf6e4bbc1fcd9205dcf1fb73f1893eb6328bba27633589339",
    "sweep-tau_test/sweep_test.csv": "10c931dc3b90c4f7331a0c6efd89e175dbad46ad9ea0523f2b2e42e155b7657a",
    "sweep-tau_val/sweep_val.csv": "ff892ed5a9a3f83f168f43662517a1019e88d211491bf9d6c79eeab7ab1a66c2",
}


def test_eval_outputs_are_pinned(tmp_path):
    """The pinned bytes hold for the dataset files, and for every CSV on one
    worker thread and on two."""
    cfg = write_config(tmp_path, EVAL_OVERRIDES)
    data = tmp_path / "data"
    assert main(["--config", str(cfg), "--out", str(data), "gen-data"]) == 0
    for name, digest in BAGS_DIGESTS.items():
        assert hashlib.sha256((data / name).read_bytes()).hexdigest() == digest, name
    model = tmp_path / "init.net"
    save_net(init_net(0), model)
    for threads in ("1", "2"):
        digests = {}
        for command in ("eval-match", "eval-vlad", "sweep-tau"):
            for split in ("test", "val"):
                run = tmp_path / f"threads{threads}" / f"{command}_{split}"
                assert main(
                    ["--config", str(cfg), "--out", str(run), "--threads", threads, command,
                     "--data", str(data), "--model", str(model), "--split", split]
                ) == 0
                for path in sorted(run.glob("*.csv")):
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    digests[f"{run.name}/{path.name}"] = digest
        assert digests == EVAL_DIGESTS, f"--threads {threads}"


@pytest.mark.parametrize("command", ["eval-match", "eval-vlad"])
def test_eval_on_val_describes_val_once(generated, tmp_path, monkeypatch, command):
    """On val, eval-match's result is the tau sweep's row at the best tau and
    eval-vlad's targets are its codebook pool, so no val bag is described a
    second time; another split is described once more."""
    out, cfg = generated
    model = tmp_path / "init.net"
    save_net(init_net(0), model)
    described = []
    real_describe = net_module.describe

    def counting_describe(net, pixels):
        described.append(len(pixels))
        return real_describe(net, pixels)

    monkeypatch.setattr(net_module, "describe", counting_describe)
    patches = {
        split: sum(bag.n for bag in load_dataset(out / f"{split}.bags", split).bags)
        for split in ("val", "test")
    }
    for split, expected in (("val", patches["val"]), ("test", patches["val"] + patches["test"])):
        described.clear()
        run = tmp_path / split
        assert main(
            ["--config", str(cfg), "--out", str(run), command,
             "--data", str(out), "--model", str(model), "--split", split]
        ) == 0
        assert sum(described) == expected, split


def test_vlad_dim_k_list_248(generated, tmp_path):
    out, _ = generated
    run = tmp_path / "run248"
    cfg = write_config(tmp_path, {"retrieval": {"k_list": [2, 4, 8]}})
    assert main(["--config", str(cfg), "--out", str(run), "train", "--data", str(out)]) == 0
    assert main(["--config", str(cfg), "--out", str(run), "eval-vlad", "--data", str(out)]) == 0
    rows = (run / "eval_vlad_test.csv").read_text().strip().splitlines()[1:]
    dims = [tuple(int(v) for v in r.split(",")[:2]) for r in rows]
    assert dims == [(2, 128), (4, 256), (8, 512)]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_gen_data_bytes_do_not_depend_on_workers(tmp_path, threads):
    """One worker renders in-process, two on forked worker processes."""
    cfg = write_config(tmp_path, EVAL_OVERRIDES)
    data = tmp_path / "data"
    assert main(["--config", str(cfg), "--out", str(data), "--threads", threads, "gen-data"]) == 0
    for name, digest in BAGS_DIGESTS.items():
        assert hashlib.sha256((data / name).read_bytes()).hexdigest() == digest, name
    assert multiprocessing.active_children() == []


def test_gen_data_workers_start_from_a_fresh_interpreter(tmp_path):
    """The command run as a script, as a user runs it, forks its workers
    from a process with no `__main__` guard of its own and writes the
    same bytes."""
    cfg = write_config(tmp_path, EVAL_OVERRIDES)
    data = tmp_path / "data"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["--config", str(cfg), "--out", str(data), "--threads", "2", "gen-data"]
    subprocess.run(
        [sys.executable, "-m", "bagdesc.cli", *argv], env=env, check=True, timeout=300
    )
    for name, digest in BAGS_DIGESTS.items():
        assert hashlib.sha256((data / name).read_bytes()).hexdigest() == digest, name


def test_failing_object_in_a_worker_fails_gen_data(tmp_path, monkeypatch, capsys):
    """At one attempt per object, TINY's object 1 finds no scene with 30
    corners 12 px from the border; its worker's error reaches the CLI."""
    monkeypatch.setattr(data_module, "MAX_SCENE_ATTEMPTS", 1)
    cfg = write_config(tmp_path, {"data": {"bag_size": 30, "patch_radius": 12}})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--threads", "2", "gen-data"]) == 1
    err = capsys.readouterr().err
    assert "error: object 1: no scene with 30 usable corners per view after 1 attempts" in err
    assert list(out.iterdir()) == []
    assert multiprocessing.active_children() == []


def test_gen_data_forks_one_worker_pool(tmp_path, monkeypatch):
    """Every object of every split renders on one pool."""
    pools = []
    real_fork_pool = data_module._fork_pool

    def counting_fork_pool(workers):
        pools.append(workers)
        return real_fork_pool(workers)

    monkeypatch.setattr(data_module, "_fork_pool", counting_fork_pool)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--threads", "2", "gen-data"]) == 0
    assert pools == [2]


def test_failing_val_object_leaves_no_output(tmp_path, monkeypatch, capsys):
    """No split is written before every object has rendered: a failure in
    val's first object, TINY's object 3, leaves no train.bags behind."""
    real_object_bags = data_module._object_bags

    def failing_object_bags(*args):
        if args[-1] == 3:
            raise data_module.DataError("object 3: refused")
        return real_object_bags(*args)

    monkeypatch.setattr(data_module, "_object_bags", failing_object_bags)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--threads", "1", "gen-data"]) == 1
    assert "error: object 3: refused" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_invalid_config_fails_before_writing(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"data": {"objects": 1}}))
    out = tmp_path / "out"
    assert main(["--config", str(bad), "--out", str(out), "gen-data"]) == 1
    assert not any(out.glob("*.bags"))
    assert not (out / "manifest_gen_data.json").exists()
    assert main(["--seed", "-1", "--out", str(out), "gen-data"]) == 1
    assert not any(out.glob("*.bags"))
    for radius in (0, -4):  # a crop of side 2 * radius would be empty
        cfg = write_config(tmp_path, {"data": {"patch_radius": radius}})
        assert main(["--config", str(cfg), "--out", str(out), "gen-data"]) == 1
        assert not any(out.glob("*.bags"))


def test_threads_default_to_the_usable_cpus(tmp_path):
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count()
    assert build_parser().parse_args(["gen-data"]).threads == usable
    out = tmp_path / "out"
    assert main(["--threads", "0", "--out", str(out), "gen-data"]) == 1
    assert not out.exists()


def test_missing_model_is_an_error(generated, tmp_path):
    out, cfg = generated
    empty = tmp_path / "empty"
    code = main(
        ["--config", str(cfg), "--out", str(empty), "eval-match", "--data", str(out)]
    )
    assert code == 1


@pytest.mark.parametrize("command", ["eval-match", "eval-vlad", "sweep-tau"])
def test_missing_split_is_an_error(generated, tmp_path, capsys, command):
    out, cfg = generated
    save_net(init_net(0), tmp_path / "model.net")
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(
        ["--config", str(cfg), "--out", str(tmp_path), command, "--data", str(empty),
         "--split", "val"]
    )
    assert code == 1
    assert "missing dataset file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("bag_size", 0), ("bag_size", MAX_KEYPOINTS + 1), ("patch_radius", 0), ("patch_radius", 65)],
)
def test_resolve_config_rejects_bag_geometry(key, value):
    with pytest.raises(ConfigError, match=key.replace("_", " ")):
        resolve_config({"data": {key: value}})


def test_resolve_config_accepts_the_widest_radius_a_scene_holds():
    """A crop needs radius <= x <= image_size // 4 - radius, so 256 px holds
    radius 32 and 512 px radius 64."""
    for image_size, radius in ((256, 32), (512, 64)):
        cfg = resolve_config({"data": {"image_size": image_size, "patch_radius": radius}})
        assert cfg["data"]["patch_radius"] == radius
    with pytest.raises(ConfigError, match="patch radius must be at most 32 at 256 px, got 33"):
        resolve_config({"data": {"image_size": 256, "patch_radius": 33}})


def test_seed_flag_overrides_config(generated, tmp_path):
    out, cfg = generated
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["--config", str(cfg), "--seed", "11", "--out", str(a), "gen-data"]) == 0
    assert main(["--config", str(cfg), "--seed", "12", "--out", str(b), "gen-data"]) == 0
    assert (a / "train.bags").read_bytes() != (b / "train.bags").read_bytes()
    manifest = json.loads((a / "manifest_gen_data.json").read_text())
    assert manifest["config"]["seed"] == 11


def test_eval_match_with_random_model_baseline(generated, tmp_path):
    out, cfg = generated
    run = tmp_path / "baseline"
    run.mkdir()
    save_net(init_net(99), run / "random.net")
    code = main(
        ["--config", str(cfg), "--out", str(run),
         "eval-match", "--data", str(out), "--model", str(run / "random.net")]
    )
    assert code == 0
    assert (run / "eval_match_test.csv").exists()
