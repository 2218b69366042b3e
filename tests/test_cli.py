"""End-to-end command-line runs on miniature configurations."""

import json

import numpy as np
import pytest

from bagdesc.cli import main, resolve_config, ConfigError
from bagdesc.data import load_dataset
from bagdesc.net import init_net, load_net, save_net

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


def test_vlad_dim_k_list_248(generated, tmp_path):
    out, _ = generated
    run = tmp_path / "run248"
    cfg = write_config(tmp_path, {"retrieval": {"k_list": [2, 4, 8]}})
    assert main(["--config", str(cfg), "--out", str(run), "train", "--data", str(out)]) == 0
    assert main(["--config", str(cfg), "--out", str(run), "eval-vlad", "--data", str(out)]) == 0
    rows = (run / "eval_vlad_test.csv").read_text().strip().splitlines()[1:]
    dims = [tuple(int(v) for v in r.split(",")[:2]) for r in rows]
    assert dims == [(2, 128), (4, 256), (8, 512)]


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


def test_missing_model_is_an_error(generated, tmp_path):
    out, cfg = generated
    empty = tmp_path / "empty"
    code = main(
        ["--config", str(cfg), "--out", str(empty), "eval-match", "--data", str(out)]
    )
    assert code == 1


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
