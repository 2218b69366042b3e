"""Command-line entry point for reproducible end-to-end runs.

Subcommands: gen-data, train, eval-match, eval-vlad, sweep-tau. A JSON
config file supplies every parameter, and --seed overrides its master
seed; --threads and --out have no config counterpart. The fully resolved
config is echoed into a manifest next to every output. A single master
seed is split into independent streams for data generation, training,
and codebook fitting, so one integer reproduces a whole experiment
byte-for-byte. Invalid configs fail before any file is written; exit
status 0 means every requested output was fully written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .data import (
    IMAGE_SIZE,
    MIN_SCENE_SIDE,
    PATCH_RADIUS,
    DataError,
    build_dataset,
    check_bag_settings,
    cut_splits,
    load_dataset,
    save_dataset,
)
from .files import atomic_write
from .matching import MatchConfig
from .net import init_net, load_net, save_net
from .retrieval import (
    build_match_index,
    kmeans,
    rank_and_score,
    sweep_tau,
    vlad_encode,
    write_score_rows,
)
# Unused here, but perfbench/tracer.py wraps these names in this module.
from .net import forward_bag  # noqa: F401
from .retrieval import match_retrieve, nn_ft_st, vlad_retrieve  # noqa: F401
from .train import TrainConfig, split_seed, train

__all__ = ["main", "ConfigError", "DEFAULT_CONFIG"]


class ConfigError(ValueError):
    """A run configuration that violates the schema."""


def _field_defaults(config_class, *skip: str) -> dict:
    """A config dataclass's field defaults, the config file's section for it."""
    return {f.name: f.default for f in fields(config_class) if f.name not in skip}


DEFAULT_CONFIG = {
    "seed": 0,
    "data": {
        "objects": 50,
        "views": 4,
        "bag_size": 32,
        "image_size": IMAGE_SIZE,
        "patch_radius": PATCH_RADIUS,
        "train_fraction": 0.7,
        "val_fraction": 0.15,
    },
    "match": _field_defaults(MatchConfig),
    # The CLI sets `match` from its own section and `seed` from the master seed.
    "train": _field_defaults(TrainConfig, "match", "seed"),
    "retrieval": {"tau_grid": None, "k_list": [2, 4, 8], "kmeans_iters": 100},
}


def _merge_section(name: str, defaults: dict, overrides: dict) -> dict:
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown key(s) in '{name}': {sorted(unknown)}")
    merged = dict(defaults)
    merged.update(overrides)
    return merged


def resolve_config(raw: dict) -> dict:
    """Fill defaults, reject unknown keys, validate every field."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - set(DEFAULT_CONFIG)
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
    cfg = {"seed": raw.get("seed", DEFAULT_CONFIG["seed"])}
    if not _numbers([cfg["seed"]], integer=True) or cfg["seed"] < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {cfg['seed']!r}")
    for section in ("data", "match", "train", "retrieval"):
        overrides = raw.get(section, {})
        if not isinstance(overrides, dict):
            raise ConfigError(f"'{section}' must be a JSON object")
        cfg[section] = _merge_section(section, DEFAULT_CONFIG[section], overrides)
        for key, default in DEFAULT_CONFIG[section].items():
            value = cfg[section][key]
            if type(default) in (int, float) and not _numbers([value], type(default) is int):
                raise ConfigError(f"{section}.{key} must be {type(default).__name__}, got {value!r}")

    d = cfg["data"]
    if d["objects"] < 3:
        raise ConfigError(f"need at least 3 objects to form disjoint splits, got {d['objects']}")
    if d["views"] < 2:
        raise ConfigError("views must be at least 2")
    try:
        check_bag_settings(d["bag_size"], d["patch_radius"])
    except DataError as exc:
        raise ConfigError(str(exc)) from exc
    if d["image_size"] < MIN_SCENE_SIDE:
        raise ConfigError(f"image_size must be at least {MIN_SCENE_SIDE}")
    if not (0 < d["train_fraction"] < 1 and 0 < d["val_fraction"] < 1):
        raise ConfigError("split fractions must lie in (0, 1)")
    counts = _split_counts(d)
    if min(counts.values()) < 2:
        raise ConfigError(
            f"each split needs at least 2 objects (triplets are impossible otherwise); "
            f"got {counts}"
        )
    # Constructors own the numeric validation of these two sections.
    _match_config(cfg)
    _train_config(cfg)
    r = cfg["retrieval"]
    grid = r["tau_grid"]
    if grid is not None and not (_numbers(grid, False) and all(0 < t < 4 for t in grid)):
        raise ConfigError("tau_grid must be a non-empty list of numbers in (0, 4)")
    if not (_numbers(r["k_list"], True) and min(r["k_list"]) >= 1):
        raise ConfigError("k_list must be a non-empty list of positive integers")
    if r["kmeans_iters"] < 1:
        raise ConfigError("kmeans_iters must be positive")
    return cfg


def _numbers(values, integer: bool) -> bool:
    """A non-empty list of ints or, unless `integer`, finite floats; no bools."""
    kinds = int if integer else (int, float)
    return isinstance(values, (list, tuple)) and len(values) > 0 and all(
        isinstance(v, kinds) and not isinstance(v, bool) and v - v == 0  # v - v is nan for inf, nan
        for v in values
    )


def _split_counts(data_cfg: dict) -> dict:
    total = data_cfg["objects"]
    n_train = int(round(total * data_cfg["train_fraction"]))
    n_val = int(round(total * data_cfg["val_fraction"]))
    n_test = total - n_train - n_val
    return {"train": n_train, "val": n_val, "test": n_test}


def _match_config(cfg: dict) -> MatchConfig:
    try:
        return MatchConfig(**cfg["match"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _train_config(cfg: dict) -> TrainConfig:
    train_seed = int(split_seed(cfg["seed"])[1].generate_state(1)[0])
    try:
        return TrainConfig(match=_match_config(cfg), seed=train_seed, **cfg["train"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _write_manifest(out_dir: Path, name: str, cfg: dict, extra: dict) -> None:
    payload = {"config": cfg}
    payload.update(extra)
    with atomic_write(out_dir / name, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_gen_data(cfg: dict, out_dir: Path, workers: int) -> None:
    d = cfg["data"]
    counts = _split_counts(d)
    data_seed = int(split_seed(cfg["seed"])[0].generate_state(1)[0])
    # One corpus of every object, so no split is written until all have rendered.
    corpus = build_dataset(
        d["objects"], d["views"], d["bag_size"], data_seed,
        image_size=d["image_size"], patch_radius=d["patch_radius"], workers=workers,
    )
    for split, dataset in cut_splits(corpus, counts).items():
        save_dataset(dataset, out_dir / f"{split}.bags")
    files = {split: f"{split}.bags" for split in counts}
    _write_manifest(out_dir, "manifest_gen_data.json", cfg, {"files": files, "object_counts": counts})


def _dataset_paths(data_dir: Path, *splits: str) -> list[Path]:
    """The splits' .bags files, checked to exist before any is read."""
    paths = [data_dir / f"{split}.bags" for split in splits]
    for p in paths:
        if not p.exists():
            raise FileNotFoundError(f"missing dataset file {p}")
    return paths


def cmd_train(cfg: dict, out_dir: Path, data_dir: Path, threads: int) -> None:
    train_path, val_path = _dataset_paths(data_dir, "train", "val")
    trainset = load_dataset(train_path, "train")
    valset = load_dataset(val_path, "val")
    net, curves = train(trainset, valset, _train_config(cfg), threads=threads)
    save_net(net, out_dir / "model.net")
    write_score_rows(
        out_dir / "curves.csv",
        ["round", "train_loss", "val_loss", "lr"],
        [(r.round_index, r.train_loss, r.val_loss, r.lr) for r in curves],
    )
    best = min(r.val_loss for r in curves)
    _write_manifest(
        out_dir,
        "manifest_train.json",
        cfg,
        {"model": "model.net", "curves": "curves.csv", "best_val_loss": best},
    )


def _described(net, path: Path, split: str, threads: int) -> tuple[np.ndarray, list[int]]:
    """A split's [B, n, d] descriptors, described on `threads` workers, and
    its bags' object ids; the bags themselves are dropped on return."""
    dataset = load_dataset(path, split)
    return build_match_index(net, dataset, threads), [bag.object_id for bag in dataset.bags]


def _tuning_and_target(net, data_dir: Path, split: str, threads: int):
    """`_described` of val, which tunes tau and fits codebooks, and of the
    target split: the same pair when the target is val, so no bag is
    described twice. Both files are checked before either is read."""
    val_path, target_path = _dataset_paths(data_dir, "val", split)
    tuning = _described(net, val_path, "val", threads)
    return tuning, tuning if split == "val" else _described(net, target_path, split, threads)


def cmd_eval_match(
    cfg: dict, out_dir: Path, data_dir: Path, model_path: Path, split: str, threads: int
) -> None:
    net = load_net(model_path)
    tuning, target = _tuning_and_target(net, data_dir, split, threads)
    best_tau, sweep_rows = sweep_tau(*tuning, cfg["retrieval"]["tau_grid"])
    # The target scored as a one-point sweep at the tuned tau.
    _, target_rows = sweep_tau(*target, [best_tau])
    [(_, nn, ft, st)] = target_rows
    write_score_rows(out_dir / "sweep_val.csv", ["tau", "NN", "FT", "ST"], sweep_rows)
    write_score_rows(out_dir / f"eval_match_{split}.csv", ["tau", "NN", "FT", "ST"], target_rows)
    _write_manifest(
        out_dir,
        f"manifest_eval_match_{split}.json",
        cfg,
        {"split": split, "best_tau": best_tau, "NN": nn, "FT": ft, "ST": st},
    )


def cmd_eval_vlad(
    cfg: dict, out_dir: Path, data_dir: Path, model_path: Path, split: str, threads: int
) -> None:
    net = load_net(model_path)
    (tuning_desc, _), (target_desc, object_ids) = _tuning_and_target(net, data_dir, split, threads)
    kmeans_seed = int(split_seed(cfg["seed"])[2].generate_state(1)[0])
    pool = tuning_desc.reshape(-1, net.descriptor_dim)
    rows = []
    for k in cfg["retrieval"]["k_list"]:
        codebook = kmeans(pool, k, kmeans_seed, cfg["retrieval"]["kmeans_iters"])
        vlads = np.stack([vlad_encode(desc, codebook) for desc in target_desc])
        nn, ft, st = rank_and_score(vlads @ vlads.T, object_ids)
        rows.append((k, k * net.descriptor_dim, nn, ft, st))
    write_score_rows(out_dir / f"eval_vlad_{split}.csv", ["k", "vlad_dim", "NN", "FT", "ST"], rows)
    _write_manifest(out_dir, f"manifest_eval_vlad_{split}.json", cfg, {"split": split, "rows": rows})


def cmd_sweep_tau(
    cfg: dict, out_dir: Path, data_dir: Path, model_path: Path, split: str, threads: int
) -> None:
    net = load_net(model_path)
    (path,) = _dataset_paths(data_dir, split)
    best_tau, rows = sweep_tau(*_described(net, path, split, threads), cfg["retrieval"]["tau_grid"])
    write_score_rows(out_dir / f"sweep_{split}.csv", ["tau", "NN", "FT", "ST"], rows)
    _write_manifest(
        out_dir, f"manifest_sweep_{split}.json", cfg, {"split": split, "best_tau": best_tau}
    )


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, otherwise every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bagdesc",
        description="Learn and evaluate patch descriptors from weakly-labeled keypoint bags.",
    )
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument(
        "--threads",
        type=int,
        default=_usable_cpus(),
        help="workers: threads for training batches, validation, and describing bags in "
        "eval-match, eval-vlad and sweep-tau; forked processes for gen-data, which renders "
        "one object per task (in-process at 1); k-means and ranking run on one thread. "
        "Results do not depend on the count. Pin BLAS to one thread "
        "(OPENBLAS_NUM_THREADS=1) when using several (default: the CPUs this process "
        "may use, %(default)s)",
    )
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen-data", help="generate train/val/test bag datasets")
    sub.add_parser("train", help="train a descriptor network")
    for name in ("eval-match", "eval-vlad", "sweep-tau"):
        p = sub.add_parser(name, help=f"run {name.replace('-', ' ')} evaluation")
        p.add_argument("--model", type=Path, default=None, help="model file (default OUT/model.net)")
        p.add_argument(
            "--split",
            choices=("train", "val", "test"),
            default="test",
            help="dataset split to evaluate (default test)",
        )
    for name in ("train", "eval-match", "eval-vlad", "sweep-tau"):
        sub.choices[name].add_argument(
            "--data", type=Path, default=None, help="directory with *.bags files (default OUT)"
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = json.loads(args.config.read_text()) if args.config else {}
        if args.seed is not None:
            raw = dict(raw)
            raw["seed"] = args.seed
        cfg = resolve_config(raw)
        if args.threads < 1:
            raise ConfigError("threads must be at least 1")
        out_dir = args.out
        out_dir.mkdir(parents=True, exist_ok=True)
        data_dir = getattr(args, "data", None) or out_dir
        if args.command == "gen-data":
            cmd_gen_data(cfg, out_dir, args.threads)
        elif args.command == "train":
            cmd_train(cfg, out_dir, data_dir, args.threads)
        else:
            model_path = args.model or out_dir / "model.net"
            if not model_path.exists():
                raise FileNotFoundError(f"missing model file {model_path}")
            if args.command == "eval-match":
                cmd_eval_match(cfg, out_dir, data_dir, model_path, args.split, args.threads)
            elif args.command == "eval-vlad":
                cmd_eval_vlad(cfg, out_dir, data_dir, model_path, args.split, args.threads)
            else:
                cmd_sweep_tau(cfg, out_dir, data_dir, model_path, args.split, args.threads)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
