"""Workloads, output checks and metrics of the bagdesc benchmark.

Each workload is a closed loop with one client in one process: it calls
`bagdesc.cli.main` in-process, the way a user runs the commands, and starts
the next command only after the previous one returned. The inputs are
generated by the program under test from the workload seed, in a fresh
interpreter per set-up (`run.py --setup-into`), so that set-up time counts
process start and imports.

- train: `train` at batch 32 with 2 worker threads, on 35 train and 8 val
  objects of 4 views with bags of 32, as in criterion 8. Bypasses
  retrieval.
- eval: `eval-match` then `eval-vlad` on the test split, tuned on the val
  split, with a model written by `init_net`/`save_net` in set-up. Runs the
  net forward only; bypasses backward, rmsprop and data generation.
- gen: `gen-data` at the full-scale image settings, then `load_dataset` of
  every split. Loads only the data layer; bypasses tensor.

The corpora of train and eval render 256-pixel scenes with an 8-pixel
patch radius, so that set-up can be repeated within a run. Their bag
counts, bag size and the splits the commands read equal criterion 8, so
every tensor shape and loop trip count is that of a full-scale run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bagdesc.cli
import bagdesc.data
import bagdesc.net
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("train", "eval", "gen")
DEFAULT_SEED = 0
TRAIN_THREADS = 2
VIEWS = 4
MATCH = {"tau": 0.12, "beta": 40.0}
# Descriptors are L2-normalized in float64, so rows are unit to a few ulp.
UNIT_ROW_TOL = 1e-9
# Set-ups per run; `setup_s` reports their median.
SETUP_REPS = 3
# A set-up of the bench scale takes about 10 s; a run must end within 180 s.
SETUP_TIMEOUT_S = 120
# (image_size, patch_radius) of the train and eval corpora, at every scale.
SMALL_IMAGE = (256, 8)


def _corpus(splits: dict, bag_size: int, image_size: int, patch_radius: int) -> dict:
    objects = sum(splits.values())
    return {
        "objects": objects,
        "views": VIEWS,
        "bag_size": bag_size,
        "image_size": image_size,
        "patch_radius": patch_radius,
        "train_fraction": splits["train"] / objects,
        "val_fraction": splits["val"] / objects,
    }


@dataclass(frozen=True)
class Scale:
    """Sizes of every workload: the benchmark's, or a tiny one for tests."""

    name: str
    splits: dict  # workload -> objects per split
    bag_size: int
    gen_image: tuple  # (image_size, patch_radius) of the gen corpus
    train: dict
    retrieval: dict
    load_reps: int
    checked_val_bags: int

    def data(self, workload: str) -> dict:
        image = self.gen_image if workload == "gen" else SMALL_IMAGE
        return _corpus(self.splits[workload], self.bag_size, *image)

    def triplets_per_train(self) -> int:
        t = self.train
        return t["rounds"] * t["iters_per_round"] * t["batch_size"]


BENCH = Scale(
    name="bench",
    splits={
        # train needs no test split, eval no train split; the CLI wants >= 2.
        "train": {"train": 35, "val": 8, "test": 2},
        "eval": {"train": 2, "val": 8, "test": 7},
        # The full-scale fractions 0.7 / 0.15 applied to 24 objects.
        "gen": {"train": 17, "val": 4, "test": 3},
    },
    bag_size=32,
    gen_image=(512, 16),
    train={"batch_size": 32, "iters_per_round": 1, "rounds": 2},
    retrieval={"k_list": [2, 4, 8]},
    # Enough loads for load_bags_per_s to have a p75 tail.
    load_reps=40,
    checked_val_bags=4,
)

TINY = Scale(
    name="tiny",
    splits={w: {"train": 2, "val": 2, "test": 2} for w in WORKLOADS},
    bag_size=4,
    gen_image=SMALL_IMAGE,
    train={"batch_size": 2, "iters_per_round": 1, "rounds": 1, "triplets_per_round": 4,
           "val_triplets": 4},
    retrieval={"k_list": [2], "tau_grid": [0.1, 0.5], "kmeans_iters": 5},
    load_reps=2,
    checked_val_bags=2,
)


class SetupError(RuntimeError):
    """Set-up could not produce the workload's inputs."""


# ---------------------------------------------------------------------------
# Workloads


def _cli(out: Path, *args: str) -> int:
    return bagdesc.cli.main(["--config", str(out / "config.json"), "--out", str(out), *args])


def _read_rows(path: Path) -> list[list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [[float(v) for v in row] for row in rows]


class Workload:
    name = ""
    reads: tuple = ()  # splits loaded again from outside after each pass

    def __init__(self, scale: Scale, reference: dict | None):
        self.scale = scale
        self.reference = reference

    def config(self, seed: int) -> dict:
        return {"seed": seed, "data": self.scale.data(self.name), "match": MATCH,
                "train": self.scale.train, "retrieval": self.scale.retrieval}

    def setup(self, out: Path, seed: int) -> None:
        out.mkdir(parents=True)
        (out / "config.json").write_text(json.dumps(self.config(seed)))

    def _generate(self, out: Path) -> None:
        if _cli(out, "gen-data") != 0:
            raise SetupError(f"gen-data failed in {out}")

    def commands(self) -> list[tuple[str, tuple]]:
        raise NotImplementedError

    def check(self, out: Path, command: str) -> list[str]:
        """Problems found in the outputs of `command`; empty when correct."""
        return []

    def bags(self, split: str) -> int:
        return self.scale.splits[self.name][split] * VIEWS


class TrainWorkload(Workload):
    name = "train"

    def setup(self, out, seed):
        super().setup(out, seed)
        self._generate(out)

    def commands(self):
        return [("train", ("--threads", str(TRAIN_THREADS), "train"))]

    def check(self, out, command):
        problems = []
        rows = _read_rows(out / "curves.csv")
        if len(rows) != self.scale.train["rounds"]:
            problems.append(f"curves.csv has {len(rows)} rounds")
        if not all(math.isfinite(v) for row in rows for v in row[1:3]):
            problems.append("curves.csv holds a non-finite loss")
        try:
            net = bagdesc.net.load_net(out / "model.net")
            val = bagdesc.data.load_dataset(out / "val.bags", "val")
        except (ValueError, OSError) as exc:
            return problems + [f"model or val split rejected: {exc}"]
        stack = np.concatenate([b.pixel_stack() for b in val.bags[: self.scale.checked_val_bags]])
        deviation = np.max(np.abs(np.linalg.norm(bagdesc.net.describe(net, stack), axis=1) - 1.0))
        if not deviation <= UNIT_ROW_TOL:
            problems.append(f"descriptor rows deviate from unit norm by {deviation:.3e}")
        return problems


class EvalWorkload(Workload):
    name = "eval"
    OUTPUTS = {"eval-match": "eval_match_test.csv", "eval-vlad": "eval_vlad_test.csv"}

    def setup(self, out, seed):
        super().setup(out, seed)
        self._generate(out)
        bagdesc.net.save_net(bagdesc.net.init_net(seed), out / "model.net")

    def commands(self):
        return [(c, (c, "--split", "test")) for c in self.OUTPUTS]

    def check(self, out, command):
        rows = _read_rows(out / self.OUTPUTS[command])
        problems = [f"{command} score {v} outside [0, 1]" for row in rows for v in row[-3:]
                    if not 0.0 <= v <= 1.0]
        if self.reference is not None:
            expected = self.reference["rows"][command]
            tol = self.reference["tolerance"]
            if len(rows) != len(expected) or any(
                abs(a - b) > tol for got, want in zip(rows, expected) for a, b in zip(got, want)
            ):
                problems.append(f"{command} rows {rows} differ from reference {expected}")
        return problems


class GenWorkload(Workload):
    name = "gen"
    reads = ("train", "val", "test")

    def commands(self):
        return [("gen-data", ("gen-data",))]

    def check(self, out, command):
        problems = []
        ids = {}
        for split in self.reads:
            path = out / f"{split}.bags"
            copy = out / f"roundtrip-{split}.bags"
            try:
                data = bagdesc.data.load_dataset(path, split)
                bagdesc.data.save_dataset(data, copy)
                again = bagdesc.data.load_dataset(copy, split)
            except (ValueError, OSError) as exc:
                problems.append(f"{split} split does not round-trip: {exc}")
                continue
            ids[split] = set(data.object_ids)
            if len(ids[split]) != self.scale.splits["gen"][split] or len(data) != self.bags(split):
                problems.append(f"{split} split has {len(ids[split])} objects, {len(data)} bags")
            if copy.read_bytes() != path.read_bytes() or any(
                not np.array_equal(a.pixel_stack(), b.pixel_stack())
                for a, b in zip(data.bags, again.bags)
            ):
                problems.append(f"{split} split changes on save and load")
            copy.unlink()
            if self.reference is not None:
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                if digest != self.reference["sha256"][split]:
                    problems.append(f"{split}.bags SHA-256 {digest} differs from reference")
        splits = list(ids)
        for i, a in enumerate(splits):
            for b in splits[i + 1:]:
                if ids[a] & ids[b]:
                    problems.append(f"{a} and {b} share object ids {sorted(ids[a] & ids[b])}")
        return problems

    def objects(self) -> int:
        return sum(self.scale.splits["gen"].values())


WORKLOAD_TYPES = {w.name: w for w in (TrainWorkload, EvalWorkload, GenWorkload)}


SCALES = {s.name: s for s in (BENCH, TINY)}


def make_workload(name: str, seed: int, scale: Scale) -> Workload:
    reference = None
    if scale is BENCH and seed == DEFAULT_SEED:
        recorded = json.loads(REFERENCE.read_text())
        reference = recorded.get(name)
    return WORKLOAD_TYPES[name](scale, reference)


# ---------------------------------------------------------------------------
# The closed loop


@dataclass
class Op:
    name: str
    seconds: float
    error: str | None = None


def _attempt(name: str, fn) -> Op:
    """Run and time one operation; any failure is recorded, not raised."""
    start = time.perf_counter()
    try:
        error = fn()
    except Exception as exc:  # the loop must outlive a failing program
        error = f"{type(exc).__name__}: {exc}"
    return Op(name, time.perf_counter() - start, error)


def run_pass(wl: Workload, out: Path, quiet=contextlib.nullcontext) -> list[Op]:
    """One pass of the workload's commands; `quiet` wraps the output checks."""
    ops = []
    for label, args in wl.commands():
        op = _attempt(label, lambda: None if _cli(out, *args) == 0 else "non-zero exit status")
        if op.error is None:
            try:
                with quiet():
                    problems = wl.check(out, label)
            except (ValueError, OSError) as exc:
                problems = [f"unreadable output: {exc}"]
            op.error = "; ".join(problems) or None
        ops.append(op)

    def load_all():
        for split in wl.reads:
            data = bagdesc.data.load_dataset(out / f"{split}.bags", split)
            if len(data) != wl.bags(split):
                return f"{split} split loaded {len(data)} bags"
        return None

    if wl.reads:
        ops.extend(_attempt("load", load_all) for _ in range(wl.scale.load_reps))
    return ops


def timed_loop(wl: Workload, out: Path, seconds: float, quiet=contextlib.nullcontext) -> list[list[Op]]:
    """Whole passes until `seconds` have elapsed; stops at a failed pass."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(wl, out, quiet))
        if any(op.error for op in passes[-1]):
            break
    return passes


# ---------------------------------------------------------------------------
# Metrics and environment


def summary(samples: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    result = {"median": statistics.median(ordered) if ordered else None, "n": n}
    if n > 10:
        result["tail_percentile"] = math.floor(100 * (n - 10) / n)
        result["tail_value"] = ordered[n - 11]
    return result


def rate_summary(amount: float, seconds: list[float]) -> dict:
    """`summary` of `amount` per second, with the tail on the slow side."""
    result = summary(seconds)
    for key in ("median", "tail_value"):
        if result.get(key):
            result[key] = amount / result[key]
    return result


def _pass_seconds(passes: list[list[Op]]) -> list[float]:
    return [sum(op.seconds for op in p if op.name != "load") for p in passes]


def _ops(passes: list[list[Op]], name: str) -> list[Op]:
    return [op for p in passes for op in p if op.name == name]


def workload_metrics(wl: Workload, passes: list[list[Op]]) -> dict:
    """The workload's own named metrics (rates and per-command times), as summaries."""
    m = {}
    if wl.name == "train":
        triplets = wl.scale.triplets_per_train()
        times = [op.seconds for op in _ops(passes, "train")]
        m["train_triplets_per_s"] = rate_summary(triplets, times)
    elif wl.name == "eval":
        m["eval_match_s"] = summary([op.seconds for op in _ops(passes, "eval-match")])
        m["eval_vlad_s"] = summary([op.seconds for op in _ops(passes, "eval-vlad")])
    else:
        times = [op.seconds for op in _ops(passes, "gen-data")]
        m["gen_objects_per_s"] = rate_summary(wl.objects(), times)
        bags = sum(wl.bags(s) for s in wl.reads)
        m["load_bags_per_s"] = rate_summary(bags, [op.seconds for op in _ops(passes, "load")])
    return m


def _blas_threads_at_runtime() -> int | None:
    """OpenBLAS's own thread count, when numpy's OpenBLAS is loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(inherited: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": cpu or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in inherited},
        "thread_env_inherited": inherited,
        "blas_threads_runtime": _blas_threads_at_runtime(),
        "train_threads": TRAIN_THREADS,
    }


# ---------------------------------------------------------------------------
# One run


def setup_in_child(wl: Workload, out: Path, seed: int) -> str | None:
    """Set up `out` in a fresh interpreter; the error, or None on success.

    Each set-up then pays process start, imports and bytecode compilation,
    as a user's first command does, and `setup_s` is a median over them.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-into", str(out),
           "--workload", wl.name, "--seed", str(seed), "--scale", wl.scale.name]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no message"])[-1]
        return f"set-up exited with status {proc.returncode}: {last}"
    return None


def run(name: str, seed: int, seconds: float, trace: bool, *, scale: Scale = BENCH,
        work: Path = WORK, corrupt=None) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (report, result).

    `corrupt`, when given, is called with the set-up output directory before
    the timed loop (the smoke test damages inputs with it). A failed set-up
    counts as a failed operation, and nothing is timed after it.
    """
    wl = make_workload(name, seed, scale)
    run_dir = work / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    passes, layers = [], None
    try:
        setup_ops = []
        for rep in range(SETUP_REPS):
            if rep:
                shutil.rmtree(out)
            out = run_dir / f"setup{rep}"
            setup_ops.append(_attempt("setup", lambda: setup_in_child(wl, out, seed)))
            if setup_ops[-1].error:
                break
        setup_times = [op.seconds for op in setup_ops]
        e2e = {"setup_s": (statistics.median(setup_times), "s")}
        all_ops = list(setup_ops)
        if not setup_ops[-1].error:
            if corrupt is not None:
                corrupt(out)
            passes = timed_loop(wl, out, seconds)
            all_ops += [op for p in passes for op in p]
            e2e["pass_s"] = (statistics.median(_pass_seconds(passes)), "s")
        peak_kb = max(resource.getrusage(who).ru_maxrss
                      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        e2e["peak_rss_mb"] = (peak_kb * 1024 / 1e6, "MB")
        if trace and passes:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = timed_loop(wl, out, seconds, tracer.muted)
            finally:
                tracer.uninstall()
            all_ops += [op for p in traced for op in p]
            layers = tracing.layer_metrics(tracer, len(traced))
            untraced_s = e2e["pass_s"][0]
            traced_s = statistics.median(_pass_seconds(traced))
            layers["trace.pass_s"] = (traced_s, "s")
            layers["trace.overhead_s"] = (traced_s - untraced_s, "s")
            layers["trace.overhead_share"] = (traced_s / untraced_s - 1.0, "ratio")
            (work / "traces").mkdir(parents=True, exist_ok=True)
            tracer.write(work / "traces" / f"{name}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [op for op in all_ops if op.error]
    report = {
        "workload": name,
        "seed": seed,
        "scale": scale.name,
        "seconds": seconds,
        "passes": len(passes),
        "setup_s": summary(setup_times),
        "peak_rss_mb": e2e["peak_rss_mb"][0],
        "failed_share": len(failed) / len(all_ops),
        "failures": [f"{op.name}: {op.error}" for op in failed][:10],
        "metrics": workload_metrics(wl, passes) if passes else {},
    }
    chosen = layers if trace else e2e
    result = {
        "correct": not failed,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in (chosen or {}).items()},
    }
    if trace:
        report["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    return report, result


def main(argv, inherited: dict) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default=BENCH.name)
    parser.add_argument("--setup-into", type=Path, metavar="DIR",
                        help="only write the workload's inputs into DIR (one timed set-up)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if args.setup_into is not None:
        wl = make_workload(args.workload, args.seed, SCALES[args.scale])
        wl.setup(args.setup_into, args.seed)
        return 0
    env = environment(inherited)
    if env["blas_threads_runtime"] not in (None, 1):
        print(f"error: BLAS runs {env['blas_threads_runtime']} threads, not 1; refusing to report",
              file=sys.stderr)
        return 2
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                         scale=SCALES[args.scale])
    report["environment"] = env
    for key, metric in result["metrics"].items():
        print(f"{args.workload} {key} = {metric['value']:.6g} {metric['unit']}")
    for key, s in report["metrics"].items():
        print(f"{args.workload} {key}: median {s['median']:.6g} over n={s['n']}"
              + (f", p{s['tail_percentile']} {s['tail_value']:.6g}" if "tail_value" in s else ""))
    print(f"{args.workload} failed_share = {report['failed_share']:.6g} ratio")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0
