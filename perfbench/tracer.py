"""Span tracing of bagdesc from outside the package.

The tracer replaces the package's functions under the names their callers look
them up by (``bagdesc.cli.match_retrieve``, ``bagdesc.net.conv2d``, ...) with
wrappers that record one span per call, and restores the originals on
``uninstall``. Each tensor op's backward closure is wrapped too, so the
backward pass is timed per op. Nothing in ``src/`` changes.

A span is ``[id, name, start_ns, end_ns, parent_id, thread, trace_id]``,
kept in memory and written out as JSON lines at the end. Spans of one
triplet or one CLI command share a trace id. The first dotted component of
a span name is the layer: one of the package's modules.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import itertools
import json
import os
import threading
import time

import numpy as np

LAYERS = ("tensor", "net", "matching", "train", "data", "retrieval", "cli")
CLI_COMMANDS = {
    "cmd_gen_data": "gen-data",
    "cmd_train": "train",
    "cmd_eval_match": "eval-match",
    "cmd_eval_vlad": "eval-vlad",
}
TENSOR_OPS = {"relu": "relu", "maxpool2x2": "maxpool", "affine": "affine", "l2_normalize": "l2"}
# By import path: the package's `train` attribute is the function, not the module.
MODULES = {name: importlib.import_module(f"bagdesc.{name}")
           for name in ("cli", "data", "net", "retrieval", "tensor", "train")}
CONV_LAYERS = 4
FLOAT_BYTES = 8

# Wrapped as (module, attribute, span name); callers resolve these names at
# call time, so replacing the module attribute reaches every call site.
PLAIN_SPANS = (
    ("cli", "train", "train.train"),
    ("cli", "load_net", "net.load"),
    ("cli", "save_net", "net.save"),
    ("cli", "forward_bag", "net.forward_bag"),
    ("train", "forward_bag", "net.forward_bag"),
    ("train", "describe", "net.describe"),
    ("retrieval", "forward_bag", "net.forward_bag"),
    ("train", "run_round", "train.round"),
    ("train", "rmsprop_step", "train.rmsprop"),
    ("train", "validate", "train.validate"),
    ("train", "sample_triplet", "train.sample"),
    ("train", "GramPair", "matching.gram_pair"),
    ("retrieval", "GramPair", "matching.gram_pair"),
    ("train", "soft_match_score", "matching.soft_score"),
    ("train", "soft_match_backward", "matching.soft_backward"),
    ("retrieval", "hard_match_score", "matching.hard_score"),
    ("cli", "build_match_index", "retrieval.index"),
    ("retrieval", "build_match_index", "retrieval.index"),
    ("cli", "sweep_tau", "retrieval.sweep_tau"),
    ("cli", "match_retrieve", "retrieval.match_retrieve"),
    ("retrieval", "match_retrieve", "retrieval.match_retrieve"),
    ("cli", "nn_ft_st", "retrieval.nn_ft_st"),
    ("retrieval", "nn_ft_st", "retrieval.nn_ft_st"),
    ("cli", "vlad_encode", "retrieval.vlad_encode"),
    ("cli", "vlad_retrieve", "retrieval.vlad_retrieve"),
    ("data", "fast_detect", "data.fast"),
    ("data", "extract_bag", "data.extract"),
)


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self._main_stack: list[list] = []
        self._origin_ns = time.perf_counter_ns()
        self.threads = 1
        self._muted = False

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, new_trace: bool = False) -> list:
        stack = self._stack()
        # A worker thread's first span hangs under the span the main thread
        # is in, so the thread pool's time is attributed to its caller.
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        trace = next(self._traces) if new_trace or parent is None else parent[6]
        span = [next(self._ids), name, time.perf_counter_ns(), 0,
                parent[0] if parent else None, threading.get_ident(), trace]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def timed(self, fn, name, new_trace=False, on_call=None, on_result=None):
        """`fn` wrapped in a span; `name` may be a callable of the arguments."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._muted:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            span = tracer.open(name(args) if callable(name) else name, new_trace)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def muted(self):
        """Calls made inside run untraced (the benchmark's own output checks)."""
        self._muted = True
        try:
            yield
        finally:
            self._muted = False

    def _wrap(self, owner, attr: str, name, **hooks) -> None:
        owner = MODULES[owner] if isinstance(owner, str) else owner
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.timed(original, name, **hooks))

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        self._local.stack = self._main_stack
        for module, attr, name in PLAIN_SPANS:
            self._wrap(module, attr, name)
        for attr, command in CLI_COMMANDS.items():
            self._wrap("cli", attr, f"cli.{command}", new_trace=True)
        self._wrap("train", "triplet_loss", "train.triplet", new_trace=True)
        self._wrap("train", "_batch_gradients", "train.batch", on_call=self._count_batch)
        self._wrap("net", "forward", "net.forward", on_call=self._start_forward)
        self._wrap(MODULES["tensor"].Tensor, "backward", "net.backward")
        self._wrap("net", "conv2d", self._conv_name, on_result=self._conv_result)
        for attr, op in TENSOR_OPS.items():
            self._wrap("net", attr, f"tensor.{op}.fwd", on_result=self._op_result(op))
        self._wrap("cli", "build_dataset", "data.build", on_call=self._count_objects)
        self._wrap("data", "generate_scene", "data.scene", on_call=self._count_scene)
        self._wrap("cli", "save_dataset", "data.save", on_result=self._count_file("data.bytes_written", 1))
        for owner in ("cli", "data"):
            self._wrap(owner, "load_dataset", "data.load", on_result=self._count_file("data.bytes_read", 0))
        self._wrap("cli", "kmeans", "retrieval.kmeans", on_result=self._count_kmeans)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self._local.stack = None

    # -- hooks ---------------------------------------------------------------

    def _count_batch(self, args, kwargs) -> None:
        triplets = args[1]
        keys = {(b.object_id, b.view_id) for t in triplets for b in (t.anchor, t.positive, t.negative)}
        self.add("train.bag_slots", 3 * len(triplets))
        self.add("train.distinct_bags", len(keys))
        self.threads = args[3] if len(args) > 3 else kwargs["threads"]

    def _start_forward(self, args, kwargs) -> None:
        self._local.conv_index = 0
        pixels = args[1]
        shape = np.shape(getattr(pixels, "pixels", pixels))
        self.add("net.forward_patches", shape[0] if len(shape) == 4 else 1)

    def _conv_name(self, args) -> str:
        self._local.conv_index = getattr(self._local, "conv_index", 0) % CONV_LAYERS + 1
        return f"tensor.conv{self._local.conv_index}.fwd"

    def _conv_result(self, args, kwargs, out) -> None:
        x, weights = args[0], args[1]
        cout, cin, kh, kw = weights.data.shape
        batch_out = out.data.size // cout  # B * Ho * Wo
        gemm_flop = 2.0 * cout * cin * kh * kw * batch_out
        col_bytes = float(cin * kh * kw * batch_out * FLOAT_BYTES)
        self.add("tensor.conv.flop", gemm_flop)
        self.add("tensor.conv.im2col_bytes", col_bytes)
        layer = self._local.conv_index
        backward = out._backward_fn

        def timed_backward(grad):
            span = self.open(f"tensor.conv{layer}.bwd")
            try:
                backward(grad)
            finally:
                self.close(span)
            # Weight gradient always; input gradient and col2im only when
            # the input takes a gradient (conv1's input is the patch stack).
            self.add("tensor.conv.flop", gemm_flop * (2 if x.requires_grad else 1))
            if x.requires_grad:
                self.add("tensor.conv.col2im_bytes", col_bytes)

        out._backward_fn = timed_backward

    def _op_result(self, op: str):
        def hook(args, kwargs, out) -> None:
            out._backward_fn = self.timed(out._backward_fn, f"tensor.{op}.bwd")

        return hook

    def _count_objects(self, args, kwargs) -> None:
        self.add("data.objects", args[0])

    def _count_scene(self, args, kwargs) -> None:
        self.add("data.scene_attempts", 1)

    def _count_file(self, key: str, path_index: int):
        def hook(args, kwargs, result) -> None:
            self.add(key, os.path.getsize(args[path_index]))

        return hook

    def _count_kmeans(self, args, kwargs, codebook) -> None:
        self.add("retrieval.kmeans_iters", len(codebook.distortion_history or ()))

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> seconds not covered by its children's intervals."""
        children: dict[int, list[tuple[int, int]]] = collections.defaultdict(list)
        for span in self.spans:
            if span[4] is not None:
                children[span[4]].append((span[2], span[3]))
        result = {}
        for sid, name, start, end, *_ in self.spans:
            covered = 0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            result[sid] = (end - start - covered) * 1e-9
        return result

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, thread, trace in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name,
                    "start_s": (start - self._origin_ns) * 1e-9,
                    "end_s": (end - self._origin_ns) * 1e-9,
                    "parent": parent, "thread": thread, "trace": trace,
                }) + "\n")


def gemm_peak_gflop_per_s(reps: int = 5) -> float:
    """Best float64 GEMM rate on conv3's forward shape for a 96-patch stack."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((128, 64 * 3 * 3))
    b = rng.standard_normal((64 * 3 * 3, 96 * 12 * 12))
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - start)
    return 2.0 * a.shape[0] * a.shape[1] * b.shape[1] / best * 1e-9


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each per traced pass, as name -> (value, unit)."""
    inclusive: collections.Counter = collections.Counter()
    own: collections.Counter = collections.Counter()
    self_s = tracer.self_times()
    for sid, name, start, end, *_ in tracer.spans:
        inclusive[name] += (end - start) * 1e-9
        own[name] += self_s[sid]
    c = tracer.counts
    per = 1.0 / passes

    def seconds(name):
        return inclusive[name] * per, "s"

    def count(key, unit="count"):
        return c[key] * per, unit

    def share(numerator, denominator):
        return (numerator / denominator if denominator else 0.0), "ratio"

    m: dict[str, tuple[float, str]] = {}
    conv_s = 0.0
    for layer in range(1, CONV_LAYERS + 1):
        for way in ("fwd", "bwd"):
            m[f"tensor.conv{layer}.{way}_s"] = seconds(f"tensor.conv{layer}.{way}")
            conv_s += inclusive[f"tensor.conv{layer}.{way}"]
    for op in TENSOR_OPS.values():
        for way in ("fwd", "bwd"):
            m[f"tensor.{op}.{way}_s"] = seconds(f"tensor.{op}.{way}")
    m["tensor.conv.gflop"] = (c["tensor.conv.flop"] * 1e-9 * per, "GFLOP-computed")
    m["tensor.conv.im2col_bytes"] = count("tensor.conv.im2col_bytes", "B-computed")
    m["tensor.conv.col2im_bytes"] = count("tensor.conv.col2im_bytes", "B-computed")
    m["tensor.conv.gflop_per_s"] = (c["tensor.conv.flop"] * 1e-9 / conv_s if conv_s else 0.0, "GFLOP/s")
    m["tensor.gemm_peak_gflop_per_s"] = (gemm_peak_gflop_per_s(), "GFLOP/s")

    m["net.forward_patches"] = count("net.forward_patches")
    m["net.forward_s"] = seconds("net.forward")
    m["net.backward_s"] = seconds("net.backward")
    m["net.load_s"] = seconds("net.load")

    m["matching.soft_score_s"] = seconds("matching.soft_score")
    m["matching.soft_backward_s"] = seconds("matching.soft_backward")
    m["matching.gram_pairs"] = (sum(1 for s in tracer.spans if s[1] == "matching.gram_pair") * per, "count")
    m["matching.gram_pair_s"] = seconds("matching.gram_pair")
    m["matching.hard_score_calls"] = (sum(1 for s in tracer.spans if s[1] == "matching.hard_score") * per, "count")
    m["matching.hard_score_s"] = seconds("matching.hard_score")

    busy = inclusive["train.triplet"]
    m["train.triplet_loss_busy_s"] = (busy * per, "s")
    m["train.worker_busy_share"] = share(busy, inclusive["train.batch"] * tracer.threads)
    m["train.rmsprop_s"] = seconds("train.rmsprop")
    m["train.validate_s"] = seconds("train.validate")
    m["train.sample_s"] = seconds("train.sample")
    m["train.bag_slots"] = count("train.bag_slots")
    m["train.distinct_bags"] = count("train.distinct_bags")
    m["train.distinct_bag_share"] = share(c["train.distinct_bags"], c["train.bag_slots"])

    m["data.scene_s"] = seconds("data.scene")
    m["data.fast_s"] = seconds("data.fast")
    m["data.extract_s"] = seconds("data.extract")
    m["data.scene_attempts_per_object"] = (share(c["data.scene_attempts"], c["data.objects"])[0], "attempts/object")
    m["data.save_s"] = seconds("data.save")
    m["data.bytes_written"] = count("data.bytes_written", "B")
    m["data.load_s"] = seconds("data.load")
    m["data.bytes_read"] = count("data.bytes_read", "B")

    for key in ("index", "sweep_tau", "match_retrieve", "nn_ft_st", "kmeans", "vlad_encode", "vlad_retrieve"):
        m[f"retrieval.{key}_s"] = seconds(f"retrieval.{key}")
    m["retrieval.match_retrieve_calls"] = (
        sum(1 for s in tracer.spans if s[1] == "retrieval.match_retrieve") * per, "count")
    m["retrieval.kmeans_iters"] = count("retrieval.kmeans_iters")

    for command in CLI_COMMANDS.values():
        m[f"cli.{command}.self_s"] = (own[f"cli.{command}"] * per, "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(v for k, v in own.items() if k.split(".")[0] == layer) * per, "s")
    m["trace.spans"] = (len(tracer.spans) * per, "count")
    return m
