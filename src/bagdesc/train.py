"""Learning loop: ratio loss over bag triplets, rmsprop, round structure.

Each round samples a fresh pool of triplets, runs a fixed number of rmsprop
iterations on mini-batches drawn from that pool (gradients are summed over
the batch), then measures the loss on a fixed validation triplet list. When
validation has not improved for `patience` rounds the learning rate is
halved. The snapshot with the best validation loss is returned.

Everything is deterministic in (seed, data, config), whatever the thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import BagDataset, BagTriplet, PatchBag, sample_triplet
from .matching import GramPair, MatchConfig, soft_match_backward, soft_match_score
from .net import DescriptorNet, describe, describe_bags, forward_bag, init_net
from .tensor import DegenerateInputError, Tensor

__all__ = [
    "TrainConfig",
    "RoundReport",
    "ratio_loss",
    "triplet_loss",
    "rmsprop_step",
    "run_round",
    "validate",
    "calibrate_match",
    "train",
    "split_seed",
]

# Keeps the ratio loss finite when the positive score is zero.
RATIO_EPSILON = 1e-6
# rmsprop's squared-gradient decay and denominator guard.
RMSPROP_DECAY = 0.9
RMSPROP_EPS = 1e-8
# Triplets whose initial distances `calibrate_match` measures.
CALIBRATION_TRIPLETS = 48


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer, round-structure and validation-list constants."""

    match: MatchConfig = field(default_factory=MatchConfig)
    lr0: float = 0.001
    batch_size: int = 32
    iters_per_round: int = 512
    triplets_per_round: int = 5000
    rounds: int = 128
    patience: int = 5
    val_triplets: int = 128
    seed: int = 0

    def __post_init__(self):
        integers = (
            "batch_size", "iters_per_round", "triplets_per_round", "rounds", "patience", "val_triplets", "seed"
        )
        for name in integers:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 < self.lr0 < np.inf:
            raise ValueError(f"lr0 must be positive and finite, got {self.lr0}")
        if min(self.batch_size, self.triplets_per_round, self.rounds, self.val_triplets) < 1:
            raise ValueError(
                "batch_size, triplets_per_round, rounds and val_triplets must be positive"
            )
        if self.iters_per_round < 0:
            raise ValueError("iters_per_round must be non-negative")
        if self.rounds > 128:
            raise ValueError(f"rounds capped at 128, got {self.rounds}")
        if self.patience < 1:
            raise ValueError(f"patience must be at least 1, got {self.patience}")
        if self.batch_size > self.triplets_per_round:
            raise ValueError("batch cannot exceed the round's triplet pool")


@dataclass
class RoundReport:
    round_index: int
    train_loss: float
    val_loss: float
    lr: float


def split_seed(master: int) -> list[np.random.SeedSequence]:
    """Three independent child streams of `master`: the CLI's (data, train,
    retrieval) seeds, or a train seed's (init, sampling, validation) streams.
    """
    return np.random.SeedSequence(master).spawn(3)


def ratio_loss(score_pos: float, score_neg: float) -> float:
    """score_neg / (score_pos + RATIO_EPSILON): low when the matching pair wins."""
    return score_neg / (score_pos + RATIO_EPSILON)


def _bag_key(bag: PatchBag) -> tuple[int, int]:
    """A bag's identity within a split: (object id, view id)."""
    return bag.object_id, bag.view_id


def _slots(triplets: list[BagTriplet]) -> dict[tuple[int, int], list[PatchBag]]:
    """The bag of every slot of `triplets`, grouped under its `_bag_key`."""
    slots: dict = {}
    for t in triplets:
        for bag in (t.anchor, t.positive, t.negative):
            slots.setdefault(_bag_key(bag), []).append(bag)
    return slots


def _graph(net: DescriptorNet, pixels: np.ndarray) -> tuple[Tensor, dict[str, Tensor]]:
    """`forward_bag` of `pixels` with a gradient graph, and the leaf Tensors it
    records against: this call's own, sharing the net's parameter arrays.
    They are the only leaves that take a gradient, so the net itself is only
    read and concurrent calls do not interfere."""
    params = {name: Tensor(p.data) for name, p in net.params.items()}
    return forward_bag(DescriptorNet(params, net.channels, net.descriptor_dim), pixels), params


def triplet_loss(
    net: DescriptorNet, triplet: BagTriplet, cfg: MatchConfig, shared: dict | None = None
) -> tuple[float, dict]:
    """Ratio loss of one triplet and its gradient for every parameter.

    The bags' float32 pixels are concatenated and run through the extractor
    as one stacked batch (see `_graph`), which `forward` widens to float64
    once; the anchor's two gradient contributions (it appears in both
    scores) are summed before the single backward pass.

    `shared` maps the keys (`_bag_key`) of bags described elsewhere to their
    descriptor rows. Those bags are read from it instead of forwarded, and
    the gradient with respect to each one's rows is returned in the same
    dict, under its key; the parameter gradients then cover the other bags
    alone, and are absent when the triplet has none.
    """
    shared = shared or {}
    n = triplet.anchor.n
    bags = (triplet.anchor, triplet.positive, triplet.negative)
    keys = [_bag_key(bag) for bag in bags]
    own = [i for i, key in enumerate(keys) if key not in shared]
    rows = [shared.get(key) for key in keys]
    if own:
        desc, params = _graph(net, np.concatenate([bags[i].pixel_stack() for i in own]))
        for j, i in enumerate(own):
            rows[i] = desc.data[j * n : (j + 1) * n]
    pair_pos = GramPair(rows[0], rows[1])
    pair_neg = GramPair(rows[0], rows[2])
    score_pos = soft_match_score(pair_pos, cfg)
    score_neg = soft_match_score(pair_neg, cfg)
    loss = ratio_loss(score_pos, score_neg)
    d_neg = 1.0 / (score_pos + RATIO_EPSILON)
    d_pos = -score_neg / (score_pos + RATIO_EPSILON) ** 2
    da_neg, dn = soft_match_backward(pair_neg, cfg, upstream=d_neg)
    da_pos, dp = soft_match_backward(pair_pos, cfg, upstream=d_pos)
    slot_grads = (da_neg + da_pos, dp, dn)
    grads = {}
    if own:
        desc.backward(np.concatenate([slot_grads[i] for i in own]))
        grads = {name: p.grad for name, p in params.items()}
    grads.update((key, g) for key, g in zip(keys, slot_grads) if key in shared)
    return loss, grads


def rmsprop_step(params: dict, grads: dict, state: dict, lr: float) -> None:
    """In-place rmsprop update: v <- decay v + (1-decay) g^2, p -= lr g/(sqrt(v)+eps),
    with RMSPROP_DECAY and RMSPROP_EPS. Every parameter needs a gradient: a
    missing one raises ValueError naming the layer."""
    for name, param in params.items():
        g = grads.get(name)
        if g is None:
            raise ValueError(f"no gradient for layer {name}")
        if g.shape != param.data.shape:
            raise ValueError(f"gradient for {name} has shape {g.shape}, expected {param.data.shape}")
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in layer {name}")
        v = state.get(name)
        if v is None:
            v = state[name] = np.zeros_like(param.data)
        v *= RMSPROP_DECAY
        v += (1.0 - RMSPROP_DECAY) * g * g
        param.data -= lr * g / (np.sqrt(v) + RMSPROP_EPS)


def _bag_gradients(net: DescriptorNet, pixels: np.ndarray, seed: np.ndarray) -> dict:
    """Parameter gradients of one bag's rows under the row gradient `seed`."""
    desc, params = _graph(net, pixels)
    desc.backward(seed)
    return {name: p.grad for name, p in params.items()}


def _add_into(total: dict, grads: dict) -> None:
    """Add each array of `grads` into `total` under its key; an array for a
    key `total` lacks is adopted, not copied."""
    for key, g in grads.items():
        if key in total:
            total[key] += g
        else:
            total[key] = g


def _batch_gradients(
    net: DescriptorNet,
    triplets: list[BagTriplet],
    cfg: MatchConfig,
    threads: int,
) -> tuple[float, dict]:
    """Summed parameter gradients (and mean loss) over a batch of triplets.

    A bag (keyed by `_bag_key`) in more than one of the batch's slots is
    shared. Three phases run on one pool of `threads` workers:
    1. each shared bag is described once, without a graph;
    2. `triplet_loss` runs per triplet on the rows of (1): it forwards and
       backpropagates the triplet's other bags and hands back each shared
       bag's row gradient;
    3. each shared bag's row gradients, summed in triplet order, seed one
       forward with a graph and one backward over that bag.
    `Tensor.backward` is linear in its seed and every layer maps each patch
    on its own, so (3) gives the gradient of every slot the bag fills, and
    a bag's rows do not depend on the stack it is forwarded in (tested at
    one BLAS thread), so every loss is the one `triplet_loss` gives alone. Parameter gradients are
    summed as each triplet's arrive, in list order, then each shared bag's
    in key order, so the result does not depend on the thread count. A
    batch with no shared bag runs phase 2 alone.
    """
    shared = {key: bags[0] for key, bags in sorted(_slots(triplets).items()) if len(bags) > 1}
    # The running sum also gathers each shared bag's row gradient, under its
    # key, until phase 3 takes it out.
    total: dict = {}
    losses = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        rows = dict(zip(shared, pool.map(lambda bag: describe(net, bag.pixel_stack()), shared.values())))
        for loss, grads in pool.map(lambda t: triplet_loss(net, t, cfg, rows), triplets):
            losses.append(loss)
            _add_into(total, grads)
        seeds = {key: total.pop(key) for key in shared}
        for grads in pool.map(lambda key: _bag_gradients(net, shared[key].pixel_stack(), seeds[key]), shared):
            _add_into(total, grads)
    return float(np.mean(losses)), total


def run_round(
    net: DescriptorNet,
    trainset: BagDataset,
    cfg: TrainConfig,
    rng: np.random.Generator,
    state: dict,
    lr: float,
    threads: int = 1,
) -> float:
    """One round: sample a triplet pool, run the configured rmsprop iterations.

    Returns the mean training loss over the iterations (NaN when there are none).
    A non-finite gradient (FloatingPointError, naming the layer) or a
    degenerate descriptor (DegenerateInputError) is re-raised with the
    iteration prefixed.
    """
    pool = [sample_triplet(trainset, rng) for _ in range(cfg.triplets_per_round)]
    losses = []
    for iteration in range(cfg.iters_per_round):
        chosen = rng.choice(len(pool), size=cfg.batch_size, replace=False)
        batch = [pool[i] for i in chosen]
        try:
            mean_loss, grads = _batch_gradients(net, batch, cfg.match, threads)
            rmsprop_step(net.params, grads, state, lr)
        except (FloatingPointError, DegenerateInputError) as exc:
            raise type(exc)(f"iteration {iteration}: {exc}") from exc
        losses.append(mean_loss)
    return float(np.mean(losses)) if losses else float("nan")


def _triplet_pairs(
    net: DescriptorNet, triplets: list[BagTriplet], threads: int = 1
) -> list[tuple[GramPair, GramPair]]:
    """Each triplet's (anchor-positive, anchor-negative) GramPairs. Distinct
    bags (`_slots`) are described once (a triplet list reuses bags
    heavily), one bag per task on `threads` workers.
    """
    keyed = _slots(triplets)
    keys = sorted(keyed)
    descs = dict(zip(keys, describe_bags(net, [keyed[key][0].pixel_stack() for key in keys], threads)))

    def pair(a, b):
        return GramPair(descs[_bag_key(a)], descs[_bag_key(b)])

    return [(pair(t.anchor, t.positive), pair(t.anchor, t.negative)) for t in triplets]


def validate(net: DescriptorNet, valset: list[BagTriplet], cfg: MatchConfig, threads: int = 1) -> float:
    """Mean triplet loss over a fixed validation list, scored on the pairs of
    `_triplet_pairs`; no updates."""
    if not valset:
        raise ValueError("validation set must not be empty")
    pairs = _triplet_pairs(net, valset, threads)
    return float(np.mean([ratio_loss(soft_match_score(p, cfg), soft_match_score(q, cfg)) for p, q in pairs]))


def calibrate_match(trainset: BagDataset, net: DescriptorNet, rng: np.random.Generator) -> MatchConfig:
    """tau and beta from `net`'s median positive and negative row minima over
    CALIBRATION_TRIPLETS triplets drawn with `rng`: tau is their midpoint (at
    least 0.01, to 4 places), so the sigmoids start unsaturated, and beta is
    2.2 over their gap (at least 0.03), clipped to [15, 45] (to 2 places).
    """
    pairs = _triplet_pairs(net, [sample_triplet(trainset, rng) for _ in range(CALIBRATION_TRIPLETS)])
    pos_med, neg_med = (float(np.median(np.concatenate([p[side].mins for p in pairs]))) for side in (0, 1))
    tau = max((pos_med + neg_med) / 2.0, 0.01)
    beta = float(np.clip(2.2 / max(neg_med - pos_med, 0.03), 15.0, 45.0))
    return MatchConfig(tau=round(tau, 4), beta=round(beta, 2))


def train(
    trainset: BagDataset,
    valset: BagDataset,
    cfg: TrainConfig,
    threads: int = 1,
) -> tuple[DescriptorNet, list[RoundReport]]:
    """Full-width learning run; returns the best-validation snapshot and loss curves.

    The master seed splits into independent streams for initialization,
    round sampling, and the fixed list of `cfg.val_triplets` validation
    triplets, which is drawn once from `valset`. A non-finite gradient
    stops the run with a FloatingPointError naming the round, the iteration
    and the layer; a degenerate descriptor stops it with a
    DegenerateInputError naming the round and the iteration, or "validation".
    """
    if set(valset.object_ids) & set(trainset.object_ids):
        raise ValueError("train and validation object ids must be disjoint")
    init, sampling, validation = split_seed(cfg.seed)
    init_seed = int(init.generate_state(1)[0])
    sample_rng = np.random.Generator(np.random.PCG64(sampling))
    val_rng = np.random.Generator(np.random.PCG64(validation))

    net = init_net(init_seed)
    val_list = [sample_triplet(valset, val_rng) for _ in range(cfg.val_triplets)]

    state: dict = {}
    lr = cfg.lr0
    curves: list[RoundReport] = []
    best_loss = float("inf")
    best_params = None
    rounds_since_best = 0
    for round_index in range(cfg.rounds):
        try:
            train_loss = run_round(net, trainset, cfg, sample_rng, state, lr, threads)
        except (FloatingPointError, DegenerateInputError) as exc:
            raise type(exc)(f"round {round_index}, {exc}") from exc
        try:
            val_loss = validate(net, val_list, cfg.match, threads)
        except DegenerateInputError as exc:
            raise DegenerateInputError(f"round {round_index}, validation: {exc}") from exc
        report = RoundReport(round_index, train_loss, val_loss, lr)
        curves.append(report)
        if report.val_loss < best_loss:
            best_loss = report.val_loss
            best_params = {name: p.data.copy() for name, p in net.params.items()}
            rounds_since_best = 0
        else:
            rounds_since_best += 1
            if rounds_since_best >= cfg.patience:
                lr *= 0.5
                rounds_since_best = 0
    if best_params is not None:
        for name, p in net.params.items():
            p.data = best_params[name]
    return net, curves
