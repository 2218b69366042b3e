"""Loss arithmetic, optimizer mechanics, round structure, determinism."""

import inspect

import numpy as np
import pytest

from bagdesc.data import BagDataset, BagTriplet, PatchBag
from bagdesc.matching import GramPair, MatchConfig, soft_match_score
from bagdesc.net import (
    REDUCED_CHANNELS,
    REDUCED_DESCRIPTOR_DIM,
    DescriptorNet,
    forward_bag,
    init_net,
)
from bagdesc.tensor import DegenerateInputError, Tensor
import bagdesc.train as train_module
from bagdesc.train import (
    RMSPROP_DECAY,
    RMSPROP_EPS,
    TrainConfig,
    _batch_gradients,
    calibrate_match,
    ratio_loss,
    rmsprop_step,
    run_round,
    train,
    triplet_loss,
    validate,
)
from bagdesc.retrieval import write_score_rows

from forward_loss import forward_triplet_loss

RNG = np.random.default_rng(55)


def make_bag(rng, object_id, view_id, n=4):
    return PatchBag(object_id, view_id, rng.uniform(0, 1, (n, 3, 32, 32)))


def make_dataset(num_objects=4, views=3, n=4, seed=0, first_object_id=0):
    rng = np.random.default_rng(seed)
    bags = [
        make_bag(rng, first_object_id + obj, view, n)
        for obj in range(num_objects)
        for view in range(views)
    ]
    return BagDataset(bags, n)


def make_triplet(rng, n=4):
    return BagTriplet(make_bag(rng, 0, 0, n), make_bag(rng, 0, 1, n), make_bag(rng, 1, 0, n))


def test_package_root_leaves_submodules_reachable():
    """`bagdesc` re-exports nothing, so `bagdesc.train` is the module, not the function."""
    import bagdesc
    import bagdesc.train as train_module

    assert inspect.ismodule(train_module)
    assert inspect.ismodule(bagdesc.train)
    assert train_module.train is train


def test_ratio_loss_hand_case():
    assert ratio_loss(0.5, 0.25) == pytest.approx(0.4999990, abs=1e-7)
    assert ratio_loss(0.9, 0.0) == 0.0


def test_train_config_validation():
    MatchConfig()
    TrainConfig()
    for bad in (
        dict(lr0=0.0),
        dict(batch_size=0),
        dict(rounds=0),
        dict(rounds=129),
        dict(patience=0),
        dict(batch_size=64, triplets_per_round=32),
        dict(val_triplets=0),
        dict(val_triplets=-1),
        # counts must be ints, and a bool is not a count
        dict(rounds=1.5),
        dict(val_triplets=2.5),
        dict(iters_per_round=0.5),
        dict(batch_size=2.5, triplets_per_round=8),
        dict(patience=True),
        dict(rounds=True),
        # the seed is a non-negative int, checked before any data loads
        dict(seed=1.5),
        dict(seed=-1),
        dict(seed=True),
    ):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            TrainConfig(lr0=value)


def test_triplet_loss_equal_positive_and_negative_content():
    # same pixels under two different object ids: the two scores coincide
    rng = np.random.default_rng(8)
    anchor = make_bag(rng, 0, 0)
    twin_pixels = make_bag(rng, 9, 9).pixels
    positive = PatchBag(0, 1, twin_pixels.copy())
    negative = PatchBag(1, 0, twin_pixels.copy())
    net = init_net(0)
    loss, _ = triplet_loss(net, BagTriplet(anchor, positive, negative), MatchConfig())
    assert loss == pytest.approx(1.0, abs=1e-5)


def test_triplet_loss_matches_per_bag_forward():
    rng = np.random.default_rng(5)
    t = make_triplet(rng)
    net = init_net(2)
    cfg = MatchConfig(tau=0.5, beta=10.0)
    got, _ = triplet_loss(net, t, cfg)
    anchor, positive, negative = (
        forward_bag(net, bag.pixels).data for bag in (t.anchor, t.positive, t.negative)
    )
    pair_pos = GramPair(anchor, positive)
    pair_neg = GramPair(anchor, negative)
    want = ratio_loss(soft_match_score(pair_pos, cfg), soft_match_score(pair_neg, cfg))
    assert got == pytest.approx(want, abs=1e-10)


def test_triplet_loss_on_float32_bags_equals_float64():
    """Bags hold float32 and the net widens them at its input, so the loss
    and every gradient equal those of the same values held as float64."""
    net = init_net(3, channels=REDUCED_CHANNELS, descriptor_dim=REDUCED_DESCRIPTOR_DIM)
    t = make_triplet(np.random.default_rng(12), n=5)
    loss32, grads32 = triplet_loss(net, t, MatchConfig())
    for bag in (t.anchor, t.positive, t.negative):
        assert bag.pixels.dtype == np.float32
        bag.pixels = bag.pixels.astype(np.float64)  # past PatchBag's narrowing
    loss64, grads64 = triplet_loss(net, t, MatchConfig())
    assert loss32 == loss64
    for name, g in grads64.items():
        assert np.array_equal(grads32[name], g), name


def test_triplet_loss_invariant_to_patch_permutation():
    rng = np.random.default_rng(6)
    t = make_triplet(rng, n=5)
    net = init_net(3)
    cfg = MatchConfig(tau=0.4, beta=25.0)
    base, _ = triplet_loss(net, t, cfg)
    perm = np.random.default_rng(1).permutation(5)
    shuffled = BagTriplet(
        PatchBag(0, 0, t.anchor.pixels[perm]),
        PatchBag(0, 1, t.positive.pixels[perm[::-1]]),
        PatchBag(1, 0, t.negative.pixels[::-1]),
    )
    assert triplet_loss(net, shuffled, cfg)[0] == pytest.approx(base, abs=1e-9)


def test_triplet_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    t = make_triplet(rng, n=3)
    net = init_net(4, channels=REDUCED_CHANNELS, descriptor_dim=REDUCED_DESCRIPTOR_DIM)
    cfg = MatchConfig(tau=0.9, beta=8.0)

    _, grads = triplet_loss(net, t, cfg)
    h = 1e-6
    for name in ("conv1_w", "conv4_w", "fc_w", "conv2_b"):
        analytic = grads[name].reshape(-1)
        flat = net.params[name].data.reshape(-1)
        rng_idx = np.random.default_rng(hash(name) % 2**32)
        for idx in rng_idx.choice(flat.size, size=min(6, flat.size), replace=False):
            saved = flat[idx]
            flat[idx] = saved + h
            up = forward_triplet_loss(net, t, cfg)
            flat[idx] = saved - h
            down = forward_triplet_loss(net, t, cfg)
            flat[idx] = saved
            numeric = (up - down) / (2 * h)
            denom = max(1.0, abs(analytic[idx]), abs(numeric))
            assert abs(analytic[idx] - numeric) / denom < 1e-3


def test_rmsprop_zero_gradient_is_identity():
    params = {"w": Tensor(RNG.normal(size=(3, 3)))}
    before = params["w"].data.copy()
    rmsprop_step(params, {"w": np.zeros((3, 3))}, {}, lr=0.1)
    assert np.array_equal(params["w"].data, before)


def test_rmsprop_one_step_closed_form():
    g = np.array([2.0, -3.0, 0.5])
    params = {"w": Tensor(np.zeros(3))}
    state = {}
    lr = 0.01
    assert (RMSPROP_DECAY, RMSPROP_EPS) == (0.9, 1e-8)
    rmsprop_step(params, {"w": g.copy()}, state, lr)
    expected_v = 0.1 * g * g
    assert np.allclose(state["w"], expected_v, atol=1e-15)
    expected_step = -lr * g / (np.sqrt(expected_v) + RMSPROP_EPS)
    assert np.allclose(params["w"].data, expected_step, atol=1e-15)
    # magnitude is lr / sqrt(0.1) regardless of gradient scale
    assert np.allclose(np.abs(params["w"].data), lr / np.sqrt(0.1), rtol=1e-6)


def test_rmsprop_rejects_non_finite_and_names_layer():
    params = {"conv1_w": Tensor(np.zeros(2))}
    with pytest.raises(FloatingPointError, match="conv1_w"):
        rmsprop_step(params, {"conv1_w": np.array([np.nan, 1.0])}, {}, 0.1)


def test_train_names_round_iteration_and_layer_of_a_non_finite_gradient(monkeypatch):
    """conv2_w's gradient turns NaN from round 1, iteration 0 on: two
    iterations of two triplets per round, one worker, so from call 4."""
    real = train_module.triplet_loss
    calls = []

    def poisoned(net, triplet, cfg):
        loss, grads = real(net, triplet, cfg)
        if len(calls) >= 4:
            grads["conv2_w"][0, 0, 0, 0] = np.nan
        calls.append(loss)
        return loss, grads

    monkeypatch.setattr(train_module, "triplet_loss", poisoned)
    cfg = TrainConfig(iters_per_round=2, triplets_per_round=4, batch_size=2, rounds=3, val_triplets=2)
    trainset = make_dataset(n=3)
    valset = make_dataset(n=3, first_object_id=10)
    message = "^round 1, iteration 0: non-finite gradient in layer conv2_w$"
    with pytest.raises(FloatingPointError, match=message):
        train(trainset, valset, cfg)
    assert len(calls) == 6


def _zero_net(net):
    """A copy of `net` whose every parameter is zero, so its descriptors are too."""
    params = {name: Tensor(np.zeros_like(p.data)) for name, p in net.params.items()}
    return DescriptorNet(params, net.channels, net.descriptor_dim)


def test_train_names_round_and_iteration_of_a_degenerate_descriptor(monkeypatch):
    """From round 1, iteration 0 on (call 4, as above) triplet_loss sees a
    net with zero parameters, so l2_normalize rejects its descriptors."""
    real = train_module.triplet_loss
    calls = []

    def degenerate(net, triplet, cfg):
        calls.append(triplet)
        return real(_zero_net(net) if len(calls) > 4 else net, triplet, cfg)

    monkeypatch.setattr(train_module, "triplet_loss", degenerate)
    cfg = TrainConfig(iters_per_round=2, triplets_per_round=4, batch_size=2, rounds=3, val_triplets=2)
    trainset = make_dataset(n=3)
    valset = make_dataset(n=3, first_object_id=10)
    message = "^round 1, iteration 0: cannot normalize vector with norm 0"
    with pytest.raises(DegenerateInputError, match=message):
        train(trainset, valset, cfg)


def test_train_names_the_round_of_a_degenerate_validation_descriptor(monkeypatch):
    real = train_module.describe_bags

    def degenerate(net, stacks, threads=1):
        return real(_zero_net(net), stacks, threads)

    monkeypatch.setattr(train_module, "describe_bags", degenerate)
    cfg = TrainConfig(iters_per_round=1, triplets_per_round=4, batch_size=2, rounds=2, val_triplets=2)
    trainset = make_dataset(n=3)
    valset = make_dataset(n=3, first_object_id=10)
    message = "^round 0, validation: cannot normalize vector with norm 0"
    with pytest.raises(DegenerateInputError, match=message):
        train(trainset, valset, cfg)


def test_run_round_zero_iters_leaves_net_unchanged():
    ds = make_dataset()
    net = init_net(0)
    before = {k: v.data.copy() for k, v in net.params.items()}
    cfg = TrainConfig(iters_per_round=0, triplets_per_round=8, batch_size=4, rounds=1)
    loss = run_round(net, ds, cfg, np.random.default_rng(0), {}, lr=cfg.lr0)
    assert np.isnan(loss)
    for k in before:
        assert np.array_equal(net.params[k].data, before[k])


def test_run_round_zero_lr_leaves_net_unchanged():
    ds = make_dataset()
    net = init_net(0)
    before = {k: v.data.copy() for k, v in net.params.items()}
    cfg = TrainConfig(iters_per_round=2, triplets_per_round=8, batch_size=2, rounds=1)
    loss = run_round(net, ds, cfg, np.random.default_rng(0), {}, lr=0.0)
    assert np.isfinite(loss)
    for k in before:
        assert np.array_equal(net.params[k].data, before[k])


def test_validate_order_invariant_and_empty_rejected():
    ds = make_dataset()
    rng = np.random.default_rng(1)
    from bagdesc.data import sample_triplet

    triplets = [sample_triplet(ds, rng) for _ in range(6)]
    net = init_net(0)
    cfg = MatchConfig(tau=0.5, beta=10.0)
    a = validate(net, triplets, cfg)
    b = validate(net, list(reversed(triplets)), cfg)
    assert a == pytest.approx(b, abs=1e-12)
    with pytest.raises(ValueError):
        validate(net, [], cfg)


def test_validate_matches_triplet_loss_mean():
    ds = make_dataset()
    rng = np.random.default_rng(2)
    from bagdesc.data import sample_triplet

    triplets = [sample_triplet(ds, rng) for _ in range(5)]
    net = init_net(1)
    cfg = MatchConfig(tau=0.5, beta=10.0)
    batched = validate(net, triplets, cfg)
    naive = float(np.mean([triplet_loss(net, t, cfg)[0] for t in triplets]))
    assert batched == pytest.approx(naive, abs=1e-9)


@pytest.mark.parametrize(
    "shared, own, expected",
    [
        (0.0, 0.8, MatchConfig(tau=1.2, beta=15.0)),  # beta clipped from below
        (1.0, 0.0, MatchConfig(tau=0.01, beta=45.0)),  # no gap: tau floored, beta clipped from above
        (0.85389, 0.035, MatchConfig(tau=0.2572, beta=31.43)),  # 0.25722 and 31.4286, rounded
    ],
)
def test_calibrate_match_rounds_floors_and_clips(monkeypatch, shared, own, expected):
    """tau is the midpoint of the median positive and negative row minima, at
    least 0.01, to 4 places; beta is 2.2 over their gap (at least 0.03),
    clipped to [15, 45], to 2 places. A patch of view v of object o is
    described as sqrt(shared) z + sqrt(own) e_o + sqrt(rest) f_ov on orthonormal
    axes, so positive row minima are 2 rest and negative ones 2 (own + rest)."""
    rest = 1.0 - shared - own

    def described(code):
        obj, view = divmod(code, 10)
        row = np.zeros(10)
        row[0], row[1 + obj], row[4 + 2 * obj + view] = np.sqrt([shared, own, rest])
        return row

    def describe_bags(net, stacks, threads=1):
        return [np.tile(described(round(float(s[0, 0, 0, 0]) * 100)), (len(s), 1)) for s in stacks]

    monkeypatch.setattr(train_module, "describe_bags", describe_bags)
    bags = [PatchBag(o, v, np.full((3, 3, 32, 32), (10 * o + v) / 100)) for o in range(3) for v in range(2)]
    assert calibrate_match(BagDataset(bags, 3), None, np.random.default_rng(0)) == expected


def _quick_cfg(**overrides):
    base = dict(
        match=MatchConfig(tau=0.5, beta=10.0),
        lr0=0.001,
        batch_size=2,
        iters_per_round=2,
        triplets_per_round=8,
        rounds=3,
        patience=1,
        val_triplets=4,
        seed=5,
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_train_curves_and_patience_halving():
    trainset = make_dataset(seed=0)
    valset = make_dataset(num_objects=2, seed=1, first_object_id=50)
    # zero iterations: loss can never improve after round 0, so patience=1
    # halves the rate before each subsequent round
    cfg = _quick_cfg(iters_per_round=0, rounds=3)
    net, curves = train(trainset, valset, cfg)
    assert len(curves) == 3
    assert [r.lr for r in curves] == [0.001, 0.001, 0.0005]
    assert curves[0].val_loss == curves[1].val_loss == curves[2].val_loss


def test_train_is_deterministic():
    trainset = make_dataset(seed=3)
    valset = make_dataset(num_objects=2, seed=4, first_object_id=50)
    cfg = _quick_cfg()
    net_a, curves_a = train(trainset, valset, cfg)
    net_b, curves_b = train(trainset, valset, cfg)
    for name in net_a.params:
        assert np.array_equal(net_a.params[name].data, net_b.params[name].data)
    assert [(r.train_loss, r.val_loss, r.lr) for r in curves_a] == [
        (r.train_loss, r.val_loss, r.lr) for r in curves_b
    ]


def test_train_rejects_overlapping_splits():
    ds = make_dataset(seed=3)
    with pytest.raises(ValueError, match="disjoint"):
        train(ds, ds, _quick_cfg())


def test_write_loss_curves(tmp_path):
    trainset = make_dataset(seed=3)
    valset = make_dataset(num_objects=2, seed=4, first_object_id=50)
    cfg = _quick_cfg(rounds=2)
    _, curves = train(trainset, valset, cfg)
    path = tmp_path / "curves.csv"
    header = ["round", "train_loss", "val_loss", "lr"]
    write_score_rows(path, header, [(r.round_index, r.train_loss, r.val_loss, r.lr) for r in curves])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "round,train_loss,val_loss,lr"
    assert len(lines) == 3
    assert lines[1].startswith("0,")
    # floats are written with repr, so they read back exactly
    for line, r in zip(lines[1:], curves):
        assert line == f"{r.round_index},{r.train_loss!r},{r.val_loss!r},{r.lr!r}"


def test_threaded_batch_matches_single_threaded():
    ds = make_dataset(seed=9)
    rng = np.random.default_rng(4)
    from bagdesc.data import sample_triplet

    triplets = [sample_triplet(ds, rng) for _ in range(4)]
    cfg = MatchConfig(tau=0.5, beta=10.0)
    net = init_net(6)
    loss_single, grads_single = _batch_gradients(net, triplets, cfg, threads=1)
    loss_threaded, grads_threaded = _batch_gradients(net, triplets, cfg, threads=2)
    assert loss_threaded == loss_single
    assert set(grads_single) == set(grads_threaded)
    for name in grads_single:
        assert np.array_equal(grads_single[name], grads_threaded[name])

    val = [sample_triplet(ds, rng) for _ in range(6)]
    assert validate(net, val, cfg, threads=2) == validate(net, val, cfg, threads=1)
    valset = make_dataset(num_objects=2, seed=4, first_object_id=50)
    runs = [train(ds, valset, _quick_cfg(), threads=t) for t in (1, 2)]
    (net_1, curves_1), (net_2, curves_2) = runs
    assert [(r.train_loss, r.val_loss, r.lr) for r in curves_1] == [
        (r.train_loss, r.val_loss, r.lr) for r in curves_2
    ]
    for name in net_1.params:
        assert np.array_equal(net_1.params[name].data, net_2.params[name].data)


def test_batch_gradients_leave_the_net_untouched():
    """Workers never write the caller's net; their grads sum in list order."""
    from bagdesc.data import sample_triplet

    ds = make_dataset(seed=11)
    rng = np.random.default_rng(12)
    triplets = [sample_triplet(ds, rng) for _ in range(3)]
    cfg = MatchConfig(tau=0.5, beta=10.0)
    net = init_net(7, channels=REDUCED_CHANNELS, descriptor_dim=REDUCED_DESCRIPTOR_DIM)
    before = {name: p.data.copy() for name, p in net.params.items()}
    loss, grads = _batch_gradients(net, triplets, cfg, threads=2)
    for name, p in net.params.items():
        assert p.grad is None
        assert np.array_equal(p.data, before[name])

    results = [triplet_loss(net, t, cfg) for t in triplets]
    assert loss == float(np.mean([r[0] for r in results]))
    assert set(grads) == set(net.params)
    for name in net.params:
        want = results[0][1][name].copy()
        for _, per_triplet in results[1:]:
            want += per_triplet[name]
        assert np.array_equal(grads[name], want)
