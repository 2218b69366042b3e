"""Loss arithmetic, optimizer mechanics, round structure, determinism."""

import numpy as np
import pytest

from bagdesc.data import BagDataset, BagTriplet, PatchBag
from bagdesc.matching import GramPair, MatchConfig, soft_match_score
from bagdesc.net import (
    REDUCED_CHANNELS,
    REDUCED_DESCRIPTOR_DIM,
    forward_bag,
    init_net,
)
from bagdesc.tensor import Tensor
from bagdesc.train import (
    TrainConfig,
    _batch_gradients,
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


def test_ratio_loss_hand_case():
    assert ratio_loss(0.5, 0.25, 1e-6) == pytest.approx(0.4999990, abs=1e-7)
    assert ratio_loss(0.9, 0.0, 1e-6) == 0.0


def test_train_config_validation():
    MatchConfig()
    TrainConfig()
    for bad in (
        dict(lr0=0.0),
        dict(batch_size=0),
        dict(rounds=0),
        dict(rounds=129),
        dict(patience=0),
        dict(rmsprop_decay=1.0),
        dict(batch_size=64, triplets_per_round=32),
        dict(val_triplets=0),
        dict(val_triplets=-1),
    ):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    for field in ("lr0", "rmsprop_decay", "rmsprop_eps"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                TrainConfig(**{field: value})


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
    want = ratio_loss(soft_match_score(pair_pos, cfg), soft_match_score(pair_neg, cfg), cfg.epsilon)
    assert got == pytest.approx(want, abs=1e-10)


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
    rmsprop_step(params, {"w": np.zeros((3, 3))}, {}, lr=0.1, decay=0.9, eps=1e-8)
    assert np.array_equal(params["w"].data, before)


def test_rmsprop_one_step_closed_form():
    g = np.array([2.0, -3.0, 0.5])
    params = {"w": Tensor(np.zeros(3))}
    state = {}
    lr, decay, eps = 0.01, 0.9, 1e-8
    rmsprop_step(params, {"w": g.copy()}, state, lr, decay, eps)
    expected_v = 0.1 * g * g
    assert np.allclose(state["w"], expected_v, atol=1e-15)
    expected_step = -lr * g / (np.sqrt(expected_v) + eps)
    assert np.allclose(params["w"].data, expected_step, atol=1e-15)
    # magnitude is lr / sqrt(0.1) regardless of gradient scale
    assert np.allclose(np.abs(params["w"].data), lr / np.sqrt(0.1), rtol=1e-6)


def test_rmsprop_rejects_non_finite_and_names_layer():
    params = {"conv1_w": Tensor(np.zeros(2))}
    with pytest.raises(FloatingPointError, match="conv1_w"):
        rmsprop_step(params, {"conv1_w": np.array([np.nan, 1.0])}, {}, 0.1, 0.9, 1e-8)


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
