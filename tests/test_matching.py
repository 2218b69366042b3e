"""Bag matching scores, their gradients, and the exact-matching cross-check."""

import numpy as np
import pytest

from bagdesc.matching import (
    GramPair,
    MatchConfig,
    hard_match_score,
    hungarian_match_count,
    soft_indicator,
    soft_match_backward,
    soft_match_score,
    sqdist_matrix,
)

from oracles import max_matching_bruteforce, pairwise_sqdist_loop

RNG = np.random.default_rng(77)


def unit_rows(a):
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def random_pair(rng, n=8, d=16):
    return GramPair(unit_rows(rng.normal(size=(n, d))), unit_rows(rng.normal(size=(n, d))))


def orthonormal_pair(n):
    e = np.eye(n)
    return GramPair(e, e)


def soft_score_reference(desc1, desc2, cfg):
    d2 = pairwise_sqdist_loop(desc1, desc2)
    mins = d2.min(axis=1)
    return float(np.mean(1.0 / (1.0 + np.exp(cfg.beta * (mins - cfg.tau)))))


def test_match_config_defaults_and_validation():
    cfg = MatchConfig()
    assert (cfg.tau, cfg.beta) == (0.8, 20.0)
    for bad in (dict(tau=0.0), dict(tau=4.0), dict(beta=0.0)):
        with pytest.raises(ValueError):
            MatchConfig(**bad)
    # every field rejects NaN and infinity (plain comparisons let NaN through)
    for field in ("tau", "beta"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                MatchConfig(**{field: value})


def test_gram_pair_rejects_non_unit_rows():
    with pytest.raises(ValueError):
        GramPair(np.ones((2, 4)), unit_rows(RNG.normal(size=(2, 4))))
    with pytest.raises(ValueError):
        GramPair(unit_rows(RNG.normal(size=(2, 4))), unit_rows(RNG.normal(size=(3, 4))))


def test_soft_indicator_center_and_saturation():
    cfg = MatchConfig(tau=0.8, beta=20.0)
    assert soft_indicator(0.8, cfg) == pytest.approx(0.5, abs=1e-15)
    # value at x=0 with the recommended constants: 1 / (1 + e^-16)
    assert soft_indicator(0.0, cfg) == pytest.approx(1.0 / (1.0 + np.exp(-16.0)), rel=1e-12)
    assert soft_indicator(0.0, cfg) == pytest.approx(0.99999989, abs=1e-8)
    # exponent clamping bounds the saturation tails at ~1e-218
    assert soft_indicator(1e9, cfg) == pytest.approx(0.0, abs=1e-200)
    assert soft_indicator(-1e9, cfg) == pytest.approx(1.0, abs=1e-200)
    x = np.linspace(0.0, 4.0, 64)
    assert np.all(np.diff(soft_indicator(x, cfg)) < 0)


def test_sqdist_matrix_hand_cases():
    pair = orthonormal_pair(4)
    d2 = sqdist_matrix(pair)
    assert np.allclose(np.diag(d2), 0.0, atol=1e-12)
    off = d2[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 2.0, atol=1e-12)

    e = np.eye(3)
    anti = GramPair(e, -e)
    assert np.allclose(np.diag(sqdist_matrix(anti)), 4.0, atol=1e-12)


def test_sqdist_matrix_matches_direct_distances():
    for trial in range(10):
        rng = np.random.default_rng(trial)
        pair = random_pair(rng)
        assert np.max(np.abs(sqdist_matrix(pair) - pairwise_sqdist_loop(pair.desc1, pair.desc2))) < 1e-9


def test_gram_pair_finds_each_rows_nearest_neighbour_once():
    """`nearest` and `mins` are, bit for bit, the argmin and the min of each
    row of `sqdist_matrix`; among duplicate rows the first index wins."""
    rng = np.random.default_rng(19)
    first = unit_rows(rng.normal(size=(6, 16)))
    tied = GramPair(first, first[[1, 1, 0, 0, 3, 3]])
    for pair in (random_pair(rng, 6), tied):
        d2 = sqdist_matrix(pair)
        assert np.array_equal(pair.nearest, np.argmin(d2, axis=1))
        assert np.array_equal(pair.mins, np.min(d2, axis=1))
    assert list(tied.nearest[[0, 1, 3]]) == [2, 0, 4]


def test_hard_match_score_cases():
    pair = random_pair(RNG, n=6)
    same = GramPair(pair.desc1, pair.desc1)
    # self-distances are 0 up to normalization roundoff (|d2| < 1e-12)
    assert hard_match_score(same, 1e-12) == 1.0
    assert hard_match_score(same, 3.9) == 1.0

    # bags spanning disjoint coordinate subspaces: every cross distance is 2
    eye10 = np.eye(10)
    disjoint = GramPair(eye10[:5], eye10[5:])
    assert hard_match_score(disjoint, 0.8) == 0.0
    assert hard_match_score(orthonormal_pair(5), 0.8) == 1.0  # rows match themselves


def test_hard_match_score_two_thirds_hand_case():
    # three unit 2-vectors at controlled angles: rows 0 and 1 land under the
    # threshold, row 2 stays far away
    def v(theta):
        return np.array([np.cos(theta), np.sin(theta)])

    desc1 = np.stack([v(0.0), v(1.5), v(3.0)])
    desc2 = np.stack([v(0.1), v(1.45), v(0.5)])
    pair = GramPair(desc1, desc2)
    d2 = sqdist_matrix(pair)
    tau = 0.05
    assert ((d2.min(axis=1) <= tau) == [True, True, False]).all()
    assert hard_match_score(pair, tau) == pytest.approx(2.0 / 3.0)


def test_soft_match_score_formula_cases():
    cfg = MatchConfig(tau=0.8, beta=20.0)
    same = GramPair(np.eye(4), np.eye(4))
    assert soft_match_score(same, cfg) == pytest.approx(1.0 / (1.0 + np.exp(-16.0)), rel=1e-12)

    # every row-min exactly at the threshold -> sigmoid center
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    desc1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    rot = np.array([[c, s], [-s, c]])
    pair = GramPair(desc1, desc1 @ rot.T)
    d2 = sqdist_matrix(pair)
    tau = float(d2.min(axis=1)[0])
    assert soft_match_score(pair, MatchConfig(tau=tau, beta=20.0)) == pytest.approx(0.5, abs=1e-12)


def test_soft_match_score_matches_loop_reference():
    cfg = MatchConfig(tau=0.7, beta=15.0)
    for trial in range(10):
        pair = random_pair(np.random.default_rng(trial), n=7, d=12)
        assert soft_match_score(pair, cfg) == pytest.approx(
            soft_score_reference(pair.desc1, pair.desc2, cfg), abs=1e-12
        )


def test_soft_approaches_hard_at_large_beta():
    for trial in range(20):
        rng = np.random.default_rng(200 + trial)
        pair = random_pair(rng, n=10, d=8)
        tau = 0.9
        margins = np.abs(sqdist_matrix(pair).min(axis=1) - tau)
        if margins.min() < 0.01:
            continue
        hard = hard_match_score(pair, tau)
        soft = soft_match_score(pair, MatchConfig(tau=tau, beta=1000.0))
        assert abs(soft - hard) < 1e-3


def test_relaxation_error_bound_across_betas():
    for beta in (20.0, 100.0, 1000.0):
        for trial in range(30):
            rng = np.random.default_rng(trial)
            pair = random_pair(rng, n=8, d=8)
            tau = 0.9
            margin = float(np.min(np.abs(sqdist_matrix(pair).min(axis=1) - tau)))
            if margin <= 0:
                continue
            gap = abs(soft_match_score(pair, MatchConfig(tau=tau, beta=beta)) - hard_match_score(pair, tau))
            assert gap <= 1.0 / (1.0 + np.exp(beta * margin)) + 1e-15


def test_scores_within_bounds():
    cfg = MatchConfig(tau=0.5, beta=30.0)
    for trial in range(20):
        pair = random_pair(np.random.default_rng(trial))
        assert 0.0 <= hard_match_score(pair, 0.5) <= 1.0
        assert 0.0 < soft_match_score(pair, cfg) < 1.0


def test_match_scores_are_asymmetric_in_general():
    # one target row close to two query rows: forward and reverse counts differ
    a = unit_rows(np.array([[1.0, 0.0, 0.0], [0.99, 0.14, 0.0], [0.0, 1.0, 0.0]]))
    b = unit_rows(np.array([[1.0, 0.05, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    tau = 0.1
    fwd = hard_match_score(GramPair(a, b), tau)
    rev = hard_match_score(GramPair(b, a), tau)
    assert fwd != rev


def test_soft_match_backward_zero_upstream_and_saturation():
    pair = random_pair(RNG)
    cfg = MatchConfig(tau=0.8, beta=20.0)
    d1, d2 = soft_match_backward(pair, cfg, upstream=0.0)
    assert np.array_equal(d1, np.zeros_like(d1))
    assert np.array_equal(d2, np.zeros_like(d2))

    # deep saturation: every row-min far from tau at huge beta
    sat = MatchConfig(tau=2.0, beta=4000.0)
    mins = sqdist_matrix(pair).min(axis=1)
    assert np.all(np.abs(mins - sat.tau) * sat.beta > 50)
    g1, g2 = soft_match_backward(pair, sat, upstream=1.0)
    assert np.max(np.abs(g1)) < 1e-15
    assert np.max(np.abs(g2)) < 1e-15


def test_soft_match_backward_second_gradient_lives_on_nearest_rows_only():
    """A second-bag row that is no first-bag row's nearest neighbour gets an
    exact 0.0 gradient, so its patch adds nothing to a training backward;
    every row that is one gets a non-zero gradient while the sigmoids are
    unsaturated. A duplicate row is never the nearest: argmin takes the
    first of equal distances."""
    rng = np.random.default_rng(21)
    base = unit_rows(rng.normal(size=(4, 16)))
    desc2 = base[[0, 0, 1, 2, 2, 3, 3, 3]]
    desc1 = unit_rows(base[[0, 1, 1, 2, 3, 0, 2, 1]] + 0.3 * rng.normal(size=(8, 16)))
    pair = GramPair(desc1, desc2)
    cfg = MatchConfig(tau=1.0, beta=1.0)
    sig = soft_indicator(pair.mins, cfg)
    assert np.all((sig > 0.01) & (sig < 0.99))
    _, d2 = soft_match_backward(pair, cfg)
    nearest = set(pair.nearest.tolist())
    assert nearest == {0, 2, 3, 5}
    for row in range(8):
        if row in nearest:
            assert np.any(d2[row] != 0.0), row
        else:
            assert np.all(d2[row] == 0.0), row


def gram_soft_score(a, b, cfg):
    """The score as a function of free matrix entries via the Gram identity
    (the function the analytic backward differentiates)."""
    mins = (2.0 - 2.0 * a @ b.T).min(axis=1)
    return float(np.mean(1.0 / (1.0 + np.exp(cfg.beta * (mins - cfg.tau)))))


def test_soft_match_backward_matches_finite_differences():
    cfg = MatchConfig(tau=0.8, beta=20.0)
    h = 1e-6
    checked = 0
    for trial in range(120):
        rng = np.random.default_rng(300 + trial)
        e1 = unit_rows(rng.normal(size=(8, 16)))
        e2 = unit_rows(rng.normal(size=(8, 16)))
        d2m = 2.0 - 2.0 * e1 @ e2.T
        part = np.partition(d2m, 1, axis=1)
        if np.min(part[:, 1] - part[:, 0]) < 1e-3:
            continue  # argmin could flip under the probe step
        an1, an2 = soft_match_backward(GramPair(e1, e2), cfg, upstream=1.0)
        for mat, analytic, is_first in ((e1, an1, True), (e2, an2, False)):
            numeric = np.zeros_like(mat)
            for i in range(mat.shape[0]):
                for j in range(mat.shape[1]):
                    for sign in (1.0, -1.0):
                        probe = mat.copy()
                        probe[i, j] += sign * h
                        a, b = (probe, e2) if is_first else (e1, probe)
                        numeric[i, j] += sign * gram_soft_score(a, b, cfg)
                    numeric[i, j] /= 2.0 * h
            rel = np.abs(analytic - numeric) / np.maximum(
                1.0, np.maximum(np.abs(analytic), np.abs(numeric))
            )
            assert np.max(rel) < 1e-4
        checked += 1
        if checked >= 3:
            break
    assert checked == 3


def test_hungarian_identity_and_empty():
    pair = orthonormal_pair(6)
    assert hungarian_match_count(pair, 0.5) == 6
    # empty eligibility graph: disjoint coordinate subspaces
    eye8 = np.eye(8)
    far = GramPair(eye8[:4], eye8[4:])
    assert hungarian_match_count(far, 0.5) == 0


def test_hungarian_vs_summax_double_counting():
    # two query rows near one target row, second target row far from all
    a = unit_rows(np.array([[1.0, 0.0], [0.999, 0.0447]]))
    b = unit_rows(np.array([[0.9995, 0.0316], [-1.0, 0.0]]))
    pair = GramPair(a, b)
    tau = 0.01
    count_rows = int(round(hard_match_score(pair, tau) * pair.n))
    assert count_rows == 2
    assert hungarian_match_count(pair, tau) == 1


def test_hungarian_matches_bruteforce():
    for trial in range(60):
        rng = np.random.default_rng(500 + trial)
        pair = random_pair(rng, n=6, d=4)
        tau = float(rng.uniform(0.3, 2.5))
        eligible = sqdist_matrix(pair) <= tau
        assert hungarian_match_count(pair, tau) == max_matching_bruteforce(eligible)


def test_summax_never_below_hungarian():
    for trial in range(100):
        rng = np.random.default_rng(700 + trial)
        n = int(rng.integers(2, 16))
        pair = random_pair(rng, n=n, d=6)
        tau = float(rng.uniform(0.1, 3.0))
        assert round(n * hard_match_score(pair, tau)) >= hungarian_match_count(pair, tau)
