"""Retrieval ranking, NN/FT/ST scoring, k-means, VLAD encoding."""

import numpy as np
import pytest

import bagdesc.retrieval as retrieval
from bagdesc.data import BagDataset, PatchBag
from bagdesc.matching import GramPair, hard_match_score, sqdist_matrix
from bagdesc.net import init_net
from bagdesc.retrieval import (
    VladCodebook,
    build_match_index,
    default_tau_grid,
    hard_score_matrix,
    kmeans,
    match_retrieve,
    nn_ft_st,
    rank_and_score,
    sweep_tau,
    vlad_encode,
    vlad_retrieve,
    write_score_rows,
)

RNG = np.random.default_rng(31)


def unit_rows(a):
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def test_match_retrieve_duplicate_ranks_first():
    query = unit_rows(RNG.normal(size=(6, 8)))
    others = [unit_rows(RNG.normal(size=(6, 8))) for _ in range(3)]
    descs = np.stack([others[0], query.copy(), others[1], others[2]])
    ranked = match_retrieve(query, descs, tau=0.3)
    assert ranked[0] == (1, 1.0)


def test_match_retrieve_zero_tau_gives_id_order():
    rng = np.random.default_rng(1)
    query = unit_rows(rng.normal(size=(4, 16)))
    descs = np.stack([unit_rows(rng.normal(size=(4, 16))) for _ in range(5)])
    ranked = match_retrieve(query, descs, tau=1e-9)
    assert [row for row, _ in ranked] == [0, 1, 2, 3, 4]
    assert all(score == 0.0 for _, score in ranked)


def test_match_retrieve_hand_built_ordering():
    # orthonormal basis rows: overlap with the query controls the score
    e = np.eye(8)
    query = e[:4]
    descs = np.stack([
        np.vstack([e[0], e[1], e[4], e[5]]),  # 2/4 rows match
        np.vstack([e[0], e[1], e[2], e[5]]),  # 3/4 rows match
        np.vstack([e[4], e[5], e[6], e[7]]),  # nothing matches
    ])
    ranked = match_retrieve(query, descs, tau=0.5)
    assert [row for row, _ in ranked] == [1, 0, 2]
    assert [score for _, score in ranked] == [0.75, 0.5, 0.0]


def test_match_retrieve_excludes_query_and_rejects_empty():
    e = np.eye(4)
    assert match_retrieve(e, e[None], 0.5) == [(0, 1.0)]
    with pytest.raises(ValueError):
        match_retrieve(e, e[None], 0.5, exclude=0)


def duplicated_descs(rng, n, d, views=3, objects=4):
    """[B, n, d] unit-row bags of `objects` classes, with their object ids;
    bags 1 and 5 are exact copies."""
    descs = np.stack([unit_rows(rng.normal(size=(n, d))) for _ in range(views * objects)])
    descs[5] = descs[1]
    return descs, [b % objects for b in range(len(descs))]


def test_hard_score_matrix_matches_pairwise_scores():
    rng = np.random.default_rng(4)
    for n, d in ((5, 3), (12, 64), (32, 64)):
        descs, _ = duplicated_descs(rng, n, d)
        # the last tau sits exactly on a row minimum: `<=` counts that row
        exact = sqdist_matrix(GramPair(descs[0], descs[1]))
        taus = [0.05, 0.5, 1.0, 1.5, 2.0, 3.9, float(np.median(exact.min(axis=1)))]
        scores = hard_score_matrix(descs, taus)
        assert scores.shape == (len(taus), len(descs), len(descs))
        for t, tau in enumerate(taus):
            for q, query in enumerate(descs):
                for r, other in enumerate(descs):
                    assert scores[t, q, r] == hard_match_score(GramPair(query, other), tau)


def test_hard_score_matrix_rejects_non_unit_row():
    descs, _ = duplicated_descs(np.random.default_rng(5), 4, 8)
    with pytest.raises(ValueError, match=r"\[B, n, d\]"):
        hard_score_matrix(descs[0], [0.5])
    descs[2, 3] *= 1.0 + 1e-4
    with pytest.raises(ValueError, match="non-unit"):
        hard_score_matrix(descs, [0.5])


def rankings_seen_by_nn_ft_st(monkeypatch, scores, object_ids):
    seen = []

    def record(rankings, class_sizes):
        seen.append((rankings, dict(class_sizes)))
        return nn_ft_st(rankings, class_sizes)

    monkeypatch.setattr(retrieval, "nn_ft_st", record)
    result = rank_and_score(scores, object_ids)
    monkeypatch.undo()
    assert len(seen) == 1
    assert result == nn_ft_st(*seen[0])
    return seen[0]


def test_rank_and_score_matches_match_retrieve(monkeypatch):
    rng = np.random.default_rng(6)
    for _ in range(4):
        descs, object_ids = duplicated_descs(rng, 4, 3)
        for tau, scores in zip((0.2, 0.8, 2.5), hard_score_matrix(descs, (0.2, 0.8, 2.5))):
            rankings, sizes = rankings_seen_by_nn_ft_st(monkeypatch, scores, object_ids)
            expected = []
            for q, query in enumerate(descs):
                ranked = match_retrieve(query, descs, tau, exclude=q)
                expected.append((object_ids[q], [object_ids[r] for r, _ in ranked]))
            assert rankings == expected
            assert sizes == {0: 3, 1: 3, 2: 3, 3: 3}


def test_rank_and_score_matches_vlad_retrieve(monkeypatch):
    rng = np.random.default_rng(7)
    vlads = unit_rows(rng.normal(size=(10, 6)))
    vlads[7] = vlads[2]
    vlads[4] = vlads[8] = 0.0  # all-zero encodings tie at score 0
    object_ids = [b % 5 for b in range(len(vlads))]
    rankings, _ = rankings_seen_by_nn_ft_st(monkeypatch, vlads @ vlads.T, object_ids)
    for q, (query_obj, retrieved) in enumerate(rankings):
        ranked = vlad_retrieve(vlads[q], vlads, exclude=q)
        assert (query_obj, retrieved) == (object_ids[q], [object_ids[r] for r, _ in ranked])


def test_rank_and_score_ties_by_index_and_leaves_query_out():
    # self-scores are highest and every other score ties, so each query
    # ranks the others by index: queries 0-2 retrieve objects [0,0,1,1]
    # and queries 3-4 retrieve [0,0,0,1]
    nn, ft, st = rank_and_score(np.ones((5, 5)) + np.eye(5), [0, 0, 0, 1, 1])
    assert (nn, ft, st) == (0.6, 0.6, 0.6)
    with pytest.raises(ValueError):
        rank_and_score(np.ones((3, 4)), [0, 0, 1])


def test_nn_ft_st_worked_example():
    # class of C = 4: top-1 correct, 2 of 3 within top C-1, all 3 within top 2(C-1)
    ranking = [(7, [7, 7, 1, 7, 2, 3, 1, 2])]
    nn, ft, st = nn_ft_st(ranking, {7: 4, 1: 3, 2: 3, 3: 2})
    assert nn == 1.0
    assert ft == pytest.approx(2.0 / 3.0)
    assert st == pytest.approx(1.0)


def test_nn_ft_st_perfect_and_adversarial():
    perfect = [(0, [0, 0, 0, 9, 9, 9, 9, 9, 9])]
    nn, ft, st = nn_ft_st(perfect, {0: 4, 9: 9})
    assert (nn, ft, st) == (1.0, 1.0, 1.0)

    adversarial = [(0, [9] * 20 + [0, 0, 0])]
    nn, ft, st = nn_ft_st(adversarial, {0: 4, 9: 9})
    assert (nn, ft, st) == (0.0, 0.0, 0.0)


def test_nn_ft_st_bounds_and_subset_property():
    for trial in range(30):
        rng = np.random.default_rng(trial)
        class_sizes = {0: 4, 1: 4, 2: 4}
        pool = [0] * 3 + [1] * 4 + [2] * 4
        ranking = [(0, list(rng.permutation(pool)))]
        nn, ft, st = nn_ft_st(ranking, class_sizes)
        assert 0.0 <= nn <= 1.0 and 0.0 <= ft <= 1.0 and 0.0 <= st <= 1.0
        # the top-(C-1) set is a subset of the top-2(C-1) set
        assert ft <= st + 1e-12


def test_nn_ft_st_rejects_singleton_class():
    with pytest.raises(ValueError):
        nn_ft_st([(0, [1, 2])], {0: 1, 1: 2, 2: 2})


def test_default_tau_grid():
    grid = default_tau_grid()
    assert grid[0] == pytest.approx(0.05)
    assert grid[-1] == pytest.approx(2.0)
    assert len(grid) == 40
    assert np.allclose(np.diff(grid), 0.05)


def test_sweep_tau_scores_a_hand_built_split():
    # Rows are basis vectors, so a row matches at squared distance 0 (the
    # same vector) or 2 (another one). Below tau = 2 a bag's score is its
    # share of rows that the other bag holds too; from 2 up every score is 1
    # and the rankings fall back to row order.
    e = np.eye(4)
    descs = np.stack([[e[0], e[1]], [e[0], e[1]], [e[2], e[3]], [e[2], e[1]]])
    ids = [0, 0, 1, 1]
    # Below 2, bag 3 ties with every other bag at 0.5 and ranks bag 0 first;
    # the other three queries rank their classmate first. From 2 up, bags 2
    # and 3 rank bags 0 and 1 first.
    best, rows = sweep_tau(descs, ids, [1.5, 3.0, 1.0])
    assert rows == [(1.5, 0.75, 0.75, 0.75), (3.0, 0.5, 0.5, 0.5), (1.0, 0.75, 0.75, 0.75)]
    assert best == 1.0  # the tie at the top goes to the smallest tau
    assert sweep_tau(descs, ids, [3.0]) == (3.0, [(3.0, 0.5, 0.5, 0.5)])
    best, rows = sweep_tau(descs, ids)
    assert [row[0] for row in rows] == default_tau_grid().tolist()
    assert best == 0.05
    with pytest.raises(ValueError, match="empty"):
        sweep_tau(descs, ids, [])
    with pytest.raises(ValueError, match=r"\(0, 4\)"):
        sweep_tau(descs, ids, [1.0, 4.0])
    with pytest.raises(ValueError, match="object ids"):
        sweep_tau(descs, ids[:3], [1.0])


def sweep_fixture():
    # two objects, two identical views each, engineered so cross-object
    # descriptor distances are large
    rng = np.random.default_rng(12)
    a = rng.uniform(0.0, 1.0, (4, 3, 32, 32))
    b = rng.uniform(0.0, 1.0, (4, 3, 32, 32))
    bags = [
        PatchBag(0, 0, a),
        PatchBag(0, 1, a),
        PatchBag(1, 0, b),
        PatchBag(1, 1, b),
    ]
    return BagDataset(bags, 4)


def test_sweep_tau_single_value_and_tie_rule():
    ds = sweep_fixture()
    net = init_net(0)
    descs = build_match_index(net, ds)
    ids = [bag.object_id for bag in ds.bags]
    assert descs.shape == (4, 4, 64)
    # cross-object minimum squared distance bounds the usable range
    cross = sqdist_matrix(GramPair(descs[0], descs[2])).min()
    lo = float(cross) / 4.0
    best, rows = sweep_tau(descs, ids, [lo])
    assert best == pytest.approx(lo)
    assert len(rows) == 1
    # duplicates rank first at every tau below the cross distance, so the
    # smallest grid value wins the tie
    best, rows = sweep_tau(descs, ids, [lo, cross * 0.9])
    assert best == pytest.approx(lo)
    assert all(r[1] == 1.0 for r in rows)
    # the tie goes to the smallest tau wherever it sits in the grid
    best, rows = sweep_tau(descs, ids, [cross * 0.9, lo])
    assert best == pytest.approx(lo)
    best, rows = sweep_tau(descs, ids, [3.9, 3.8])
    assert rows[0][1:] == rows[1][1:]
    assert best == 3.8
    with pytest.raises(ValueError):
        sweep_tau(descs, ids, [])
    with pytest.raises(ValueError):
        sweep_tau(descs, ids, [5.0])


def test_describing_on_two_threads_matches_one():
    rng = np.random.default_rng(13)
    bags = [PatchBag(k // 2, k % 2, rng.uniform(0, 1, (5, 3, 32, 32))) for k in range(6)]
    ds = BagDataset(bags, 5)
    net = init_net(2)
    one = build_match_index(net, ds, threads=1)
    assert np.array_equal(build_match_index(net, ds, threads=2), one)


def test_kmeans_k_equals_m():
    points = RNG.normal(size=(6, 3))
    codebook = kmeans(points, 6, seed=0)
    assert codebook.centroids.shape[0] == 6
    assigned = {tuple(np.round(c, 12)) for c in codebook.centroids}
    assert assigned == {tuple(np.round(p, 12)) for p in points}
    d2 = ((points[:, None] - codebook.centroids[None]) ** 2).sum(-1)
    assert d2.min(axis=1).max() < 1e-24


def test_kmeans_two_blobs():
    hits = 0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        blob_a = rng.normal(loc=0.0, scale=0.05, size=(60, 4))
        blob_b = rng.normal(loc=1.0, scale=0.05, size=(60, 4))
        codebook = kmeans(np.vstack([blob_a, blob_b]), 2, seed=seed)
        means = sorted(codebook.centroids.tolist(), key=lambda c: c[0])
        if (
            np.linalg.norm(np.array(means[0]) - blob_a.mean(axis=0)) < 0.05
            and np.linalg.norm(np.array(means[1]) - blob_b.mean(axis=0)) < 0.05
        ):
            hits += 1
    assert hits >= 4


def test_kmeans_distortion_monotone():
    points = RNG.normal(size=(200, 8))
    codebook = kmeans(points, 10, seed=3)
    history = codebook.distortion_history
    assert history is not None and len(history) >= 2
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))


def test_kmeans_rejects_m_below_k():
    with pytest.raises(ValueError, match="need at least k=5 points, got 3"):
        kmeans(RNG.normal(size=(3, 4)), 5, seed=0)


def test_kmeans_rejects_k_below_one():
    for k in (0, -1):
        with pytest.raises(ValueError, match=f"k must be at least 1, got {k}"):
            kmeans(RNG.normal(size=(5, 4)), k, seed=0)


def test_kmeans_deterministic():
    points = RNG.normal(size=(50, 6))
    a = kmeans(points, 4, seed=9)
    b = kmeans(points, 4, seed=9)
    assert np.array_equal(a.centroids, b.centroids)


def test_vlad_codebook_validation():
    with pytest.raises(ValueError):
        VladCodebook(np.zeros((2, 4)))  # identical centroids
    with pytest.raises(ValueError):
        VladCodebook(np.array([[np.inf, 0.0]]))


def test_vlad_encode_zero_and_single_descriptor():
    centroids = np.array([[1.0, 0.0], [0.0, 1.0]])
    codebook = VladCodebook(centroids)
    # descriptors exactly at a centroid produce the zero vector
    zero = vlad_encode(np.array([[1.0, 0.0], [1.0, 0.0]]), codebook)
    assert np.array_equal(zero, np.zeros(4))

    d = np.array([[0.8, 0.1]])
    encoded = vlad_encode(d, codebook)
    residual = d[0] - centroids[0]
    expected = np.concatenate([residual, np.zeros(2)])
    expected /= np.linalg.norm(expected)
    assert np.allclose(encoded, expected, atol=1e-15)
    assert np.linalg.norm(encoded) == pytest.approx(1.0, abs=1e-12)


def test_vlad_dimension_law():
    for k in (1, 2, 4, 8):
        pool = RNG.normal(size=(40, 64))
        codebook = kmeans(pool, k, seed=k)
        encoded = vlad_encode(RNG.normal(size=(10, 64)), codebook)
        assert encoded.shape == (64 * k,)


def test_vlad_assignment_tie_goes_to_lowest_index():
    codebook = VladCodebook(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    encoded = vlad_encode(np.array([[0.0, 0.5]]), codebook)  # equidistant
    assert np.any(encoded[:2] != 0.0)
    assert np.all(encoded[2:] == 0.0)


def test_vlad_retrieve_orderings():
    q = np.array([1.0, 0.0, 0.0])
    vlads = np.array([[0.0, 1.0, 0.0], q, [0.6, 0.8, 0.0]])
    ranked = vlad_retrieve(q, vlads)
    assert ranked[0] == (1, pytest.approx(1.0))
    assert [r for r, _ in ranked] == [1, 2, 0]
    assert ranked[2][1] == pytest.approx(0.0)

    with pytest.raises(ValueError):
        vlad_retrieve(np.zeros(4), vlads)


def test_vlad_retrieve_tie_break_by_id():
    q = np.array([1.0, 0.0])
    vlads = np.array([[0.0, 1.0], q, q])
    ranked = vlad_retrieve(q, vlads)
    assert [r for r, _ in ranked] == [1, 2, 0]


def test_write_score_rows(tmp_path):
    path = tmp_path / "rows.csv"
    write_score_rows(path, ["tau", "NN"], [(0.5, 1.0), (0.25, 0.75)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "tau,NN"
    assert lines[1] == "0.5,1.0"
