"""Retrieval evaluation: keypoint-match ranking and VLAD aggregation.

A split's descriptors are one [B, n, d] array; a bag's row is its id, and
rankings break ties by the lower row. Matching-based retrieval ranks bags by
the hard bag match score at a threshold tuned on a separate split (the
relaxation exists only for learning). VLAD-based retrieval sums
descriptor-minus-centroid residuals per k-means centroid, concatenates the
blocks, L2-normalizes the result, and ranks by inner product. Quality is
summarized by NN / FT / ST: the fraction of same-class items within the top
1, C-1, and 2(C-1) results for a class with C members, averaged over all
queries. Queries never rank themselves.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import BagDataset
from .files import atomic_write
from .matching import ROW_NORM_TOL, GramPair, hard_match_score
from .net import DescriptorNet, describe_bags
# Unused here, but perfbench/tracer.py wraps this name in this module.
from .net import forward_bag  # noqa: F401

__all__ = [
    "VladCodebook",
    "build_match_index",
    "hard_score_matrix",
    "match_retrieve",
    "rank_and_score",
    "nn_ft_st",
    "sweep_tau",
    "default_tau_grid",
    "kmeans",
    "vlad_encode",
    "vlad_retrieve",
    "write_score_rows",
]


@dataclass
class VladCodebook:
    """k-means centroids used to aggregate descriptors into one vector."""

    centroids: np.ndarray
    distortion_history: list[float] | None = None

    def __post_init__(self):
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        if self.centroids.ndim != 2 or self.centroids.shape[0] < 1:
            raise ValueError(f"centroids must be [k,d] with k >= 1, got {self.centroids.shape}")
        if not np.all(np.isfinite(self.centroids)):
            raise ValueError("centroids contain non-finite values")
        k = self.centroids.shape[0]
        for a in range(k):
            for b in range(a + 1, k):
                if np.array_equal(self.centroids[a], self.centroids[b]):
                    raise ValueError(f"centroids {a} and {b} are identical")


def build_match_index(net: DescriptorNet, dataset: BagDataset, threads: int = 1) -> np.ndarray:
    """[B, n, d] descriptors of every bag, in dataset order, described on
    `threads` workers."""
    return np.stack(describe_bags(net, [bag.pixels for bag in dataset.bags], threads))


def _ranked(scores, exclude: int | None = None) -> list[tuple[int, float]]:
    """(row, score) pairs by descending score, ties by ascending row, without row `exclude`."""
    ranked = sorted(
        ((r, s) for r, s in enumerate(scores) if r != exclude), key=lambda item: (-item[1], item[0])
    )
    if not ranked:
        raise ValueError("no rows to rank")
    return ranked


def match_retrieve(
    query_desc: np.ndarray,
    descs: np.ndarray,
    tau: float,
    exclude: int | None = None,
) -> list[tuple[int, float]]:
    """Rows of `descs` by descending hard match score against the query."""
    return _ranked([hard_match_score(GramPair(query_desc, d), tau) for d in descs], exclude)


def hard_score_matrix(descs: np.ndarray, taus) -> np.ndarray:
    """[T, B, B]: entry [t, q, r] is hard_match_score(GramPair(descs[q], descs[r]), taus[t]),
    bit for bit, from one stacked product per query and one unit-norm check."""
    if descs.ndim != 3:
        raise ValueError(f"descriptors must be [B, n, d], got {descs.shape}")
    deviation = np.abs(np.linalg.norm(descs, axis=2) - 1.0)
    if np.any(deviation > ROW_NORM_TOL):
        raise ValueError(f"descriptors have non-unit rows (max deviation {deviation.max():.2e})")
    mins = np.stack([(2.0 - 2.0 * (d @ descs.transpose(0, 2, 1))).min(axis=2) for d in descs])
    return np.mean(mins <= np.reshape(taus, (-1, 1, 1, 1)), axis=3)


def rank_and_score(scores: np.ndarray, object_ids) -> tuple[float, float, float]:
    """NN / FT / ST when each row q of the [B, B] scores ranks every other
    row (ties by ascending row); class sizes are counted from object_ids."""
    ids = list(object_ids)
    if np.shape(scores) != (len(ids), len(ids)):
        raise ValueError(f"scores {np.shape(scores)} do not match {len(ids)} object ids")
    rankings = [
        (ids[q], [ids[r] for r, _ in _ranked(row, q)])
        for q, row in enumerate(np.asarray(scores, dtype=np.float64).tolist())
    ]
    return nn_ft_st(rankings, Counter(ids))


def nn_ft_st(
    rankings: list[tuple[int, list[int]]],
    class_sizes: dict[int, int],
) -> tuple[float, float, float]:
    """Average retrieval scores over queries.

    `rankings` holds (query_object_id, retrieved object ids in rank order);
    `class_sizes` maps object id to its total member count C (including the
    query). Per query: NN is 1 when the top result shares the class, FT and
    ST count same-class hits in the top C-1 and top 2(C-1), both divided by
    C-1. Classes with a single member cannot be scored.
    """
    if not rankings:
        raise ValueError("need at least one query ranking")
    nn_total = ft_total = st_total = 0.0
    for query_obj, retrieved in rankings:
        c = class_sizes.get(query_obj)
        if c is None or c < 2:
            raise ValueError(f"class {query_obj} has fewer than 2 members")
        relevant = c - 1
        nn_total += 1.0 if retrieved and retrieved[0] == query_obj else 0.0
        ft_total += sum(1 for o in retrieved[:relevant] if o == query_obj) / relevant
        st_total += sum(1 for o in retrieved[: 2 * relevant] if o == query_obj) / relevant
    q = len(rankings)
    return nn_total / q, ft_total / q, st_total / q


def default_tau_grid() -> np.ndarray:
    """0.05 to 2.00 in steps of 0.05."""
    return np.round(np.arange(1, 41) * 0.05, 2)


def sweep_tau(
    descs: np.ndarray,
    object_ids,
    tau_grid=None,
) -> tuple[float, list[tuple[float, float, float, float]]]:
    """Score the [B, n, d] descriptors of a split, whose bags belong to
    `object_ids`, at every threshold on the grid; best by NN, then FT, then
    smallest tau. Returns (best_tau, [(tau, NN, FT, ST), ...])."""
    grid = default_tau_grid() if tau_grid is None else np.asarray(tau_grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("tau grid must not be empty")
    if np.any(grid <= 0.0) or np.any(grid >= 4.0):
        raise ValueError("tau grid values must lie in (0, 4)")
    rows = [
        (float(tau), *rank_and_score(scores, object_ids))
        for tau, scores in zip(grid, hard_score_matrix(descs, grid))
    ]
    return max(rows, key=lambda row: (row[1], row[2], -row[0]))[0], rows


def _nearest_centroid(points: np.ndarray, centroids: np.ndarray):
    """(index of each point's nearest centroid, lowest on ties; [m, k] squared distances)."""
    d2 = (
        np.sum(points * points, axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + np.sum(centroids * centroids, axis=1)[None]
    )
    return np.argmin(d2, axis=1), d2


def kmeans(
    descriptors: np.ndarray,
    k: int,
    seed: int,
    max_iters: int = 100,
) -> VladCodebook:
    """Cluster rows of `descriptors` with seeded k-means++ and Lloyd sweeps.

    Iterates to an assignment fixpoint (or max_iters). An empty cluster is
    re-seeded to the point currently farthest from its assigned centroid.
    Deterministic given the seed.
    """
    points = np.asarray(descriptors, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"descriptors must be [m,d], got {points.shape}")
    m = points.shape[0]
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if m < k:
        raise ValueError(f"need at least k={k} points, got {m}")
    rng = np.random.Generator(np.random.PCG64(seed))

    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[int(rng.integers(m))]
    closest = np.sum((points - centroids[0]) ** 2, axis=1)
    for c in range(1, k):
        total = closest.sum()
        if total > 0:
            probs = closest / total
            choice = int(rng.choice(m, p=probs))
        else:
            choice = int(rng.integers(m))
        centroids[c] = points[choice]
        closest = np.minimum(closest, np.sum((points - centroids[c]) ** 2, axis=1))

    history: list[float] = []
    previous = None
    for _ in range(max_iters):
        assign, d2 = _nearest_centroid(points, centroids)
        own_dist = d2[np.arange(m), assign].copy()
        for c in range(k):
            if not np.any(assign == c):
                far = int(np.argmax(own_dist))
                centroids[c] = points[far]
                assign[far] = c
                own_dist[far] = -1.0
        if previous is not None and np.array_equal(assign, previous):
            break
        for c in range(k):
            centroids[c] = points[assign == c].mean(axis=0)
        history.append(float(np.mean(np.sum((points - centroids[assign]) ** 2, axis=1))))
        previous = assign
    return VladCodebook(centroids, history)


def vlad_encode(descriptors: np.ndarray, codebook: VladCodebook) -> np.ndarray:
    """Concatenated per-centroid residual sums, globally L2-normalized.

    Each descriptor contributes (descriptor - centroid) to its nearest
    centroid's block (ties to the lowest index). The output has length
    k * descriptor_dim; an all-zero residual encodes as the zero vector.
    """
    points = np.asarray(descriptors, dtype=np.float64)
    cents = codebook.centroids
    if points.ndim != 2 or points.shape[1] != cents.shape[1]:
        raise ValueError(
            f"descriptors {points.shape} incompatible with centroids {cents.shape}"
        )
    assign, _ = _nearest_centroid(points, cents)
    blocks = np.zeros_like(cents)
    np.add.at(blocks, assign, points - cents[assign])
    flat = blocks.reshape(-1)
    norm = np.linalg.norm(flat)
    return flat / norm if norm > 0 else flat


def vlad_retrieve(
    query_vlad: np.ndarray,
    vlads: np.ndarray,
    exclude: int | None = None,
) -> list[tuple[int, float]]:
    """Rows of the [B, D] `vlads` by descending inner product with the query."""
    query = np.asarray(query_vlad, dtype=np.float64)
    if vlads.ndim != 2 or vlads.shape[1:] != query.shape:
        raise ValueError(f"VLAD dimension mismatch: query {query.shape}, database {vlads.shape}")
    return _ranked([float(v @ query) for v in vlads], exclude)


def write_score_rows(path, header: list[str], rows) -> None:
    """Plain-text CSV with repr-formatted floats (byte-stable), which
    appears only once complete (`files.atomic_write`)."""
    with atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
