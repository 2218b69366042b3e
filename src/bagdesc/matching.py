"""Bag-to-bag matching scores over unit-norm descriptor sets.

Two same-size bags are compared through the Gram matrix of their descriptor
rows: for unit vectors the pairwise squared distance is 2 - 2 * gram, so the
whole score is a function of one matrix product. A bag's score against
another is the fraction of its rows whose nearest row in the other bag falls
within a squared-distance threshold; the hard indicator can be relaxed to a
sigmoid so the score becomes differentiable. The relaxed score's gradient
with respect to both descriptor matrices has a closed form built from a
one-nonzero-per-row sparse matrix; an exact maximum-cardinality matcher is
provided as an independent cross-check (the row-wise minimum can match many
rows to one target, an exact one-to-one matching cannot).

Scores are intentionally asymmetric in their arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MatchConfig",
    "GramPair",
    "soft_indicator",
    "sqdist_matrix",
    "hard_match_score",
    "soft_match_score",
    "soft_match_backward",
    "hungarian_match_count",
]

# Unit-norm tolerance for descriptor rows entering a GramPair.
ROW_NORM_TOL = 1e-6
# Sigmoid exponents are clamped here to avoid overflow at large sharpness.
EXP_CLAMP = 500.0


@dataclass(frozen=True)
class MatchConfig:
    """Threshold and relaxation constants for bag matching.

    tau thresholds the squared descriptor distance (unit vectors keep it in
    [0,4]); beta is the sigmoid sharpness.
    """

    tau: float = 0.8
    beta: float = 20.0

    def __post_init__(self):
        if not 0.0 < self.tau < 4.0:
            raise ValueError(f"tau must lie in (0, 4), got {self.tau}")
        if not 0.0 < self.beta < np.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")


class GramPair:
    """Two equal-size unit-row descriptor matrices, their Gram product, and each
    first-bag row's `nearest` second-bag row (np.argmin: the first on ties, which
    fixes the subgradient) with its squared distance `mins`."""

    __slots__ = ("desc1", "desc2", "gram", "nearest", "mins")

    def __init__(self, desc1: np.ndarray, desc2: np.ndarray):
        d1 = np.asarray(desc1, dtype=np.float64)
        d2 = np.asarray(desc2, dtype=np.float64)
        if d1.ndim != 2 or d2.ndim != 2 or d1.shape != d2.shape:
            raise ValueError(f"descriptor matrices must share shape [n,d], got {d1.shape} and {d2.shape}")
        if d1.shape[0] < 1:
            raise ValueError("bags must contain at least one descriptor")
        for label, mat in (("first", d1), ("second", d2)):
            norms = np.linalg.norm(mat, axis=1)
            if np.any(np.abs(norms - 1.0) > ROW_NORM_TOL):
                worst = float(np.max(np.abs(norms - 1.0)))
                raise ValueError(f"{label} bag has non-unit rows (max deviation {worst:.2e})")
        self.desc1 = d1
        self.desc2 = d2
        self.gram = d1 @ d2.T
        d2sq = sqdist_matrix(self)
        self.nearest = np.argmin(d2sq, axis=1)
        self.mins = d2sq[np.arange(d1.shape[0]), self.nearest]

    @property
    def n(self) -> int:
        return self.desc1.shape[0]


def soft_indicator(x, cfg: MatchConfig):
    """Smooth stand-in for [x <= tau]: 1 / (1 + exp(beta * (x - tau))).

    Monotone decreasing in x, 0.5 at x == tau. Elementwise, in float64.
    """
    z = np.clip(cfg.beta * (np.asarray(x, dtype=np.float64) - cfg.tau), -EXP_CLAMP, EXP_CLAMP)
    return 1.0 / (1.0 + np.exp(z))


def sqdist_matrix(pair: GramPair) -> np.ndarray:
    """Pairwise squared distances between rows: 2 - 2 * gram."""
    return 2.0 - 2.0 * pair.gram


def hard_match_score(pair: GramPair, tau: float) -> float:
    """Fraction of first-bag rows with some second-bag row within tau."""
    return float(np.mean(pair.mins <= tau))


def soft_match_score(pair: GramPair, cfg: MatchConfig) -> float:
    """Relaxed match score: mean sigmoid of each row's exact minimum distance.

    Only the threshold indicator is relaxed; the minimum stays exact, so the
    gradient flows through each row's (first) argmin entry alone.
    """
    return float(np.mean(soft_indicator(pair.mins, cfg)))


def soft_match_backward(
    pair: GramPair, cfg: MatchConfig, upstream: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of upstream * soft_match_score w.r.t. both descriptor matrices.

    The score's gradient w.r.t. the Gram matrix is zero except at each row's
    argmin, where it equals (2 * beta / n) * s * (1 - s) for that row's
    sigmoid value s; the two outputs are that sparse matrix times the
    opposite descriptor matrix (and its transpose times the first).
    """
    sig = soft_indicator(pair.mins, cfg)
    coeff = upstream * (2.0 * cfg.beta / pair.n) * sig * (1.0 - sig)
    d_desc1 = coeff[:, None] * pair.desc2[pair.nearest]
    d_desc2 = np.zeros_like(pair.desc2)
    np.add.at(d_desc2, pair.nearest, coeff[:, None] * pair.desc1)
    return d_desc1, d_desc2


def hungarian_match_count(pair: GramPair, tau: float) -> int:
    """Maximum one-to-one matching size over pairs with squared distance <= tau.

    Exact augmenting-path solver on the thresholded bipartite graph; intended
    as a small-n cross-check (the row-minimum count can only overcount it).
    """
    eligible = sqdist_matrix(pair) <= tau
    n = pair.n
    owner = [-1] * n  # owner[j] = first-bag row currently matched to column j

    def try_assign(i: int, seen: list[bool]) -> bool:
        for j in range(n):
            if eligible[i, j] and not seen[j]:
                seen[j] = True
                if owner[j] == -1 or try_assign(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    count = 0
    for i in range(n):
        if try_assign(i, [False] * n):
            count += 1
    return count
