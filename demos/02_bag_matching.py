"""The bag matching score and its smooth relaxation.

Shows how the score behaves for matching and non-matching bags, how the
sigmoid sharpness trades smoothness against fidelity to the hard count, and
how the row-minimum count compares with exact one-to-one matching.
"""

import numpy as np

from bagdesc.matching import (
    GramPair,
    MatchConfig,
    hard_match_score,
    hungarian_match_count,
    soft_match_backward,
    soft_match_score,
)


def unit_rows(a):
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def perturbed(bag, rng, scale):
    return unit_rows(bag + scale * rng.normal(size=bag.shape))


def main():
    rng = np.random.default_rng(0)
    n, dim = 16, 64
    bag = unit_rows(rng.normal(size=(n, dim)))
    matching = perturbed(bag, rng, 0.25)     # noisy re-observation
    unrelated = unit_rows(rng.normal(size=(n, dim)))

    pair_match = GramPair(bag, matching)
    pair_other = GramPair(bag, unrelated)
    print("row-minimum squared distances:")
    print(f"  matching bag : {pair_match.mins.mean():.3f} (mean)")
    print(f"  unrelated bag: {pair_other.mins.mean():.3f} (mean)")

    tau = 0.5
    print(f"\nhard scores at tau={tau}: "
          f"matching {hard_match_score(pair_match, tau):.3f}, "
          f"unrelated {hard_match_score(pair_other, tau):.3f}")

    print("\nsharpness sweep (soft score vs hard score, matching pair):")
    hard = hard_match_score(pair_match, tau)
    for beta in (5, 20, 100, 1000):
        soft = soft_match_score(pair_match, MatchConfig(tau=tau, beta=beta))
        print(f"  beta {beta:5d}: soft {soft:.6f}   |soft - hard| = {abs(soft - hard):.2e}")

    print("\ngradient magnitudes through the relaxed score:")
    g1, g2 = soft_match_backward(pair_match, MatchConfig(tau=tau, beta=20.0))
    print(f"  |d score / d first bag|  max {np.abs(g1).max():.4f}")
    print(f"  |d score / d second bag| max {np.abs(g2).max():.4f}")

    print("\nrow-minimum count vs exact one-to-one matching:")
    # two query rows share one nearest target: the row count double-counts
    a = unit_rows(np.array([[1.0, 0.0], [0.999, 0.0447]]))
    b = unit_rows(np.array([[0.9995, 0.0316], [-1.0, 0.0]]))
    crowded = GramPair(a, b)
    rows = int(round(2 * hard_match_score(crowded, 0.01)))
    print(f"  rows with a close target: {rows}")
    print(f"  exact matching size     : {hungarian_match_count(crowded, 0.01)}")


if __name__ == "__main__":
    main()
