"""End-to-end: generate data, train briefly, compare against random init.

A deliberately small run (a few minutes on one core). One 19-object
corpus is cut into 10 train, 3 val and 6 test objects. `calibrate_match`
places the matching threshold at the boundary between positive and
negative distances of `init_net(0)`, a fresh network of the same
architecture (not the one `train` initializes from its own seed), so the
sigmoid starts in its active zone; watch the validation loss fall and the
matching-based retrieval gap open up. The VLAD rows show no such gap: a k = 8 codebook fit on the 3-object
val split is too small for VLAD, and a full run can rank the trained net
below the random one there. The matching rows carry the gap.
"""

import numpy as np

from bagdesc.data import build_dataset, cut_splits
from bagdesc.net import init_net
from bagdesc.retrieval import build_match_index, kmeans, rank_and_score, sweep_tau, vlad_encode
from bagdesc.train import TrainConfig, calibrate_match, train


def vlad_nn(net, tuning, target, k=8):
    pool = build_match_index(net, tuning).reshape(-1, net.descriptor_dim)
    codebook = kmeans(pool, k, seed=5)
    vlads = np.stack([vlad_encode(desc, codebook) for desc in build_match_index(net, target)])
    return rank_and_score(vlads @ vlads.T, [b.object_id for b in target.bags])[0]


def main():
    print("generating train/val/test splits (disjoint objects) ...")
    corpus = build_dataset(19, 4, 12, seed=42)
    trainset, valset, testset = cut_splits(corpus, {"train": 10, "val": 3, "test": 6}).values()

    match = calibrate_match(trainset, init_net(0), np.random.default_rng(1))
    print(f"matching threshold tau={match.tau}, sharpness beta={match.beta}")

    cfg = TrainConfig(
        match=match,
        batch_size=8,
        iters_per_round=12,
        triplets_per_round=150,
        rounds=6,
        patience=2,
        val_triplets=48,
        seed=0,
    )
    print("\ntraining (6 rounds x 12 iterations, batch 8) ...")
    net, curves = train(trainset, valset, cfg)
    for r in curves:
        print(f"  round {r.round_index}: train {r.train_loss:.4f}  val {r.val_loss:.4f}  lr {r.lr:.6f}")

    grid = [0.02, 0.05, 0.1, 0.2, 0.3, 0.5]
    random_net = init_net(999)
    best_t, rows_t = sweep_tau(testset, net, grid)
    best_r, rows_r = sweep_tau(testset, random_net, grid)
    nn_t = max(r[1] for r in rows_t)
    nn_r = max(r[1] for r in rows_r)
    print(f"\nmatching-based retrieval on held-out objects (threshold tuned per model):")
    print(f"  trained: NN {nn_t:.2f} (best tau {best_t})")
    print(f"  random : NN {nn_r:.2f} (best tau {best_r})")

    print("\nVLAD retrieval at k=8 (codebook fit on the validation split):")
    print(f"  trained: NN {vlad_nn(net, valset, testset):.2f}")
    print(f"  random : NN {vlad_nn(random_net, valset, testset):.2f}")


if __name__ == "__main__":
    main()
