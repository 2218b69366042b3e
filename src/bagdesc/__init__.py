"""Patch descriptors learned from weakly-labeled bags of keypoints.

The package trains a small convolutional descriptor extractor with only
bag-level supervision (matching / non-matching pairs of keypoint sets) by
optimizing a differentiable bag-matching score, and evaluates the result
with matching-based and VLAD-based retrieval on synthetic multi-view data.
"""

from .data import (
    BagDataset,
    BagTriplet,
    DataError,
    PatchBag,
    SceneImage,
    build_dataset,
    extract_bag,
    fast_detect,
    generate_scene,
    load_dataset,
    sample_triplet,
    save_dataset,
)
from .matching import (
    GramPair,
    MatchConfig,
    hard_match_score,
    hungarian_match_count,
    soft_indicator,
    soft_match_backward,
    soft_match_score,
    sqdist_matrix,
)
from .net import (
    DescriptorNet,
    forward,
    forward_bag,
    init_net,
    load_net,
    save_net,
)
from .retrieval import (
    VladCodebook,
    build_match_index,
    kmeans,
    match_retrieve,
    nn_ft_st,
    sweep_tau,
    vlad_encode,
    vlad_retrieve,
)
from .tensor import (
    DegenerateInputError,
    ShapeError,
    Tensor,
    affine,
    conv2d,
    finite_diff_gradcheck,
    l2_normalize,
    maxpool2x2,
    relu,
)
from .train import (
    TrainConfig,
    ratio_loss,
    rmsprop_step,
    run_round,
    train,
    triplet_loss,
    validate,
)

__version__ = "0.1.0"
