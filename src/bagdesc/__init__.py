"""Patch descriptors learned from weakly-labeled bags of keypoints.

The package trains a small convolutional descriptor extractor with only
bag-level supervision (matching / non-matching pairs of keypoint sets) by
optimizing a differentiable bag-matching score, and evaluates the result
with matching-based and VLAD-based retrieval on synthetic multi-view data.
Import names from their modules: `bagdesc.data`, `bagdesc.tensor`,
`bagdesc.net`, `bagdesc.matching`, `bagdesc.train`, `bagdesc.retrieval`,
`bagdesc.files` and `bagdesc.cli`.
"""

__version__ = "0.1.0"
