"""Weakly-labeled bag data: procedural scenes, corner detection, patch bags.

A scene is a seeded procedural rendering (gradient background, textured
polygons and ellipses, additive noise) observed from several views related
by known perspective warps plus photometric jitter; each shape is painted
only inside its own bounding box. Bags are built per view:
the image is downsampled by four with area averaging, corners come from a
FAST-style segment test, and fixed-size patches around the strongest corners
are resampled to 32x32. Labels exist only at bag level: two views of one
object form a matching pair, any view of another object a non-matching one.

Coordinates are (x, y) = (column, row) throughout; homographies act on
(x, y, 1) column vectors and map reference-view coordinates to the view.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .files import atomic_write
from .net import PATCH_SHAPE
from .tensor import ShapeError

__all__ = [
    "DataError",
    "SceneImage",
    "PatchBag",
    "BagTriplet",
    "BagDataset",
    "check_bag_settings",
    "generate_scene",
    "downsample4",
    "rgb_to_gray",
    "fast_detect",
    "extract_bag",
    "build_dataset",
    "cut_splits",
    "sample_triplet",
    "save_dataset",
    "load_dataset",
]

DATASET_MAGIC = b"WLRNBAG1"
MIN_SCENE_SIDE = 256
PATCH_SIDE = 32
# Default scene side in pixels, and default half-side of a patch's crop on
# the image downsampled by four.
IMAGE_SIZE = 512
PATCH_RADIUS = 16
# FAST segment-test intensity margin, on [0,1] gray values.
FAST_THRESHOLD = 0.05
# Strongest corners kept per view; a bag is drawn from these.
MAX_KEYPOINTS = 75
# A view's random corner displacement, as a fraction of the image side.
MAX_CORNER_JITTER = 0.15
# Scenes generated per object before build_dataset gives up.
MAX_SCENE_ATTEMPTS = 64
# Output rows a perspective warp computes and samples at a time.
WARP_BLOCK_ROWS = 32

# 16-pixel Bresenham circle of radius 3, clockwise from twelve o'clock.
_CIRCLE = (
    (0, -3), (1, -3), (2, -2), (3, -1), (3, 0), (3, 1), (2, 2), (1, 3),
    (0, 3), (-1, 3), (-2, 2), (-3, 1), (-3, 0), (-3, -1), (-2, -2), (-1, -3),
)  # (dx, dy)
_ARC_LENGTH = 9

# Neighbors at earlier row-major positions suppress on score ties.
_EARLIER_NEIGHBORS = ((-1, -1), (-1, 0), (-1, 1), (0, -1))
_LATER_NEIGHBORS = ((0, 1), (1, -1), (1, 0), (1, 1))


class DataError(ValueError):
    """Data that cannot satisfy a generation or extraction contract."""


@dataclass
class SceneImage:
    """One rendered view of one synthetic object, as `generate_scene` makes it."""

    pixels: np.ndarray  # float64 [3, H, W] in [0, 1]
    object_id: int
    view_id: int
    homography: np.ndarray  # 3x3, reference coords -> this view's coords


@dataclass
class PatchBag:
    """n patches (and their keypoint coordinates) from one view of one object.

    `pixels` is one [n, 3, 32, 32] float32 array with values in [0, 1], the
    values a dataset file stores; the network widens them to float64 at its
    input. The values given are checked before they are narrowed, so a
    float64 value just outside [0, 1] is rejected rather than rounded into
    range, and float32 input is kept without a copy. Keypoints are
    generation-time metadata; bags loaded from disk carry None.
    """

    object_id: int
    view_id: int
    pixels: np.ndarray
    keypoints: list[tuple[int, int]] | None = None

    def __post_init__(self):
        pixels = np.asarray(self.pixels)
        if pixels.ndim != 4 or pixels.shape[1:] != PATCH_SHAPE:
            raise ShapeError(f"bag pixels must be [n,3,32,32], got {pixels.shape}")
        if len(pixels) < 1:
            raise DataError("a bag needs at least one patch")
        # min/max propagate NaN, so this also rejects non-finite values
        if not (pixels.min() >= 0.0 and pixels.max() <= 1.0):
            raise DataError("bag pixels must be finite and lie in [0, 1]")
        self.pixels = pixels.astype(np.float32, copy=False)
        if self.keypoints is not None and len(self.keypoints) != len(self.pixels):
            raise DataError("keypoint list length must match patch count")

    @property
    def n(self) -> int:
        return len(self.pixels)

    def pixel_stack(self) -> np.ndarray:
        """The [n, 3, 32, 32] pixel array itself (not a copy)."""
        return self.pixels


@dataclass
class BagTriplet:
    """Anchor and positive share an object (different views); negative does not."""

    anchor: PatchBag
    positive: PatchBag
    negative: PatchBag

    def __post_init__(self):
        if self.anchor.object_id != self.positive.object_id:
            raise DataError("anchor and positive must come from the same object")
        if self.anchor.view_id == self.positive.view_id:
            raise DataError("anchor and positive must be different views")
        if self.negative.object_id == self.anchor.object_id:
            raise DataError("negative must come from a different object")
        if not (self.anchor.n == self.positive.n == self.negative.n):
            raise DataError("all three bags must have the same size")


class BagDataset:
    """Bags grouped by object, with a fixed bag size and a split tag."""

    def __init__(self, bags: list[PatchBag], bag_size: int, split: str = ""):
        if not bags:
            raise DataError("dataset must contain at least one bag")
        for bag in bags:
            if bag.n != bag_size:
                raise DataError(f"bag has size {bag.n}, dataset requires {bag_size}")
        self.bags = list(bags)
        self.bag_size = bag_size
        self.split = split
        self.by_object: dict[int, list[PatchBag]] = {}
        for bag in self.bags:
            self.by_object.setdefault(bag.object_id, []).append(bag)
        for oid, views in self.by_object.items():
            if len(views) < 2:
                raise DataError(f"object {oid} has fewer than 2 views")
            views.sort(key=lambda b: b.view_id)
            if len({b.view_id for b in views}) < len(views):
                raise DataError(f"object {oid} repeats a view id")

    @property
    def object_ids(self) -> list[int]:
        return sorted(self.by_object)

    def __len__(self) -> int:
        return len(self.bags)


# ---------------------------------------------------------------------------
# Scene rendering


def _homography_from_corners(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """3x3 perspective map sending the four src (x,y) points to dst."""
    a = np.zeros((8, 8))
    b = np.zeros(8)
    for i, ((x, y), (u, v)) in enumerate(zip(src, dst)):
        a[2 * i] = [x, y, 1.0, 0.0, 0.0, 0.0, -u * x, -u * y]
        b[2 * i] = u
        a[2 * i + 1] = [0.0, 0.0, 0.0, x, y, 1.0, -v * x, -v * y]
        b[2 * i + 1] = v
    h = np.linalg.solve(a, b)
    return np.append(h, 1.0).reshape(3, 3)


def _bilinear_sample(img: np.ndarray, xq: np.ndarray, yq: np.ndarray) -> np.ndarray:
    """Sample [C,H,W] at float (x,y) locations with edge clamping.

    Each corner's value is weighted as (value * y-weight) * x-weight, and the
    four corners add left to right, top row first.
    """
    c, h, w = img.shape
    x = np.clip(xq, 0.0, w - 1.0)
    y = np.clip(yq, 0.0, h - 1.0)
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    top = y0 * w
    bottom = np.minimum(y0 + 1, h - 1) * w
    fx = x - x0
    fy = y - y0
    gx = 1 - fx
    gy = 1 - fy
    flat = img.reshape(c, -1)
    out = flat.take(top + x0, axis=1)
    out *= gy
    out *= gx
    for index, wy, wx in ((top + x1, gy, fx), (bottom + x0, fy, gx), (bottom + x1, fy, fx)):
        term = flat.take(index, axis=1)
        term *= wy
        term *= wx
        out += term
    return out


def _warp_image(pixels: np.ndarray, hmat: np.ndarray) -> np.ndarray:
    """Render the view of `pixels` under `hmat` (reference -> view).

    Source coordinates are computed and sampled WARP_BLOCK_ROWS output rows
    at a time into one [C,H,W] output. Every step is elementwise, so the
    blocks give the bits of one whole-image pass without its temporaries.
    """
    h, w = pixels.shape[1:]
    hinv = np.linalg.inv(hmat)
    xs = np.arange(w, dtype=np.float64)
    out = np.empty(pixels.shape)
    for top in range(0, h, WARP_BLOCK_ROWS):
        ys = np.arange(top, min(top + WARP_BLOCK_ROWS, h), dtype=np.float64)[:, None]
        denom = hinv[2, 0] * xs + hinv[2, 1] * ys + hinv[2, 2]
        qx = (hinv[0, 0] * xs + hinv[0, 1] * ys + hinv[0, 2]) / denom
        qy = (hinv[1, 0] * xs + hinv[1, 1] * ys + hinv[1, 2]) / denom
        out[:, top : top + len(ys)] = _bilinear_sample(pixels, qx, qy)
    return out


def _polygon_mask(xs: np.ndarray, ys: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Even-odd point-in-polygon test, vectorized over a pixel grid."""
    inside = np.zeros(xs.shape, dtype=bool)
    x0s, y0s = verts[:, 0], verts[:, 1]
    x1s, y1s = np.roll(x0s, -1), np.roll(y0s, -1)
    for x0, y0, x1, y1 in zip(x0s, y0s, x1s, y1s):
        crosses = (y0 <= ys) != (y1 <= ys)
        if not crosses.any():
            continue
        xint = x0 + (ys - y0) * (x1 - x0) / (y1 - y0)
        inside ^= crosses & (xs < xint)
    return inside


def _texture(rng: np.random.Generator, xs: np.ndarray, ys: np.ndarray, size: int) -> np.ndarray:
    """A random periodic pattern in [-1, 1] over the grid.

    Frequencies are high enough to survive the 4x downsample yet decorrelate
    under the local distortion of a perspective warp.
    """
    kind = int(rng.integers(0, 3))
    freq = rng.uniform(18.0, 44.0) / size
    theta = rng.uniform(0.0, 2.0 * np.pi)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    u = xs * np.cos(theta) + ys * np.sin(theta)
    if kind == 0:  # hard stripes
        return np.sign(np.sin(2.0 * np.pi * freq * u + phase))
    if kind == 1:  # checkerboard
        v = -xs * np.sin(theta) + ys * np.cos(theta)
        return np.sign(
            np.sin(2.0 * np.pi * freq * u + phase) * np.sin(2.0 * np.pi * freq * v + phase)
        )
    return np.sin(2.0 * np.pi * freq * u + phase)  # smooth waves


# Every scene draws from one shared palette (small per-scene jitter), so
# color alone barely separates objects; layout and texture phase must.
_PALETTE = np.array(
    [
        [0.70, 0.55, 0.35],
        [0.35, 0.55, 0.70],
        [0.55, 0.65, 0.45],
        [0.60, 0.45, 0.60],
        [0.50, 0.50, 0.50],
    ]
)


def _palette_color(rng: np.random.Generator) -> np.ndarray:
    base = _PALETTE[int(rng.integers(len(_PALETTE)))]
    return np.clip(base + rng.uniform(-0.02, 0.02, size=3), 0.05, 0.95)


def _window(lo: float, hi: float, size: int) -> slice:
    """Pixel indices spanning [lo, hi] plus 1 px of margin, clipped to the image.

    Empty when the span lies wholly off the image, as a polygon's can.
    """
    start = max(int(np.floor(lo)) - 1, 0)
    return slice(start, max(min(int(np.ceil(hi)) + 2, size), start))


def _render_reference(rng: np.random.Generator, size: int) -> np.ndarray:
    """Gradient and texture background, then shapes painted over it in order.

    Each shape computes its mask and texture only inside its bounding box:
    the mask is false outside it, and every operation is elementwise, so
    this paints the same pixels as working over the whole grid.
    """
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    c0 = _palette_color(rng)
    c1 = _palette_color(rng)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    proj = (xs * np.cos(angle) + ys * np.sin(angle)) / (size * np.sqrt(2.0))
    t = (proj - proj.min()) / max(proj.max() - proj.min(), 1e-9)
    img = c0[:, None, None] + (c1 - c0)[:, None, None] * t[None]
    img = np.clip(img + rng.uniform(0.15, 0.25) * _texture(rng, xs, ys, size)[None], 0.0, 1.0)

    num_polygons = int(rng.integers(10, 15))
    num_ellipses = int(rng.integers(3, 7))
    for shape_index in range(num_polygons + num_ellipses):
        cx = rng.uniform(0.1, 0.9) * size
        cy = rng.uniform(0.1, 0.9) * size
        if shape_index < num_polygons:
            num_verts = int(rng.integers(3, 8))
            angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=num_verts))
            radii = rng.uniform(0.06, 0.2, size=num_verts) * size
            verts = np.stack([cx + radii * np.cos(angles), cy + radii * np.sin(angles)], axis=1)
            rows = _window(verts[:, 1].min(), verts[:, 1].max(), size)
            cols = _window(verts[:, 0].min(), verts[:, 0].max(), size)
            wy, wx = np.mgrid[rows, cols].astype(np.float64)
            mask = _polygon_mask(wx, wy, verts)
        else:
            ax = rng.uniform(0.05, 0.16) * size
            bx = rng.uniform(0.05, 0.16) * size
            theta = rng.uniform(0.0, np.pi)
            reach = max(ax, bx)
            rows = _window(cy - reach, cy + reach, size)
            cols = _window(cx - reach, cx + reach, size)
            wy, wx = np.mgrid[rows, cols].astype(np.float64)
            dx, dy = wx - cx, wy - cy
            u = (dx * np.cos(theta) + dy * np.sin(theta)) / ax
            v = (-dx * np.sin(theta) + dy * np.cos(theta)) / bx
            mask = u * u + v * v <= 1.0
        base = _palette_color(rng)
        amp = rng.uniform(0.2, 0.35)
        pattern = _texture(rng, wx, wy, size)
        fill = np.clip(base[:, None, None] + amp * pattern[None], 0.0, 1.0)
        img[:, rows, cols] = np.where(mask[None], fill, img[:, rows, cols])

    img += rng.normal(0.0, 0.02, size=img.shape)
    return np.clip(img, 0.0, 1.0, out=img)


def generate_scene(
    seed: int,
    num_views: int,
    *,
    size: int = IMAGE_SIZE,
    object_id: int = 0,
) -> list[SceneImage]:
    """Render one object under `num_views` views with known homographies.

    View 0 is the reference (identity homography). Later views apply a random
    perspective warp (each corner moves by at most MAX_CORNER_JITTER * size
    per axis), brightness/contrast jitter within +/-20%, and pixel noise with
    sigma <= 0.02. Deterministic in (seed, arguments). The jitter, noise
    and clip of each view run in place, in that order.
    """
    if size < MIN_SCENE_SIDE:
        raise ShapeError(f"scene must be at least {MIN_SCENE_SIDE} px per side, got {size}")
    if num_views < 2:
        raise DataError(f"need at least 2 views, got {num_views}")
    rng = np.random.Generator(np.random.PCG64(seed))
    reference = _render_reference(rng, size)
    views = [SceneImage(reference, object_id, 0, np.eye(3))]
    corners = np.array(
        [[0.0, 0.0], [size - 1.0, 0.0], [size - 1.0, size - 1.0], [0.0, size - 1.0]]
    )
    for view_id in range(1, num_views):
        jitter = rng.uniform(-MAX_CORNER_JITTER, MAX_CORNER_JITTER, size=(4, 2)) * size
        hmat = _homography_from_corners(corners, corners + jitter)
        warped = _warp_image(reference, hmat)
        contrast = rng.uniform(0.8, 1.2)
        brightness = rng.uniform(-0.2, 0.2)
        # ((warped - 0.5) * contrast + 0.5) + brightness
        warped -= 0.5
        warped *= contrast
        warped += 0.5
        warped += brightness
        sigma = rng.uniform(0.002, 0.02)
        warped += rng.normal(0.0, sigma, size=warped.shape)
        np.clip(warped, 0.0, 1.0, out=warped)
        views.append(SceneImage(warped, object_id, view_id, hmat))
    return views


# ---------------------------------------------------------------------------
# Keypoints and patches


def rgb_to_gray(pixels: np.ndarray) -> np.ndarray:
    """Luma of a [3,H,W] image: 0.299 R + 0.587 G + 0.114 B."""
    return 0.299 * pixels[0] + 0.587 * pixels[1] + 0.114 * pixels[2]


def downsample4(pixels: np.ndarray) -> np.ndarray:
    """Downsample [C,H,W] by 4 with 4x4 area averaging (crops to multiples).

    Each block adds the 4 values of each of its rows left to right, then
    the 4 row sums top to bottom, then divides by 16: the order in which
    `reshape(...).mean(axis=(2, 4))` sums, so the bits are the same.
    """
    c, h, w = pixels.shape
    blocks = pixels[:, : (h // 4) * 4, : (w // 4) * 4].reshape(c, h // 4, 4, w // 4, 4)
    rows = blocks[..., 0] + blocks[..., 1]
    rows += blocks[..., 2]
    rows += blocks[..., 3]
    total = rows[:, :, 0] + rows[:, :, 1]
    total += rows[:, :, 2]
    total += rows[:, :, 3]
    total /= 16
    return total


def _arc_min_scores(margins: np.ndarray) -> np.ndarray:
    """Best over circular 9-long arcs of the per-arc minimum margin."""
    wrapped = np.concatenate([margins, margins[: _ARC_LENGTH - 1]], axis=0)
    best = np.full(margins.shape[1:], -np.inf)
    for start in range(len(_CIRCLE)):
        best = np.maximum(best, wrapped[start : start + _ARC_LENGTH].min(axis=0))
    return best


def fast_detect(gray, intensity_threshold: float, max_keypoints: int) -> list[tuple[int, int, float]]:
    """Segment-test corners of an [H,W] gray image: (x, y, score), strongest first.

    A pixel is a corner when at least 9 contiguous pixels on its radius-3
    circle are all brighter than center + t or all darker than center - t.
    The score is the best arc's minimum margin; 3x3 non-maximum suppression
    keeps the first (row-major) pixel on ties, and the top `max_keypoints`
    survivors are returned ordered by (-score, y, x).
    """
    gray = np.asarray(gray, dtype=np.float64)
    if gray.ndim != 2:
        raise ShapeError(f"segment test needs an [H,W] gray image, got {gray.shape}")
    h, w = gray.shape
    if h < 7 or w < 7:
        raise DataError(f"image must be at least 7x7 for the segment test, got {h}x{w}")
    hi, wi = h - 6, w - 6
    center = gray[3 : h - 3, 3 : w - 3]
    circle = np.stack(
        [gray[3 + dy : 3 + dy + hi, 3 + dx : 3 + dx + wi] for dx, dy in _CIRCLE]
    )
    bright = circle - (center + intensity_threshold)
    dark = (center - intensity_threshold) - circle
    interior_score = np.maximum(_arc_min_scores(bright), _arc_min_scores(dark))

    # The segment test cannot reach the 3-px rim, which stays -inf and so
    # pads every neighbour that the non-maximum suppression reads.
    score = np.full((h, w), -np.inf)
    score[3 : h - 3, 3 : w - 3] = interior_score
    keep = interior_score > 0.0
    for dy, dx in _EARLIER_NEIGHBORS:
        keep &= interior_score > score[3 + dy : h - 3 + dy, 3 + dx : w - 3 + dx]
    for dy, dx in _LATER_NEIGHBORS:
        keep &= interior_score >= score[3 + dy : h - 3 + dy, 3 + dx : w - 3 + dx]
    ys, xs = np.nonzero(keep)
    scores = interior_score[ys, xs]
    ys, xs = ys + 3, xs + 3
    order = np.lexsort((xs, ys, -scores))
    order = order[:max_keypoints]
    return [(int(xs[i]), int(ys[i]), float(scores[i])) for i in order]


def _resize_patch(crop: np.ndarray) -> np.ndarray:
    """Bilinear resample [3,S,S] to [3,32,32] (the crop itself when S == 32)."""
    src = crop.shape[1]
    if src == PATCH_SIDE:
        return crop
    coords = (np.arange(PATCH_SIDE, dtype=np.float64) + 0.5) * (src / PATCH_SIDE) - 0.5
    xq, yq = np.meshgrid(coords, coords, indexing="xy")
    return _bilinear_sample(crop, xq, yq)


def check_bag_settings(bag_size: int, patch_radius: int, image_size: int) -> None:
    """Reject a bag size outside [1, MAX_KEYPOINTS], or a patch radius below
    1 or above image_size // 8: a corner needs r <= x <= image_size // 4 - r
    in the downsampled scene, so no corner clears a wider border."""
    if not 1 <= bag_size <= MAX_KEYPOINTS:
        raise DataError(f"bag size must lie in [1, MAX_KEYPOINTS={MAX_KEYPOINTS}], got {bag_size}")
    if patch_radius < 1:
        raise DataError(f"patch radius must be at least 1, got {patch_radius}")
    if patch_radius > image_size // 8:
        raise DataError(
            f"patch radius must be at most {image_size // 8} at {image_size} px, got {patch_radius}"
        )


def extract_bag(scene: SceneImage, n: int, patch_radius: int = PATCH_RADIUS) -> PatchBag:
    """Bag of the n strongest corner patches of a scene view.

    The view is downsampled by four once, and the segment test runs on that
    image (FAST_THRESHOLD, at most MAX_KEYPOINTS corners, in `fast_detect`'s
    strongest-first order). A square of side 2*patch_radius is cropped
    around each of the first n corners lying at least patch_radius from
    every border, and each crop is bilinearly resampled to 32x32. Fewer than
    n usable corners is an error; bags are never padded.
    """
    check_bag_settings(n, patch_radius, min(scene.pixels.shape[1:]))
    small = downsample4(scene.pixels)
    h, w = small.shape[1:]
    detections = fast_detect(rgb_to_gray(small), FAST_THRESHOLD, MAX_KEYPOINTS)
    usable = [
        (x, y)
        for x, y, _ in detections
        if patch_radius <= x <= w - patch_radius and patch_radius <= y <= h - patch_radius
    ]
    if len(usable) < n:
        raise DataError(
            f"only {len(usable)} of {len(detections)} corners are at least "
            f"{patch_radius} px from the border; need {n}"
        )
    keypoints = usable[:n]
    crops = [
        _resize_patch(
            small[:, y - patch_radius : y + patch_radius, x - patch_radius : x + patch_radius]
        )
        for x, y in keypoints
    ]
    # Rounding in the bilinear weights can land just outside [0, 1]; clamp once.
    return PatchBag(scene.object_id, scene.view_id, np.clip(np.stack(crops), 0.0, 1.0), keypoints)


# ---------------------------------------------------------------------------
# Datasets


def _object_bags(
    seed: int, views: int, bag_size: int, image_size: int, patch_radius: int, object_id: int
) -> list[PatchBag]:
    """Bags of every view of one object, from its first scene that yields them.

    Attempt k renders from SeedSequence([seed, object_id, k]), so an object's
    bags depend on nothing but these arguments. A scene with a view that
    lacks `bag_size` usable corners is regenerated; MAX_SCENE_ATTEMPTS
    failures is an error naming the object.
    """
    for attempt in range(MAX_SCENE_ATTEMPTS):
        scene_seed = int(np.random.SeedSequence([seed, object_id, attempt]).generate_state(1)[0])
        scenes = generate_scene(scene_seed, views, size=image_size, object_id=object_id)
        try:
            return [extract_bag(scene, bag_size, patch_radius) for scene in scenes]
        except DataError:
            continue
    raise DataError(
        f"object {object_id}: no scene with {bag_size} usable corners per view "
        f"after {MAX_SCENE_ATTEMPTS} attempts"
    )


def _fork_pool(workers: int):
    """An executor of `workers` forked processes, or None where the platform
    cannot fork.

    Forked children start from this process's imported modules, with no
    re-import and no `__main__` guard, and hand their heap back to the
    system when they exit. multiprocessing is imported here because loading
    it costs a fresh interpreter about 60 ms that only a pool needs.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))


def build_dataset(
    num_objects: int,
    views_per_object: int,
    bag_size: int,
    seed: int,
    *,
    image_size: int = IMAGE_SIZE,
    patch_radius: int = PATCH_RADIUS,
    workers: int = 1,
) -> BagDataset:
    """Generate a corpus of objects 0..num_objects-1 and bag every view.

    Each view becomes a bag through `extract_bag`. Scenes that fail to yield
    `bag_size` usable corners in every view are regenerated from a derived
    seed (never padded); more than MAX_SCENE_ATTEMPTS failures for one
    object is an error. Each object's bags are copied into one float32
    [objects*views, n, 3, 32, 32] corpus array, in object order, and every
    bag's pixels are a view of it, as in `load_dataset`. So a built bag
    holds the float32 values that saving and loading it gives. `cut_splits`
    cuts disjoint splits from the corpus.

    Objects are rendered one per task. At one worker, and on platforms
    without the `fork` start method, they render in this process; otherwise
    on min(workers, num_objects) forked worker processes, which return only
    bags and have all exited when this returns or raises. No random stream
    is shared between objects, so the bytes do not depend on `workers`.
    """
    if num_objects < 1 or views_per_object < 2:
        raise DataError("need at least 1 object and 2 views per object")
    if workers < 1:
        raise DataError(f"need at least 1 worker, got {workers}")
    check_bag_settings(bag_size, patch_radius, image_size)
    render = functools.partial(
        _object_bags, seed, views_per_object, bag_size, image_size, patch_radius
    )
    workers = min(workers, num_objects)
    pool = _fork_pool(workers) if workers > 1 else None
    pixels = np.empty((num_objects * views_per_object, bag_size, *PATCH_SHAPE), np.float32)
    bags: list[PatchBag] = []
    # When a worker's result raises, `map` cancels the tasks not yet started,
    # and leaving the block waits for the running ones and joins every process.
    with pool or contextlib.nullcontext():
        for object_bags in (pool.map if pool else map)(render, range(num_objects)):
            for bag in object_bags:
                pixels[len(bags)] = bag.pixels
                bag.pixels = pixels[len(bags)]
                bags.append(bag)
    return BagDataset(bags, bag_size)


def cut_splits(corpus: BagDataset, counts: dict[str, int]) -> dict[str, BagDataset]:
    """Disjoint splits of a corpus, named and sized by `counts` in its order:
    each takes the next objects in id order with every view, and its bags
    are the corpus's own, views of the corpus array."""
    if sum(counts.values()) != len(corpus.by_object):
        raise DataError(f"split counts {counts} do not cover {len(corpus.by_object)} objects")
    ids, start, splits = corpus.object_ids, 0, {}
    for name, count in counts.items():
        bags = [bag for oid in ids[start : start + count] for bag in corpus.by_object[oid]]
        splits[name] = BagDataset(bags, corpus.bag_size, name)
        start += count
    return splits


def sample_triplet(dataset: BagDataset, rng: np.random.Generator) -> BagTriplet:
    """Random (anchor, positive, negative): two views of one object plus a
    bag from a uniformly chosen different object."""
    objects = dataset.object_ids
    if len(objects) < 2:
        raise DataError("triplet sampling needs at least 2 objects")
    anchor_idx = int(rng.integers(len(objects)))
    anchor_obj = objects[anchor_idx]
    views = dataset.by_object[anchor_obj]
    i = int(rng.integers(len(views)))
    j = int(rng.integers(len(views) - 1))
    if j >= i:
        j += 1
    k = int(rng.integers(len(objects) - 1))
    if k >= anchor_idx:
        k += 1
    neg_views = dataset.by_object[objects[k]]
    negative = neg_views[int(rng.integers(len(neg_views)))]
    return BagTriplet(views[i], views[j], negative)


def save_dataset(dataset: BagDataset, path) -> None:
    """Write magic, a JSON header, then fixed-size little-endian bag records.

    Each record is three uint32 (object id, view id, n) and the bag's
    float32 pixel values as they are held, so the bytes round-trip. The
    file appears only once complete (`files.atomic_write`).
    """
    counts = {len(v) for v in dataset.by_object.values()}
    if len(counts) != 1:
        raise DataError(f"objects have differing view counts {sorted(counts)}; cannot serialize")
    views_per_object = counts.pop()
    header = {
        "num_objects": len(dataset.by_object),
        "views_per_object": views_per_object,
        "n": dataset.bag_size,
        "patch_side": PATCH_SIDE,
    }
    with atomic_write(path) as fh:
        fh.write(DATASET_MAGIC)
        fh.write((json.dumps(header) + "\n").encode("ascii"))
        for bag in dataset.bags:
            fh.write(struct.pack("<III", bag.object_id, bag.view_id, bag.n))
            fh.write(bag.pixel_stack().astype("<f4", copy=False).tobytes())


def load_dataset(path, split: str = "") -> BagDataset:
    """Read a dataset file back; any structural inconsistency is an error.

    Each record's float32 values are read straight from the file into one
    contiguous [bags, n, 3, 32, 32] split array, and every bag's pixels are
    a view of it, so a loaded split holds, and while loading peaks at, the
    memory of its pixel bytes.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(DATASET_MAGIC))
        if magic != DATASET_MAGIC:
            raise DataError(f"bad magic {magic!r}")
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise DataError("missing header line")
        try:
            header = json.loads(line[:-1].decode("ascii"))
            counts = [header[key] for key in ("num_objects", "views_per_object", "n", "patch_side")]
        except (ValueError, KeyError, TypeError) as exc:
            raise DataError(f"malformed header: {exc}") from exc
        if any(type(c) is not int for c in counts):
            raise DataError(f"header counts must be integers, got {header}")
        num_objects, views_per_object, n, patch_side = counts
        if patch_side != PATCH_SIDE:
            raise DataError(f"unsupported patch side {patch_side}")
        if min(num_objects, views_per_object, n) < 1:
            raise DataError(f"header counts must be positive, got {header}")
        count, start = num_objects * views_per_object, fh.tell()
        record_size = 3 * 4 + n * int(np.prod(PATCH_SHAPE)) * 4  # uint32 object, view, n; float32 pixels
        size = os.fstat(fh.fileno()).st_size
        whole = (size - start) // record_size
        if whole < count:
            raise DataError(f"truncated record at byte offset {start + whole * record_size}")
        end = start + count * record_size
        if end != size:
            raise DataError(f"{size - end} trailing bytes after the last record")
        ids = np.empty((count, 3), dtype="<u4")
        pixels = np.empty((count, n, *PATCH_SHAPE), dtype="<f4")
        for i in range(count):
            if fh.readinto(ids[i]) + fh.readinto(pixels[i]) != record_size:
                raise DataError(f"truncated record at byte offset {start + i * record_size}")

    def first(bad: np.ndarray) -> int:
        return start + int(np.argmax(bad)) * record_size

    bad_n = ids[:, 2] != n
    if bad_n.any():
        raise DataError(
            f"bag at byte offset {first(bad_n)} declares n={ids[bad_n][0, 2]}, header says n={n}"
        )
    values = pixels.reshape(count, -1)
    in_range = (values.min(axis=1) >= 0.0) & (values.max(axis=1) <= 1.0)  # False on NaN
    if not in_range.all():
        raise DataError(
            f"non-finite or out-of-range patch values at byte offset {first(~in_range)}"
        )
    if np.any(np.unique(ids[:, 0], return_counts=True)[1] != views_per_object):
        raise DataError(f"records do not form {num_objects} objects of {views_per_object} views")
    bags = [PatchBag(o, v, pixels[i]) for i, (o, v, _) in enumerate(ids.tolist())]
    return BagDataset(bags, n, split)
