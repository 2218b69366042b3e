"""Synthetic scenes, FAST corners, patch bags, dataset files."""

import concurrent.futures
import hashlib
import multiprocessing
import tracemalloc

import numpy as np
import pytest

import bagdesc.data as data
from bagdesc.data import (
    _bilinear_sample,
    BagDataset,
    BagTriplet,
    DataError,
    PatchBag,
    build_dataset,
    cut_splits,
    downsample4,
    extract_bag,
    fast_detect,
    generate_scene,
    load_dataset,
    rgb_to_gray,
    sample_triplet,
    save_dataset,
)
from bagdesc.tensor import ShapeError

from oracles import bilinear_sample_loop, downsample4_loop, fast_reference

RNG = np.random.default_rng(9)


# ---------------------------------------------------------------------------
# scenes


def test_generate_scene_deterministic():
    a = generate_scene(42, 3)
    b = generate_scene(42, 3)
    for va, vb in zip(a, b):
        assert np.array_equal(va.pixels, vb.pixels)
        assert np.array_equal(va.homography, vb.homography)
    c = generate_scene(43, 3)
    assert not np.array_equal(a[0].pixels, c[0].pixels)


def test_generate_scene_structure():
    views = generate_scene(1, 4, size=256)
    assert len(views) == 4
    assert [v.view_id for v in views] == [0, 1, 2, 3]
    assert np.array_equal(views[0].homography, np.eye(3))
    for v in views:
        assert v.pixels.shape == (3, 256, 256)
        assert v.pixels.min() >= 0.0 and v.pixels.max() <= 1.0
        assert abs(np.linalg.det(v.homography)) > 1e-9
    with pytest.raises(DataError):
        generate_scene(1, 1)


def test_generate_scene_rejects_small_size_before_rendering(monkeypatch):
    renders = []
    render = data._render_reference

    def counting_render(*args):
        renders.append(args)
        return render(*args)

    monkeypatch.setattr(data, "_render_reference", counting_render)
    with pytest.raises(ShapeError, match="at least 256"):
        generate_scene(0, 2, size=128)
    assert renders == []


def test_warp_consistency_within_half_pixel():
    views = generate_scene(12, 2, size=256)
    ref = rgb_to_gray(views[0].pixels)
    view = rgb_to_gray(views[1].pixels)
    hmat = views[1].homography

    # strongest reference corner well inside the frame
    detections = [
        (x, y, s) for x, y, s in fast_detect(ref, 0.05, 200) if 40 <= x <= 216 and 40 <= y <= 216
    ]
    assert detections
    half = 6

    def window(img, cx, cy):
        # bilinear sample of a (2*half+1)^2 window centered at float (cx, cy)
        offs = np.arange(-half, half + 1, dtype=np.float64)
        xs = cx + offs[None, :]
        ys = cy + offs[:, None]
        x0 = np.floor(xs).astype(int)
        y0 = np.floor(ys).astype(int)
        fx, fy = xs - x0, ys - y0
        return (
            img[y0, x0] * (1 - fy) * (1 - fx)
            + img[y0, x0 + 1] * (1 - fy) * fx
            + img[y0 + 1, x0] * fy * (1 - fx)
            + img[y0 + 1, x0 + 1] * fy * fx
        )

    def ncc(a, b):
        a = a - a.mean()
        b = b - b.mean()
        return float((a * b).sum() / max(np.linalg.norm(a) * np.linalg.norm(b), 1e-12))

    checked = 0
    for x, y, _ in detections[:5]:
        px, py, pw = hmat @ np.array([x, y, 1.0])
        px, py = px / pw, py / pw
        if not (half + 2 <= px < 256 - half - 2 and half + 2 <= py < 256 - half - 2):
            continue
        template = window(ref, float(x), float(y))
        offsets = np.arange(-2.0, 2.01, 0.5)
        scores = np.array([[ncc(template, window(view, px + dx, py + dy)) for dx in offsets] for dy in offsets])
        best = np.unravel_index(np.argmax(scores), scores.shape)
        assert abs(offsets[best[0]]) <= 0.5 and abs(offsets[best[1]]) <= 0.5
        checked += 1
    assert checked >= 2


# SHA-256 over every view's little-endian float64 pixels, then homography,
# for generate_scene(seed, 3, size=size). A rendering speed-up must keep
# every bit; update these only for a change that means to alter the data,
# and say so.
SCENE_DIGESTS = {
    (0, 256): "aeb94f7dda7ac4707b37969e2281ef3c0f42463c88b1625a4529b0d5ee200d44",
    (0, 301): "7c028c7f863c76f5ea7666232dbdcfe5b1aef628824086d97c79c846c8c182af",
    (0, 512): "f805ca73a2e8643df0cea61e5637d034e1c5a3935216cb1ea80d2c75bfd36e0b",
    (1, 256): "54807dd623dab92eb67025e9174ecc093cabf94a755c3c414cbdff926452e1ed",
    (1, 301): "9adea62a2b07d955b84746f425d2b395200bc23c42ad0d5853e241f7f428fd75",
    (1, 512): "d974097201a54968a7cd87ac347bc0187d701357bfb9b57468028a1a3f1e86e6",
    (7, 256): "c55145bd8e6c31379faae64c0b8f852c4e394b1585b29a41452ccd6563385f28",
    (7, 301): "fd8d10f9dc1dc7d204d9d64e3f8e19f701e914d6f0988ff159bc8ad1960f63e5",
    (7, 512): "475a4e49dbeb9c765a37f995c5d238cc228adf82689ac69a80b48e3bc5b02651",
    # a polygon whose bounding box starts at or past the image's far edge
    (144, 256): "4e39b007e4bf5a5380745066f6e9f3593e431da9898198e4d58208a5ff208839",
    (3921792435, 256): "af7e77948eb2b8b46bf053ec60d4650de4f5b1a10fe6d0151ef8b00aeb9ed895",
}


@pytest.mark.parametrize("seed,size", sorted(SCENE_DIGESTS))
def test_generate_scene_bytes_are_pinned(seed, size):
    digest = hashlib.sha256()
    for view in generate_scene(seed, 3, size=size):
        digest.update(np.ascontiguousarray(view.pixels, "<f8").tobytes())
        digest.update(np.ascontiguousarray(view.homography, "<f8").tobytes())
    assert digest.hexdigest() == SCENE_DIGESTS[seed, size]


@pytest.mark.parametrize("shape", [(3, 7, 9), (1, 1, 5), (2, 6, 1), (3, 4, 4)])
def test_bilinear_sample_matches_loop_oracle_exactly(shape):
    c, h, w = shape
    rng = np.random.default_rng(h * 10 + w)
    img = rng.uniform(0, 1, shape)
    xq = rng.uniform(-2.5, w + 1.5, (5, 11))
    yq = rng.uniform(-2.5, h + 1.5, (5, 11))
    # exact grid points, the last row and column, and the far corners
    xq[0, :4] = [0.0, w - 1.0, w - 1.0, w + 3.0]
    yq[0, :4] = [0.0, h - 1.0, 0.0, -4.0]
    xq[1, :3] = [w - 1.0, w - 1.5, -0.0]
    yq[1, :3] = [h - 1.5, h - 1.0, h + 7.0]
    got = _bilinear_sample(img, xq, yq)
    assert got.shape == (c, 5, 11)
    assert np.array_equal(got, bilinear_sample_loop(img, xq, yq))


def test_downsample4_area_average():
    img = RNG.uniform(0, 1, (3, 8, 12))
    small = downsample4(img)
    assert small.shape == (3, 2, 3)
    assert small[1, 0, 0] == pytest.approx(img[1, :4, :4].mean(), abs=1e-15)
    assert small[2, 1, 2] == pytest.approx(img[2, 4:8, 8:12].mean(), abs=1e-15)


@pytest.mark.parametrize("shape", [(3, 8, 12), (3, 301, 298), (1, 9, 13), (2, 64, 40)])
def test_downsample4_matches_loop_oracle_exactly(shape):
    rng = np.random.default_rng(sum(shape))
    # magnitudes from 1e-3 to 1e3, so a change in summation order shows
    img = rng.uniform(0, 1, shape) * 10.0 ** rng.uniform(-3, 3, shape)
    want = downsample4_loop(img)
    c, h, w = shape
    h4, w4 = (h // 4) * 4, (w // 4) * 4
    mean = img[:, :h4, :w4].reshape(c, h4 // 4, 4, w4 // 4, 4).mean(axis=(2, 4))
    assert np.array_equal(mean, want)
    assert np.array_equal(downsample4(img), want)


# tracemalloc peak of generate_scene(0, 4, size=512): the reference and
# three views are 25.2 MB, plus one view's 6.3 MB noise draw (32.2 MB
# measured). Whole-image warp temporaries would add about 50 MB.
SCENE_PEAK_BOUND_MB = 40


def test_generate_scene_memory_peak_is_bounded():
    tracemalloc.start()
    try:
        generate_scene(0, 4, size=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 < SCENE_PEAK_BOUND_MB


# ---------------------------------------------------------------------------
# FAST


def test_fast_constant_image_has_no_corners():
    assert fast_detect(np.full((32, 32), 0.5), 0.05, 100) == []


def test_fast_rejects_tiny_images():
    with pytest.raises(DataError):
        fast_detect(np.zeros((6, 10)), 0.05, 10)


def test_fast_takes_only_a_gray_image():
    with pytest.raises(ShapeError, match=r"\[H,W\] gray"):
        fast_detect(np.zeros((3, 32, 32)), 0.05, 10)


def test_fast_white_square_corners():
    img = np.zeros((40, 40))
    img[12:28, 12:28] = 1.0
    detections = fast_detect(img, 0.1, 100)
    assert detections
    corners = {(12, 12), (27, 12), (12, 27), (27, 27)}
    for x, y, score in detections:
        assert score > 0
        assert min(abs(x - cx) + abs(y - cy) for cx, cy in corners) <= 2
    # at least one detection adjacent to every square corner
    for cx, cy in corners:
        assert any(abs(x - cx) <= 2 and abs(y - cy) <= 2 for x, y, _ in detections)


def test_fast_matches_exhaustive_oracle():
    for trial in range(8):
        rng = np.random.default_rng(400 + trial)
        img = rng.uniform(0, 1, (24, 24))
        got = fast_detect(img, 0.08, 50)
        want = fast_reference(img, 0.08, 50)
        assert len(got) == len(want)
        for (gx, gy, gs), (wx, wy, ws) in zip(got, want):
            assert (gx, gy) == (wx, wy)
            assert gs == pytest.approx(ws, abs=1e-12)


def test_fast_ordering_is_by_score_then_position():
    rng = np.random.default_rng(2)
    img = rng.uniform(0, 1, (48, 48))
    detections = fast_detect(img, 0.05, 1000)
    keys = [(-s, y, x) for x, y, s in detections]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# bags


@pytest.fixture(scope="module")
def scene():
    return generate_scene(77, 2, size=512)[0]


def test_extract_bag_shapes(scene):
    bag = extract_bag(scene, 32, patch_radius=16)
    assert bag.n == 32
    assert bag.pixel_stack().shape == (32, 3, 32, 32)
    assert bag.pixel_stack().min() >= 0.0 and bag.pixel_stack().max() <= 1.0
    assert len(bag.keypoints) == 32


def test_extract_bag_excludes_border_keypoints(scene, monkeypatch):
    small = downsample4(scene.pixels)
    h, w = small.shape[1:]
    r = 16
    # a fake detection one pixel inside the margin must be excluded
    detections = [(r - 1, h // 2, 100.0), (w // 2, h // 2, 1.0)]
    monkeypatch.setattr(data, "fast_detect", lambda *args: detections)
    bag = extract_bag(scene, 1, patch_radius=r)
    assert bag.keypoints == [(w // 2, h // 2)]


def test_extract_bag_identity_resample_center_pixel(scene):
    small = downsample4(scene.pixels)
    bag = extract_bag(scene, 8, patch_radius=16)
    for patch, (x, y) in zip(bag.pixels, bag.keypoints):
        # a 32 px crop needs no resampling: the patch is the clipped crop
        # itself, rounded to the float32 a bag stores
        crop = np.clip(small[:, y - 16 : y + 16, x - 16 : x + 16], 0.0, 1.0)
        assert np.array_equal(patch[:, 16, 16], np.clip(small[:, y, x], 0.0, 1.0).astype(np.float32))
        assert np.array_equal(patch, crop.astype(np.float32))


def test_extract_bag_rejects_when_too_few(scene):
    with pytest.raises(DataError, match="need 74"):
        extract_bag(scene, 74, patch_radius=16)


@pytest.mark.parametrize("radius", [0, -4])
def test_extract_bag_rejects_radius_below_one(scene, radius):
    with pytest.raises(DataError, match="radius"):
        extract_bag(scene, 1, patch_radius=radius)


@pytest.mark.parametrize("n", [0, -1, data.MAX_KEYPOINTS + 1])
def test_extract_bag_rejects_bag_size_out_of_range(scene, n):
    with pytest.raises(DataError, match="bag size"):
        extract_bag(scene, n, patch_radius=8)


def test_extract_bag_keeps_fast_order_of_its_own_downsample(scene, monkeypatch):
    """One downsample per bag, and the corners are fast_detect's on it, in
    its order: the first n that clear the border."""
    smalls = []

    def counting_downsample(pixels):
        smalls.append(downsample4(pixels))
        return smalls[-1]

    monkeypatch.setattr(data, "downsample4", counting_downsample)
    bag = extract_bag(scene, 8, patch_radius=12)
    assert len(smalls) == 1
    h, w = smalls[0].shape[1:]
    want = [
        (x, y)
        for x, y, _ in fast_detect(rgb_to_gray(smalls[0]), data.FAST_THRESHOLD, data.MAX_KEYPOINTS)
        if 12 <= x <= w - 12 and 12 <= y <= h - 12
    ]
    assert bag.keypoints == want[:8]


def test_build_dataset_and_determinism():
    a = build_dataset(3, 2, 8, seed=5)
    b = build_dataset(3, 2, 8, seed=5)
    assert len(a) == 6
    assert a.object_ids == [0, 1, 2]
    for ba, bb in zip(a.bags, b.bags):
        assert np.array_equal(ba.pixel_stack(), bb.pixel_stack())


def test_build_dataset_downsamples_and_detects_once_per_view(monkeypatch):
    rendered, downsampled, detected = [], [], []

    def counting(calls, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append(result)
            return result

        return wrapper

    monkeypatch.setattr(data, "generate_scene", counting(rendered, generate_scene))
    monkeypatch.setattr(data, "downsample4", counting(downsampled, downsample4))
    monkeypatch.setattr(data, "fast_detect", counting(detected, fast_detect))
    build_dataset(2, 3, 4, seed=5, image_size=256, patch_radius=8)
    views = sum(len(scenes) for scenes in rendered)
    assert views >= 6
    assert len(downsampled) == len(detected) == views


def test_build_dataset_bags_share_one_array(tmp_path):
    built = build_dataset(3, 2, 4, seed=5, image_size=256, patch_radius=8)
    save_dataset(built, tmp_path / "d.bags")
    loaded = load_dataset(tmp_path / "d.bags")
    for dataset in (built, loaded):
        split = dataset.bags[0].pixels.base
        assert split.shape == (len(dataset), 4, 3, 32, 32)
        assert all(np.shares_memory(bag.pixels, split) for bag in dataset.bags)
        bags = dataset.bags
        assert not any(np.shares_memory(a.pixels, b.pixels) for a, b in zip(bags, bags[1:]))
    # the built split is float32 and equals its saved and loaded copy bit for bit
    a, b = built.bags[0].pixels.base, loaded.bags[0].pixels.base
    assert a.dtype == b.dtype == np.float32
    assert a.tobytes() == b.tobytes()


def test_cut_splits_cuts_consecutive_objects_of_one_corpus():
    corpus = make_dataset(num_objects=6, views=2, n=4)
    splits = cut_splits(corpus, {"train": 3, "val": 1, "test": 2})
    assert list(splits) == ["train", "val", "test"]
    assert [ds.object_ids for ds in splits.values()] == [[0, 1, 2], [3], [4, 5]]
    assert [ds.split for ds in splits.values()] == ["train", "val", "test"]
    # every bag is the corpus's own, in corpus order
    cut = [bag for ds in splits.values() for bag in ds.bags]
    assert len(cut) == len(corpus) and all(a is b for a, b in zip(cut, corpus.bags))
    with pytest.raises(DataError, match="do not cover 6 objects"):
        cut_splits(corpus, {"train": 3, "val": 1, "test": 1})
    with pytest.raises(DataError, match="do not cover 6 objects"):
        cut_splits(corpus, {"train": 6, "val": 1})


def test_load_dataset_holds_the_pixel_bytes_once(tmp_path):
    """A loaded split holds its float32 pixels once, and loading peaks
    there too: each record is read straight into the split array. (A copy
    of the file's bytes beside it would peak at 2x, a float64 split at 2x
    held and 3x peak.)"""
    path = tmp_path / "d.bags"
    save_dataset(make_dataset(num_objects=8, views=2, n=32), path)
    pixel_bytes = 8 * 2 * 32 * 3 * 32 * 32 * 4
    tracemalloc.start()
    try:
        loaded = load_dataset(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.bags[0].pixels.base.nbytes == pixel_bytes
    assert held <= 1.05 * pixel_bytes
    assert peak <= 1.1 * pixel_bytes


def test_build_dataset_rejects_bad_radius_before_rendering(monkeypatch):
    renders = []

    def counting_scene(*args, **kwargs):
        renders.append(args)
        return generate_scene(*args, **kwargs)

    monkeypatch.setattr(data, "generate_scene", counting_scene)
    # At 256 px the downsampled scene is 64 px wide, so a radius of 33 fits no corner.
    for radius in (0, -4, 33):
        with pytest.raises(DataError, match="radius"):
            build_dataset(1, 2, 4, 0, image_size=256, patch_radius=radius)
    for bag_size in (0, data.MAX_KEYPOINTS + 1):
        with pytest.raises(DataError, match="bag size"):
            build_dataset(1, 2, bag_size, 0, image_size=256, patch_radius=8)
    assert renders == []


def _dataset_digest(seed, bag_size, image_size, patch_radius, workers=1):
    """SHA-256 over every bag's pixels and keypoints of a two-object dataset."""
    digest = hashlib.sha256()
    built = build_dataset(
        2, 2, bag_size, seed, image_size=image_size, patch_radius=patch_radius, workers=workers
    )
    for bag in built.bags:
        digest.update(np.ascontiguousarray(bag.pixels, "<f8").tobytes())
        digest.update(np.asarray(bag.keypoints, "<i8").tobytes())
    return digest.hexdigest()


# Bags of 4 at 256 px with radius 8. Recorded over the float32 rounding of
# the float64 bags that build_dataset made before bags stored float32 (the
# values a save and load gave), so the digest widens them back to float64.
DATASET_DIGESTS = {
    0: "466f60cc27c8d52b3e01b9900d2737c08ed52f9fc3cc46ebef5d5944e52c5e73",
    5: "34ec9a068ca768a01a903d29530b813cbc02d8263a6bf8632aa68e4c6ba734b0",
}

# Bags of 32 at gen-data's own 512 px and radius 16, where each patch is
# its crop unresampled; recorded the same way.
GEN_DATASET_DIGESTS = {
    0: "42d72a43e9171fce9964c9f9d9a70242464ed6660ca9fc3076de66cfbe503387",
    5: "f15884ca717fe1c09df69b4fd659f5762873590993dfda1ab51bcb4283584185",
}


@pytest.mark.parametrize("seed", sorted(DATASET_DIGESTS))
def test_build_dataset_bytes_are_pinned(seed):
    assert _dataset_digest(seed, 4, 256, 8) == DATASET_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(GEN_DATASET_DIGESTS))
def test_build_dataset_bytes_are_pinned_at_gen_settings(seed):
    assert _dataset_digest(seed, 32, 512, 16) == GEN_DATASET_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(GEN_DATASET_DIGESTS))
def test_build_dataset_on_two_workers_gives_the_pinned_bytes(seed):
    assert _dataset_digest(seed, 32, 512, 16, workers=2) == GEN_DATASET_DIGESTS[seed]
    assert multiprocessing.active_children() == []


def test_worker_built_bags_share_one_array():
    built = build_dataset(3, 2, 4, seed=5, image_size=256, patch_radius=8, workers=2)
    split = built.bags[0].pixels.base
    assert split.shape == (6, 4, 3, 32, 32) and split.dtype == np.float32
    assert all(np.shares_memory(bag.pixels, split) for bag in built.bags)
    assert [(bag.object_id, bag.view_id) for bag in built.bags] == [
        (o, v) for o in range(3) for v in range(2)
    ]


def test_build_dataset_renders_in_process_by_default_and_without_fork(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("build_dataset started worker processes")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    want = build_dataset(2, 2, 4, 3, image_size=256, patch_radius=8)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    got = build_dataset(2, 2, 4, 3, image_size=256, patch_radius=8, workers=2)
    assert got.bags[0].pixels.base.tobytes() == want.bags[0].pixels.base.tobytes()
    with pytest.raises(DataError, match="worker"):
        build_dataset(2, 2, 4, 3, image_size=256, patch_radius=8, workers=0)


def test_patch_bag_validates():
    pixels = np.random.default_rng(1).uniform(0, 1, (2, 3, 32, 32))
    bag = PatchBag(0, 0, pixels, [(1, 2), (3, 4)])
    assert bag.n == 2
    assert bag.pixel_stack() is bag.pixels
    assert bag.pixels.dtype == np.float32
    assert np.array_equal(bag.pixels, pixels.astype(np.float32))
    narrow = pixels.astype(np.float32)
    assert PatchBag(0, 0, narrow).pixels is narrow  # float32 is kept, not copied
    with pytest.raises(ShapeError):
        PatchBag(0, 0, np.zeros((2, 3, 16, 16)))
    with pytest.raises(ShapeError):
        PatchBag(0, 0, np.zeros((3, 32, 32)))  # one patch, not a stack
    with pytest.raises(DataError, match="at least one"):
        PatchBag(0, 0, np.zeros((0, 3, 32, 32)))
    # the float64 values are checked before narrowing: 1 + 1e-9 and -1e-46
    # would round into [0, 1] in float32, and 1e39 to inf
    for value in (-0.5, 1.5, np.nan, np.inf, 1 + 1e-9, -1e-46, 1e39):
        bad = pixels.copy()
        bad[1, 2, 3, 4] = value
        with pytest.raises(DataError, match=r"\[0, 1\]"):
            PatchBag(0, 0, bad)
    with pytest.raises(DataError, match="keypoint"):
        PatchBag(0, 0, pixels, [(1, 2)])


def test_bag_dataset_invariants():
    patches = RNG.uniform(0, 1, (2, 3, 32, 32))
    solo = PatchBag(0, 0, patches)
    with pytest.raises(DataError):
        BagDataset([solo], 2)  # single view for object 0
    with pytest.raises(DataError):
        BagDataset([solo, PatchBag(0, 1, patches[:1])], 2)  # inconsistent n


def test_bag_dataset_rejects_duplicate_views():
    patches = np.full((2, 3, 32, 32), 0.5)
    bags = [PatchBag(0, view, patches) for view in (0, 1, 1)]
    with pytest.raises(DataError, match="repeats a view id"):
        BagDataset(bags, 2)


# ---------------------------------------------------------------------------
# triplets


def make_dataset(num_objects=4, views=3, n=2):
    rng = np.random.default_rng(0)
    bags = [
        PatchBag(obj, view, rng.uniform(0, 1, (n, 3, 32, 32)))
        for obj in range(num_objects)
        for view in range(views)
    ]
    return BagDataset(bags, n)


def test_sample_triplet_constraints():
    ds = make_dataset()
    rng = np.random.default_rng(3)
    for _ in range(50):
        t = sample_triplet(ds, rng)
        assert t.anchor.object_id == t.positive.object_id
        assert t.anchor.view_id != t.positive.view_id
        assert t.negative.object_id != t.anchor.object_id


def test_sample_triplet_rejects_single_object():
    rng = np.random.default_rng(0)
    patches = RNG.uniform(0, 1, (1, 3, 32, 32))
    ds = BagDataset([PatchBag(0, 0, patches), PatchBag(0, 1, patches)], 1)
    with pytest.raises(DataError):
        sample_triplet(ds, rng)


def test_negative_objects_uniform():
    ds = make_dataset(num_objects=5)
    rng = np.random.default_rng(11)
    counts = {}
    draws = 10_000
    for _ in range(draws):
        t = sample_triplet(ds, rng)
        key = (t.anchor.object_id, t.negative.object_id)
        counts[key] = counts.get(key, 0) + 1
    # for each anchor, negatives spread uniformly over the other 4 objects
    for anchor in range(5):
        anchor_total = sum(c for (a, _), c in counts.items() if a == anchor)
        expect = anchor_total / 4.0
        sigma = np.sqrt(anchor_total * (1 / 4) * (3 / 4))
        for neg in range(5):
            if neg == anchor:
                continue
            observed = counts.get((anchor, neg), 0)
            assert abs(observed - expect) <= 3.0 * sigma


def test_bag_triplet_validation():
    ds = make_dataset()
    a, b = ds.by_object[0][0], ds.by_object[0][1]
    c = ds.by_object[1][0]
    BagTriplet(a, b, c)
    with pytest.raises(DataError):
        BagTriplet(a, c, c)  # positive from another object
    with pytest.raises(DataError):
        BagTriplet(a, a, c)  # same view twice
    with pytest.raises(DataError):
        BagTriplet(a, b, b)  # negative from the anchor object


# ---------------------------------------------------------------------------
# dataset files


def test_dataset_round_trip(tmp_path):
    ds = make_dataset(num_objects=3, views=2, n=4)
    path = tmp_path / "bags.dat"
    save_dataset(ds, path)
    loaded = load_dataset(path, "train")
    assert loaded.bag_size == 4
    assert loaded.split == "train"
    assert len(loaded) == len(ds)
    for a, b in zip(ds.bags, loaded.bags):
        assert (a.object_id, a.view_id) == (b.object_id, b.view_id)
        assert b.keypoints is None
        # bags hold the float32 values the file stores: the round trip is exact
        assert b.pixel_stack().dtype == a.pixel_stack().dtype == np.float32
        assert np.array_equal(b.pixel_stack(), a.pixel_stack())
    # a second round trip is bit-exact
    path2 = tmp_path / "bags2.dat"
    save_dataset(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_dataset_file_rejects_corruption(tmp_path):
    ds = make_dataset(num_objects=3, views=2, n=4)
    path = tmp_path / "bags.dat"
    save_dataset(ds, path)
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.dat"
    bad_magic.write_bytes(b"NOTMAGIC" + bytes(raw[8:]))
    with pytest.raises(DataError, match="magic"):
        load_dataset(bad_magic)

    truncated = tmp_path / "trunc.dat"
    truncated.write_bytes(bytes(raw[:-20]))
    with pytest.raises(DataError, match="offset"):
        load_dataset(truncated)

    # flip one record's n field
    header_end = raw.index(b"\n") + 1
    mixed = bytearray(raw)
    mixed[header_end + 8 : header_end + 12] = (7).to_bytes(4, "little")
    bad_n = tmp_path / "badn.dat"
    bad_n.write_bytes(bytes(mixed))
    with pytest.raises(DataError, match="n=7"):
        load_dataset(bad_n)

    trailing = tmp_path / "trailing.dat"
    trailing.write_bytes(bytes(raw) + b"junk")
    with pytest.raises(DataError, match="trailing"):
        load_dataset(trailing)

    negative_n = tmp_path / "negn.dat"
    negative_n.write_bytes(bytes(raw).replace(b'"n": 4', b'"n": -4', 1))
    with pytest.raises(DataError, match="positive"):
        load_dataset(negative_n)

    # counts that int() would truncate to a valid header
    for old, new in (
        (b'"n": 4', b'"n": 4.9'),
        (b'"num_objects": 3', b'"num_objects": 3.7'),
        (b'"patch_side": 32', b'"patch_side": 32.5'),
    ):
        assert old in raw
        fractional = tmp_path / "fraction.dat"
        fractional.write_bytes(bytes(raw).replace(old, new, 1))
        with pytest.raises(DataError, match="integers"):
            load_dataset(fractional)

    # one pixel of the second record out of [0, 1] or non-finite
    record_bytes = 12 + 4 * 4 * 3 * 32 * 32
    second = header_end + record_bytes
    for value in (7.5, -0.25, np.nan, np.inf):
        corrupt = bytearray(raw)
        corrupt[second + 40 : second + 44] = np.array(value, dtype="<f4").tobytes()
        path_bad = tmp_path / "pixels.dat"
        path_bad.write_bytes(bytes(corrupt))
        with pytest.raises(DataError, match=f"out-of-range patch values at byte offset {second}$"):
            load_dataset(path_bad)


def test_dataset_file_rejects_records_that_disagree_with_header(tmp_path):
    path = tmp_path / "bags.dat"
    save_dataset(make_dataset(num_objects=1, views=4, n=4), path)
    raw = path.read_bytes()
    header = b'"num_objects": 1, "views_per_object": 4'
    assert header in raw
    relabeled = tmp_path / "relabeled.dat"
    relabeled.write_bytes(raw.replace(header, b'"num_objects": 2, "views_per_object": 2'))
    with pytest.raises(DataError, match="do not form 2 objects of 2 views"):
        load_dataset(relabeled)
