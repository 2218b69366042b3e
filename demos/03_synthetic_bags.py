"""From procedural scenes to weakly-labeled keypoint bags.

Renders one object under several views, detects corners on the downsampled
images, extracts patch bags, and round-trips a small dataset through the
binary file format.
"""

import tempfile
from pathlib import Path

import numpy as np

from bagdesc.data import (
    build_dataset,
    downsample4,
    extract_bag,
    fast_detect,
    generate_scene,
    load_dataset,
    rgb_to_gray,
    sample_triplet,
    save_dataset,
)


def main():
    views = generate_scene(seed=7, num_views=4, size=512, object_id=0)
    print(f"rendered {len(views)} views of object 0 "
          f"({views[0].pixels.shape[1]}x{views[0].pixels.shape[2]} px)")
    for view in views:
        small = downsample4(view.pixels)
        detections = fast_detect(rgb_to_gray(small), 0.05, 75)
        print(f"  view {view.view_id}: {len(detections)} corners on the "
              f"{small.shape[1]}x{small.shape[2]} downsampled image, "
              f"strongest score {detections[0][2]:.3f}")

    bag = extract_bag(views[0], n=16)
    print(f"\nbag: {bag.n} patches of shape {bag.pixels.shape[1:]}, "
          f"keypoints like {bag.keypoints[:3]} ...")

    print("\nbuilding a 4-object dataset (2 views each) ...")
    dataset = build_dataset(4, 2, 12, seed=3)
    rng = np.random.default_rng(0)
    triplet = sample_triplet(dataset, rng)
    print(f"sampled triplet: anchor=({triplet.anchor.object_id}, view {triplet.anchor.view_id}), "
          f"positive view {triplet.positive.view_id}, "
          f"negative object {triplet.negative.object_id}")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "demo.bags"
        save_dataset(dataset, path)
        loaded = load_dataset(path, "demo")
        identical = all(
            np.array_equal(
                a.pixel_stack().astype(np.float32), b.pixel_stack().astype(np.float32)
            )
            for a, b in zip(dataset.bags, loaded.bags)
        )
        print(f"\nfile round trip: {path.stat().st_size:,} bytes, payload identical: {identical}")


if __name__ == "__main__":
    main()
