"""Scratchpad-budgeted tiling: why a 99.6 kB L1 budget turns a 320x240
integral image into 100x240 tiles, and why tiling never changes the output.
"""

import numpy as np

from trapnode.detector import PyramidConfig, ScratchBudget, detect, plan_tiles
from trapnode.imaging import GrayImage
from trapnode.synthetic import synth_scene
from trapnode.trainer import TrainConfig, train_cascade
from trapnode.synthetic import synth_negative_images, synth_positive_windows

print("A full 320x240 integral image needs 320*240*4 =", 320 * 240 * 4, "bytes;")
print("a 99.6 kB scratchpad cannot hold it, so the scan is tiled.\n")

budget = ScratchBudget(bytes=99_600, mode="ii_only")
tiles = plan_tiles(320, 240, budget, overlap=20)
print(f"{'tile':>4} {'origin':>10} {'size':>9} {'II bytes':>9}  owns window origins")
for i, t in enumerate(tiles):
    print(f"{i:>4} ({t.x:3d},{t.y:3d})  {t.w:3d}x{t.h}  {t.w * t.h * 4:>9,}"
          f"  x in [{t.core.x}, {t.core.x + t.core.w})")
print("\nAdjacent tiles overlap by 20 px, one px more than the 20 px window")
print("needs, so every window lies wholly inside some tile; each origin is")
print("owned by exactly one tile, which removes cross-tile duplicates.\n")

rng = np.random.default_rng(7)
positives = synth_positive_windows(120, rng)
negatives = synth_negative_images(80, 96, 96, rng)
cascade = train_cascade(positives, negatives,
                        TrainConfig(num_stages=2, feature_subsample=0.04,
                                    max_weak_per_stage=10,
                                    negatives_per_stage=150, seed=3)).cascade

scene, _ = synth_scene(320, 240, [20, 24], rng)
cfg = PyramidConfig(num_levels=5)
tiled = detect(scene, cascade, cfg=cfg, budget=budget)
untiled = detect(scene, cascade, cfg=cfg, budget=ScratchBudget(bytes=10 ** 9))
print(f"tiled scan:   {len(tiled)} detections (budget 99.6 kB, {len(tiles)} tiles "
      "at level 0, scanned one after another)")
print(f"untiled scan: {len(untiled)} detections (whole level per tile)")
print("identical output:", tiled == untiled)
