"""End-to-end detector walkthrough: synthesize a corpus, train a small
cascade, scan a trap scene, and score the detections.

The shipped acceptance cascade uses 15 stages; this demo trains a 3-stage
one so it finishes in under a minute.
"""

import numpy as np

from trapnode.detector import PyramidConfig, ScratchBudget, detect
from trapnode.evaluator import iou, match_detections
from trapnode.synthetic import (synth_negative_images, synth_positive_windows,
                                synth_scene)
from trapnode.trainer import TrainConfig, train_cascade

rng = np.random.default_rng(0)

print("1. Synthetic corpus: 20x20 moth windows plus mottled backgrounds")
positives = synth_positive_windows(200, rng)
negatives = synth_negative_images(150, 96, 96, rng)
print(f"   {len(positives)} positives, {len(negatives)} negative pool images")

print("2. Training a 3-stage cascade (AdaBoost stumps over Haar features)")
cfg = TrainConfig(num_stages=3, feature_subsample=0.05,
                  max_weak_per_stage=20, negatives_per_stage=200, seed=1)
result = train_cascade(positives, negatives, cfg)
for row in result.log:
    print(f"   stage {row.stage}: {row.weak_count} weak classifiers, "
          f"detection {row.detection_rate:.3f}, pool FP {row.pool_fp_rate:.2e}")
print(f"   cascade parameters: {result.cascade.size_bytes()} bytes")

print("3. Scanning a 320x240 trap scene (5 scales, 99.6 kB scratch budget)")
scene, truth = synth_scene(320, 240, [20, 22, 26], rng)
detections = detect(scene, result.cascade,
                    cfg=PyramidConfig(num_levels=5),
                    budget=ScratchBudget(bytes=99_600),
                    overlap=20, group_iou=0.3)
print(f"   {len(detections)} detections for {len(truth)} planted moths")
for d in detections[:10]:
    best = max((iou(d.bbox, t) for t in truth), default=0.0)
    print(f"   box ({d.bbox.x:3d},{d.bbox.y:3d}) {d.bbox.w}x{d.bbox.h} "
          f"level {d.level} score {d.score:+.2f} best IoU {best:.2f}")

print("4. Matching against ground truth at the IoU 0.01 operating point")
report = match_detections([(d.bbox, d.score) for d in detections], truth, 0.01)
print(f"   detection rate {report.detection_rate:.2f} "
      f"({report.matched}/{report.total_gt}), "
      f"{report.false_positives} false positives")
