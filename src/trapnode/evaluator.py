"""Detection-accuracy metric: IoU plus greedy one-to-one box matching.

A prediction counts as correct when it can be matched one-to-one to a
ground-truth box with IoU at or above the threshold. Predictions are consumed
in descending score order; each takes the unmatched ground-truth box of
highest IoU (ties broken by ground-truth index).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .integral import Rect


@dataclass(frozen=True)
class EvalReport:
    matched: int
    total_gt: int
    total_pred: int
    false_positives: int

    @property
    def detection_rate(self) -> float:
        return self.matched / self.total_gt if self.total_gt else 0.0


def iou(a: Rect, b: Rect) -> float:
    """Intersection over union of two boxes; 0.0 when disjoint."""
    ix = max(a.x, b.x)
    iy = max(a.y, b.y)
    ix2 = min(a.x + a.w, b.x + b.w)
    iy2 = min(a.y + a.h, b.y + b.h)
    iw = max(0, ix2 - ix)
    ih = max(0, iy2 - iy)
    inter = iw * ih
    union = a.area + b.area - inter
    return inter / union if union > 0 else 0.0


def match_detections(preds: Sequence[tuple[Rect, float]], gts: Sequence[Rect],
                     iou_thr: float) -> EvalReport:
    """Greedy score-ordered one-to-one matching at the given IoU threshold."""
    if not 0.0 < iou_thr <= 1.0:
        raise ValueError(f"iou_thr must be in (0, 1], got {iou_thr}")
    order = sorted(range(len(preds)), key=lambda i: (-preds[i][1], i))
    gt_taken = [False] * len(gts)
    matched = 0
    for pi in order:
        box = preds[pi][0]
        best_gt = -1
        best_iou = 0.0
        for gi, gt in enumerate(gts):
            if gt_taken[gi]:
                continue
            v = iou(box, gt)
            if v >= iou_thr and v > best_iou:
                best_iou = v
                best_gt = gi
        if best_gt >= 0:
            gt_taken[best_gt] = True
            matched += 1
    return EvalReport(
        matched=matched,
        total_gt=len(gts),
        total_pred=len(preds),
        false_positives=len(preds) - matched,
    )


def match_by_image(preds_by_image: dict[str, list[tuple[Rect, float]]],
                   gts_by_image: dict[str, list[Rect]],
                   iou_thr: float) -> EvalReport:
    """Aggregate matching over a set of images keyed by image id."""
    matched = total_gt = total_pred = 0
    for image_id in sorted(set(preds_by_image) | set(gts_by_image)):
        rep = match_detections(
            preds_by_image.get(image_id, []),
            gts_by_image.get(image_id, []),
            iou_thr,
        )
        matched += rep.matched
        total_gt += rep.total_gt
        total_pred += rep.total_pred
    return EvalReport(matched, total_gt, total_pred, total_pred - matched)
