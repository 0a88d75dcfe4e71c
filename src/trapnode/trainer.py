"""Attentional-cascade training: boosted stumps over Haar features with
per-stage threshold calibration and hard-negative mining.

Each stage is grown by discrete AdaBoost (weight update w <- w * beta^(1-e),
beta = eps/(1-eps), votes +/-alpha with alpha = ln(1/beta)). A fixed share of
the positives is held out of boosting: those calibration positives carry no
weight, but after every weak classifier is added the stage threshold is
lowered to the largest value that keeps the detection rate over all
positives, calibration ones included, at or above the configured minimum.
The stage is done once its false-positive rate drops to the per-stage
target. Stage k trains against negatives that pass stages 1..k-1, mined from
the windows the detector itself scans: every level of the default pyramid of
every pool image, at a step of one pixel.

The Haar feature pool is a numpy table (`feature_table`), one row of
(x, y, w, h, weight) rectangles per feature. Each stage boosts over a random
subsample of its rows. Their values on the stage's windows come from one
matmul of the rows' rect-corner coefficients with the windows' stacked padded
planes (`WindowStack`), and a `HaarFeature` is built only for the few rows
boosting picks. Training windows and the FP probe are scored stage by stage
with `cascade.score_stage`, the sparse kernel of `eval_grid`; the miner's
first pass over a pool raster is a dense `eval_lattice` scan, as the
detector's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cascade import (Cascade, HaarFeature, Stage, WeakClassifier, eval_grid,
                      eval_lattice, score_stage)
from .detector import PyramidConfig, build_pyramid
from .imaging import GrayImage, downscale
from .integral import Rect, _padded_prefix_sums, build_integral

# Per template: its width and height in unit rectangles (a x b), then each
# rect's (x, y) offset in units and its weight.
_TEMPLATE_UNITS = {
    "edge_h": (2, 1, ((0, 0, 1), (1, 0, -1))),
    "edge_v": (1, 2, ((0, 0, 1), (0, 1, -1))),
    "line_h": (3, 1, ((0, 0, 1), (1, 0, -2), (2, 0, 1))),
    "line_v": (1, 3, ((0, 0, 1), (0, 1, -2), (0, 2, 1))),
    "quad": (2, 2, ((0, 0, 1), (1, 0, -1), (0, 1, -1), (1, 1, 1))),
}
TEMPLATES = tuple(_TEMPLATE_UNITS)

MINING_BATCH = 16384
# Features whose corner coefficients are built per matmul in
# `WindowStack.table_matrix`. Bounds the coefficient buffer to about 14 MB
# for 20x20 windows; results do not depend on it.
FEATURE_BLOCK = 4096
# Feature rows per block of `StumpSearcher.best`. A block's temporaries stay
# in cache; results do not depend on it.
STUMP_BLOCK = 64
# Pool windows in the fixed FP probe, drawn across the whole pool grid.
PROBE_SIZE = 16384
# Share of the positives held out of boosting to calibrate stage thresholds.
CALIBRATION_SHARE = 0.25


@dataclass(frozen=True)
class TrainConfig:
    num_stages: int = 15
    min_detection_rate: float = 0.995
    max_fp_rate: float = 0.5
    max_weak_per_stage: int = 40
    feature_subsample: float = 1.0
    feature_min_size: int = 1
    feature_stride: int = 1
    negatives_per_stage: int | None = None
    variance_normalization: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.min_detection_rate <= 1.0:
            raise ValueError("min_detection_rate must be in (0, 1]")
        if not 0.0 < self.max_fp_rate < 1.0:
            raise ValueError("max_fp_rate must be in (0, 1)")
        if not 0.0 < self.feature_subsample <= 1.0:
            raise ValueError("feature_subsample must be in (0, 1]")
        if self.max_weak_per_stage < 1:
            raise ValueError("max_weak_per_stage must be >= 1")


def feature_table(win_w: int, win_h: int, min_size: int = 1, stride: int = 1,
                  templates: tuple[str, ...] = TEMPLATES) -> np.ndarray:
    """The Haar feature pool as an (n, 4, 5) int64 array.

    Row i holds feature i's rectangles as (x, y, w, h, weight); a feature
    with fewer than four rectangles is padded with all-zero rows. The five
    classical upright templates are enumerated in a fixed order: template,
    then unit size (a, b), then position (y, x). `min_size` is the smallest
    unit-rectangle side, `stride` the step for both positions and unit sizes.
    """
    if win_w < 2 or win_h < 2:
        raise ValueError("window must be at least 2x2")
    if min_size < 1:
        raise ValueError("min_size must be >= 1")
    blocks = [np.zeros((0, 4, 5), dtype=np.int64)]
    for template in templates:
        if template not in _TEMPLATE_UNITS:
            raise ValueError(f"unknown template {template!r}")
        units_w, units_h, rects = _TEMPLATE_UNITS[template]
        for a in range(min_size, win_w + 1, stride):
            if units_w * a > win_w:
                break
            for b in range(min_size, win_h + 1, stride):
                if units_h * b > win_h:
                    break
                ys, xs = np.mgrid[0 : win_h - units_h * b + 1 : stride,
                                  0 : win_w - units_w * a + 1 : stride]
                block = np.zeros((ys.size, 4, 5), dtype=np.int64)
                for k, (ux, uy, weight) in enumerate(rects):
                    block[:, k] = (ux * a, uy * b, a, b, weight)
                    block[:, k, 0] += xs.ravel()
                    block[:, k, 1] += ys.ravel()
                blocks.append(block)
    return np.concatenate(blocks)


def enumerate_features(win_w: int, win_h: int, min_size: int = 1,
                       stride: int = 1,
                       templates: tuple[str, ...] = TEMPLATES) -> list[HaarFeature]:
    """`feature_table` as a list of `HaarFeature`s, in the same order."""
    table = feature_table(win_w, win_h, min_size, stride, templates)
    return [_row_feature(rects) for rects in table.tolist()]


def _row_feature(rects: list[list[int]]) -> HaarFeature:
    """The `HaarFeature` of one feature-table row (as nested lists)."""
    return HaarFeature(tuple((Rect(x, y, w, h), weight)
                             for x, y, w, h, weight in rects if weight))


def _draw_features(n: int, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices of a random `fraction` of n features (all of them at 1)."""
    if fraction >= 1.0:
        return np.arange(n)
    idx = rng.choice(n, size=max(1, int(n * fraction)), replace=False)
    idx.sort()
    return idx


def _corner_coefficients(rows: np.ndarray, win_w: int, win_h: int) -> np.ndarray:
    """(features, (win_h+1)(win_w+1)) float64 matrix of each feature's summed
    rect-corner coefficients on a window's flattened padded plane, so that
    feature values are one matmul with the planes."""
    pitch = win_w + 1
    coef = np.zeros((len(rows), (win_h + 1) * pitch))
    feature = np.arange(len(rows))
    x, y, w, h, weight = np.moveaxis(rows, 2, 0)
    for k in range(rows.shape[1]):
        for dy, dx, sign in ((0, 0, 1), (0, 1, -1), (1, 0, -1), (1, 1, 1)):
            # One entry per feature, so no index repeats within a pass.
            corner = (y[:, k] + dy * h[:, k]) * pitch + x[:, k] + dx * w[:, k]
            coef[feature, corner] += sign * weight[:, k]
    return coef


class WindowStack:
    """Padded integral planes of a batch of same-size windows, stacked.

    Each window's (h+1) x (w+1) plane has the `IntegralImage.plane` layout,
    built by the same helper, and the planes are contiguous: window i's
    starts at flat offset i*(h+1)*(w+1), so each window is one origin on a
    flat plane of row pitch w+1. Cascade stages are scored there by
    `cascade.score_stage`, the kernel `eval_grid` scans with, and a feature
    matrix is one matmul of rect-corner coefficients with the planes. Plane
    entries and feature values are exact integers, so every result matches
    the scalar evaluation path bit for bit.
    """

    def __init__(self, windows: np.ndarray, variance_normalization: bool = True):
        if windows.ndim != 3:
            raise ValueError("windows must be (n, h, w)")
        n, h, w = windows.shape
        self.height, self.width = h, w
        self.plane = _padded_prefix_sums(windows).reshape(n, -1)
        self.origins = np.arange(n) * self.plane.shape[1]
        if variance_normalization:
            area = h * w
            s1 = self.plane[:, -1]
            px = windows.reshape(n, -1).astype(np.float64)
            s2 = np.einsum("ij,ij->i", px, px)
            var = s2 / area - (s1 / area) ** 2
            self.norms = np.where(var > 0, np.sqrt(np.maximum(var, 0.0)), 1.0)
        else:
            self.norms = np.ones(n, dtype=np.float64)

    def __len__(self) -> int:
        return self.plane.shape[0]

    def table_matrix(self, rows: np.ndarray, normalized: bool) -> np.ndarray:
        """(features x windows) values of the features in table `rows`,
        divided by the window norms if `normalized`."""
        values = np.empty((len(rows), len(self)))
        for lo in range(0, len(rows), FEATURE_BLOCK):
            block = rows[lo : lo + FEATURE_BLOCK]
            coef = _corner_coefficients(block, self.width, self.height)
            np.matmul(coef, self.plane.T, out=values[lo : lo + len(block)])
        if normalized:
            values /= self.norms
        return values

    def stage_scores(self, stage: Stage, index: np.ndarray | None = None) -> np.ndarray:
        """Stage scores of the windows numbered `index` (default: all)."""
        if index is None:
            index = np.arange(len(self))
        return score_stage(stage.corners, self.plane.ravel(), self.width + 1,
                           self.origins[index], self.norms[index])

    def cascade_pass(self, stages) -> np.ndarray:
        """Mask of the windows that pass every stage; each stage scores only
        the windows that passed the ones before it."""
        alive = np.arange(len(self))
        for stage in stages:
            if not alive.size:
                break
            alive = alive[~(self.stage_scores(stage, alive) < stage.threshold)]
        passed = np.zeros(len(self), dtype=bool)
        passed[alive] = True
        return passed


@dataclass(frozen=True)
class StumpSearchResult:
    feature_index: int
    threshold: float
    polarity: int
    error: float


class StumpSearcher:
    """Reusable sorted-prefix-sum stump search over a fixed value matrix.

    The sort is done once; each `best(weights)` call only gathers and scans
    cumulative sums, which is what makes boosting rounds cheap. Candidate
    thresholds sit on sample values (plus sentinels past the extremes),
    matching the strict comparisons used at evaluation time. Ties resolve to
    the lowest feature index, polarity +1 before -1, smaller cut first.

    `best` scans the features in blocks of `STUMP_BLOCK` rows, so each
    block's (rows x cuts) temporaries stay in cache. A block's winner
    replaces the running best only if its error is strictly lower, which
    keeps the lowest feature index across block edges; the result is the
    one a scan of the whole matrix at once gives.
    """

    def __init__(self, values: np.ndarray, positive: np.ndarray):
        self.values = values
        self.positive = positive
        self.order = np.argsort(values, axis=1, kind="stable")
        self.sorted_values = np.take_along_axis(values, self.order, axis=1)
        nf, ns = values.shape
        # Cut c splits sorted positions [0, c) | [c, ns); a cut inside a run
        # of equal values has no realizable threshold.
        self.valid = np.ones((nf, ns + 1), dtype=bool)
        self.valid[:, 1:ns] = self.sorted_values[:, :-1] != self.sorted_values[:, 1:]

    def best(self, weights: np.ndarray) -> StumpSearchResult:
        nf, ns = self.values.shape
        w_pos = np.where(self.positive, weights, 0.0)
        w_neg = np.where(self.positive, 0.0, weights)
        total_pos = w_pos.sum()
        total = total_pos + w_neg.sum()

        error, fi, cut = np.inf, 0, 0
        for lo in range(0, nf, STUMP_BLOCK):
            rows = slice(lo, lo + STUMP_BLOCK)
            order = self.order[rows]
            cpos = w_pos[order].cumsum(axis=1)
            cneg = w_neg[order].cumsum(axis=1)
            # Polarity +1 predicts positive on [c, ns); error at cut c.
            err_plus = np.empty((order.shape[0], ns + 1), dtype=np.float64)
            err_plus[:, 0] = total - total_pos
            err_plus[:, 1:] = cpos + (total - total_pos) - cneg
            err_minus = total - err_plus  # complementary split, polarity -1

            valid = self.valid[rows]
            err_plus = np.where(valid, err_plus, np.inf)
            err_minus = np.where(valid, err_minus, np.inf)
            at = np.arange(order.shape[0])
            cut_plus = np.argmin(err_plus, axis=1)
            cut_minus = np.argmin(err_minus, axis=1)
            e_plus = err_plus[at, cut_plus]
            e_minus = err_minus[at, cut_minus]
            # Polarity +1 wins ties, then the lowest feature index.
            minus = e_minus < e_plus
            per_feature = np.where(minus, e_minus, e_plus)
            j = int(np.argmin(per_feature))
            if per_feature[j] < error:
                error, fi = float(per_feature[j]), lo + j
                cut = (int(cut_minus[j]) + ns + 1 if minus[j]
                       else int(cut_plus[j]))
        sv = self.sorted_values[fi]
        if cut <= ns:
            polarity = 1
            threshold = float(sv[cut - 1]) if cut >= 1 else float(sv[0] - 1.0)
        else:
            polarity = -1
            c = cut - (ns + 1)
            threshold = float(sv[c]) if c < ns else float(sv[ns - 1] + 1.0)
        return StumpSearchResult(fi, threshold, polarity, error)


def _alpha(error: float) -> float:
    # Error floor keeps the vote scale finite on separable rounds (a
    # zero-error stump would otherwise freeze the weight distribution).
    eps = min(max(error, 1e-4), 0.5)
    beta = eps / (1.0 - eps)
    return math.log(1.0 / beta)


def _calibrate_threshold(pos_scores: np.ndarray,
                         min_detection_rate: float) -> float:
    pos_scores = np.sort(pos_scores)
    keep = math.ceil(min_detection_rate * pos_scores.size)
    return float(pos_scores[pos_scores.size - keep])


@dataclass(frozen=True)
class StageResult:
    stage: Stage
    detection_rate: float
    fp_rate: float
    target_met: bool


class _PoolProbe:
    """Fixed pool sample used to hold every stage to its FP target.

    Keeps stage scores for the still-alive windows incrementally, so checking
    a candidate threshold costs one comparison pass: each new weak classifier
    is scored on the alive windows as a one-weak stage, and its votes are
    added weak by weak, as `eval_window` adds them. The raw windows stay
    around because stages train on a sample of the still-alive ones.
    """

    def __init__(self, windows: np.ndarray, variance_normalization: bool):
        self.windows = windows
        self.stack = WindowStack(windows, variance_normalization)
        self.total = len(windows)
        self.alive = np.ones(self.total, dtype=bool)
        self.scores = np.zeros(self.total, dtype=np.float64)

    def begin_stage(self) -> None:
        self.scores = np.zeros(self.total, dtype=np.float64)

    def add_weak(self, weak: WeakClassifier) -> None:
        idx = np.flatnonzero(self.alive)
        if not idx.size:
            return
        self.scores[idx] += self.stack.stage_scores(Stage((weak,), 0.0), idx)

    def fp_rate(self, threshold: float) -> float:
        idx = np.flatnonzero(self.alive)
        if not idx.size:
            return 0.0
        return float((self.scores[idx] >= threshold).mean())

    def alive_scores(self) -> np.ndarray:
        return self.scores[self.alive]

    def commit_stage(self, threshold: float) -> float:
        idx = np.flatnonzero(self.alive)
        self.alive[idx[self.scores[idx] < threshold]] = False
        return float(self.alive.sum()) / self.total


def _boost_stage(matrix: np.ndarray, positive: np.ndarray, rows: np.ndarray,
                 cfg: TrainConfig, probe: _PoolProbe | None = None,
                 calibration: np.ndarray | None = None) -> StageResult:
    """Boost one stage over the columns of `matrix` (feature x sample), whose
    row i holds the values of the feature in table row `rows[i]`. Only the
    features boosting picks are built as `HaarFeature`s.

    `calibration` holds the feature values of positives that get no
    boosting weight: they never influence which stumps are chosen, but the
    stage threshold must keep the minimum detection rate over them too.
    """
    ns = matrix.shape[1]
    npos = int(positive.sum())
    weights = np.where(positive, 0.5 / npos, 0.5 / (ns - npos))
    searcher = StumpSearcher(matrix, positive)
    if calibration is None:
        calibration = np.empty((matrix.shape[0], 0))
    if probe is not None:
        probe.begin_stage()

    weak_list: list[WeakClassifier] = []
    scores = np.zeros(ns, dtype=np.float64)
    cal_scores = np.zeros(calibration.shape[1], dtype=np.float64)
    threshold = 0.0
    fp_rate = 1.0
    while len(weak_list) < cfg.max_weak_per_stage:
        weights = weights / weights.sum()
        found = searcher.best(weights)
        alpha = _alpha(found.error)
        weak = WeakClassifier(_row_feature(rows[found.feature_index].tolist()),
                              found.threshold, found.polarity, alpha, -alpha)
        weak_list.append(weak)

        row = matrix[found.feature_index]
        predicted_pos = found.polarity * (row - found.threshold) > 0
        correct = predicted_pos == positive
        eps = min(max(found.error, 1e-12), 0.5)
        weights = np.where(correct, weights * (eps / (1.0 - eps)), weights)

        scores += np.where(predicted_pos, alpha, -alpha)
        cal_row = calibration[found.feature_index]
        cal_scores += np.where(found.polarity * (cal_row - found.threshold) > 0,
                               alpha, -alpha)
        pos_scores = np.concatenate([scores[positive], cal_scores])
        threshold = _calibrate_threshold(pos_scores, cfg.min_detection_rate)
        neg_scores = scores[~positive]
        fp_rate = float((neg_scores >= threshold).mean()) if neg_scores.size else 0.0
        if probe is not None:
            probe.add_weak(weak)
            fp_rate = max(fp_rate, probe.fp_rate(threshold))
        if fp_rate <= cfg.max_fp_rate:
            break
        if found.error >= 0.5:
            break  # nothing separates the remaining negatives

    if fp_rate <= cfg.max_fp_rate:
        # Soften: take the lowest threshold that still meets the stage FP
        # target, instead of the detection-rate bound alone. The stage then
        # rejects only what it must, detection only improves, and ambiguous
        # windows are left for the later, more specific stages.
        neg_scores = np.sort(scores[~positive])
        probe_scores = (np.sort(probe.alive_scores()) if probe is not None
                        else np.empty(0))
        candidates = np.unique(np.concatenate(
            [neg_scores, probe_scores, [threshold]]))
        candidates = candidates[candidates <= threshold]
        fp_train = ((neg_scores.size - np.searchsorted(neg_scores, candidates))
                    / neg_scores.size) if neg_scores.size else np.zeros(len(candidates))
        fp_probe = ((probe_scores.size - np.searchsorted(probe_scores, candidates))
                    / probe_scores.size) if probe_scores.size else np.zeros(len(candidates))
        feasible = np.flatnonzero(
            np.maximum(fp_train, fp_probe) <= cfg.max_fp_rate)
        if feasible.size:
            i = feasible[0]  # ascending candidates: first is the softest
            threshold = float(candidates[i])
            fp_rate = float(max(fp_train[i], fp_probe[i]))

    detection = float((pos_scores >= threshold).mean())
    return StageResult(
        stage=Stage(tuple(weak_list), threshold),
        detection_rate=detection,
        fp_rate=fp_rate,
        target_met=fp_rate <= cfg.max_fp_rate,
    )


def _mining_batches(neg_images: list[GrayImage], win_w: int, win_h: int,
                    stride: int):
    """Yield window batches from the pool images at scales 1, 1.3 and 1.69.

    A fixed, detector-independent sampling of pool windows, batched by
    MINING_BATCH; the trainer itself mines on the detector grid instead
    (see `_PoolGrid`).
    """
    pending: list[np.ndarray] = []
    count = 0
    for img in neg_images:
        for scale in (1.0, 1.3, 1.69):
            w = int(img.width / scale)
            h = int(img.height / scale)
            if w < win_w or h < win_h:
                continue
            scaled = downscale(img, w, h) if scale != 1.0 else img
            view = np.lib.stride_tricks.sliding_window_view(
                scaled.pixels, (win_h, win_w)
            )[::stride, ::stride]
            wins = view.reshape(-1, win_h, win_w)
            pending.append(wins)
            count += len(wins)
            while count >= MINING_BATCH:
                block = np.concatenate(pending) if len(pending) > 1 else pending[0]
                yield np.ascontiguousarray(block[:MINING_BATCH])
                rest = block[MINING_BATCH:]
                pending = [rest] if len(rest) else []
                count = len(rest)
    if count:
        block = np.concatenate(pending) if len(pending) > 1 else pending[0]
        yield np.ascontiguousarray(block)


class _PoolGrid:
    """The windows the detector scans over the negative pool.

    Each pool image that holds a window is expanded once by the detector's
    `build_pyramid` at the default `PyramidConfig()`, keeping its levels up to
    the first one too small for a window. The windows of level raster r, at
    the detector's step of one pixel, are numbered in pool order (raster,
    then row, then column) from `offsets[r]`, so the probe sample and the
    mining scan share one numbering.

    Survivors are kept per raster across calls: stages only ever get
    appended, so a later scan evaluates just the new stages, and only on the
    windows that passed the earlier ones.
    """

    def __init__(self, neg_images: list[GrayImage], win_w: int, win_h: int):
        self.win_w, self.win_h = win_w, win_h
        self.rasters: list[GrayImage] = []
        for img in neg_images:
            if img.width < win_w or img.height < win_h:
                continue
            for level in build_pyramid(img, PyramidConfig()):
                if level.width < win_w or level.height < win_h:
                    break
                self.rasters.append(level)
        self.cols = np.array([r.width - win_w + 1 for r in self.rasters],
                             dtype=np.int64)
        rows = np.array([r.height - win_h + 1 for r in self.rasters],
                        dtype=np.int64)
        self.offsets = np.concatenate([[0], np.cumsum(self.cols * rows)])
        self._alive: list[np.ndarray | None] = [None] * len(self.rasters)
        self._passed = [0] * len(self.rasters)

    @property
    def size(self) -> int:
        return int(self.offsets[-1])

    def windows(self, index: np.ndarray) -> np.ndarray:
        """Pixels of the numbered windows, shape (n, win_h, win_w)."""
        out = np.empty((len(index), self.win_h, self.win_w), dtype=np.uint8)
        raster_of = np.searchsorted(self.offsets, index, side="right") - 1
        for i, (r, local) in enumerate(zip(raster_of, index - self.offsets[raster_of])):
            y, x = divmod(int(local), int(self.cols[r]))
            out[i] = self.rasters[r].pixels[y : y + self.win_h, x : x + self.win_w]
        return out

    def survivors(self, r: int, stages: list[Stage],
                  variance_normalization: bool) -> np.ndarray:
        """Numbers of raster r's windows that pass all of `stages`.

        The raster's integral planes are built for the call. Its first scan
        covers every window and goes through `eval_lattice`, as the detector
        scans a tile; a later one scores the kept survivors with `eval_grid`.
        """
        alive = self._alive[r]
        done = self._passed[r]
        if done < len(stages) and (alive is None or alive.size):
            ii = build_integral(self.rasters[r], with_squares=variance_normalization)
            new = Cascade(self.win_w, self.win_h, tuple(stages[done:]),
                          variance_normalization)
            if alive is None:
                alive = np.flatnonzero(eval_lattice(new, ii)[0])
            else:
                ys, xs = np.divmod(alive, self.cols[r])
                alive = alive[eval_grid(new, ii, xs, ys)[0]]
        elif alive is None:
            alive = np.arange(self.offsets[r + 1] - self.offsets[r])
        if stages:
            self._alive[r], self._passed[r] = alive, len(stages)
        return alive + self.offsets[r]


def _mine_negatives(stages: list[Stage], grid: _PoolGrid, needed: int,
                    exclude: np.ndarray,
                    variance_normalization: bool) -> np.ndarray:
    """First `needed` grid windows, in pool order, that pass all trained
    stages so far, skipping the numbered windows in sorted `exclude`."""
    found: list[np.ndarray] = []
    total = 0
    for r in range(len(grid.rasters)):
        index = grid.survivors(r, stages, variance_normalization)
        index = index[~np.isin(index, exclude, assume_unique=True)]
        found.append(index[: needed - total])
        total += len(found[-1])
        if total == needed:
            break
    return grid.windows(np.concatenate(found) if found else np.empty(0, np.int64))


@dataclass(frozen=True)
class StageLogRow:
    stage: int
    weak_count: int
    detection_rate: float
    fp_rate: float
    pool_fp_rate: float
    target_met: bool


@dataclass(frozen=True)
class TrainResult:
    cascade: Cascade
    log: tuple[StageLogRow, ...]
    pool_exhausted: bool

    def log_text(self) -> str:
        lines = ["stage,weak_count,detection_rate,fp_rate,pool_fp_rate,target_met"]
        for row in self.log:
            lines.append(
                f"{row.stage},{row.weak_count},{row.detection_rate:.6f},"
                f"{row.fp_rate:.6f},{row.pool_fp_rate:.6f},{int(row.target_met)}"
            )
        return "\n".join(lines) + "\n"


def train_cascade(pos: list[GrayImage], neg_pool: list[GrayImage],
                  cfg: TrainConfig) -> TrainResult:
    """Classical attentional loop with hard-negative mining from the pool.

    Negatives are the windows `detect` scans over the pool images at its
    default pyramid (`PyramidConfig()`) and step 1. A fixed probe of
    PROBE_SIZE of them, drawn across the whole pool, holds every stage to its
    FP target, so the per-stage log's surviving probe fraction decays like
    max_fp_rate^k. Stage k trains on the boosting positives plus negatives
    that pass stages 1..k-1: a sample of the probe's survivors, topped up by
    scanning the rest of the grid in pool order.

    A CALIBRATION_SHARE of the positives, fixed for the whole run, is left
    out of boosting and only bounds each stage threshold, so every stage
    keeps its detection rate on positives it was not fitted to.

    Training stops early when the pool yields fewer than
    max(10, negatives_per_stage // 10) passing negatives.
    """
    if len(pos) < 10:
        raise ValueError("need at least 10 positive samples")
    win_h, win_w = pos[0].pixels.shape
    rng = np.random.default_rng(cfg.seed)
    pos_windows = np.stack([p.pixels for p in pos])
    held = np.zeros(len(pos), dtype=bool)
    held[rng.choice(len(pos), size=int(len(pos) * CALIBRATION_SHARE),
                    replace=False)] = True
    cal_windows, pos_windows = pos_windows[held], pos_windows[~held]

    table = feature_table(win_w, win_h, cfg.feature_min_size, cfg.feature_stride)
    n_per_stage = cfg.negatives_per_stage or len(pos)

    grid = _PoolGrid(neg_pool, win_w, win_h)
    probe_index = np.sort(rng.choice(grid.size, size=min(PROBE_SIZE, grid.size),
                                     replace=False))
    probe = _PoolProbe(grid.windows(probe_index), cfg.variance_normalization)

    stages: list[Stage] = []
    log: list[StageLogRow] = []
    pool_exhausted = False
    for k in range(cfg.num_stages):
        alive_idx = np.flatnonzero(probe.alive)
        take = min(alive_idx.size, n_per_stage)
        chosen = rng.choice(alive_idx, size=take, replace=False)
        chosen.sort()
        parts = [probe.windows[chosen]]
        if take < n_per_stage:
            parts.append(_mine_negatives(stages, grid, n_per_stage - take,
                                         probe_index, cfg.variance_normalization))
        neg_windows = np.concatenate(parts)
        if len(neg_windows) < max(10, n_per_stage // 10):
            pool_exhausted = True
            break

        rows = table[_draw_features(len(table), cfg.feature_subsample, rng)]
        windows = np.concatenate([pos_windows, neg_windows, cal_windows])
        ns = len(pos_windows) + len(neg_windows)
        positive = np.zeros(ns, dtype=bool)
        positive[: len(pos_windows)] = True
        stack = WindowStack(windows, cfg.variance_normalization)
        matrix = stack.table_matrix(rows, cfg.variance_normalization)
        result = _boost_stage(matrix[:, :ns], positive, rows, cfg,
                              probe=probe, calibration=matrix[:, ns:])
        stages.append(result.stage)

        pool_fp = probe.commit_stage(result.stage.threshold)
        log.append(StageLogRow(k + 1, len(result.stage.weak),
                               result.detection_rate, result.fp_rate,
                               pool_fp, result.target_met))

    if not stages:
        raise ValueError("no stage could be trained (empty negative pool?)")
    cascade = Cascade(win_w, win_h, tuple(stages), cfg.variance_normalization)
    return TrainResult(cascade, tuple(log), pool_exhausted)
