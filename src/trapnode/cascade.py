"""Haar-feature cascade classifier: model types, window evaluation, file format.

A cascade is an ordered list of stages; each stage sums the votes of its weak
classifiers and rejects the window as soon as one stage score falls below the
stage threshold. Feature values are exact integers; stage scores are floats.

Cascade files are versioned JSON with the following normative field names::

    {
      "version": 1,
      "window": {"w": 20, "h": 20},
      "variance_normalization": true,
      "stages": [
        {"threshold": -1.25,
         "weak": [
           {"rects": [{"x":0,"y":0,"w":4,"h":8,"weight":1}, ...],
            "threshold": 152.0, "polarity": 1,
            "vote_pass": 0.9, "vote_fail": -0.9}
         ]}
      ]
    }

Window sizes, rect fields and polarities are integers, and thresholds and
votes finite numbers. A file that breaks the format raises a subclass of
`CascadeFormatError`.
"""

from __future__ import annotations

import functools
import json
import reprlib
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .integral import IntegralImage, Rect, RectOutOfBounds, rect_sum

FORMAT_VERSION = 1

# Surviving windows scored per gather in eval_grid, and about the origins
# per row band in eval_lattice. Bounds the (windows x corners) index and
# value buffers to a few MB; results do not depend on it.
GRID_BLOCK = 16_384


class CascadeFormatError(ValueError):
    """Base class for cascade file violations."""


class MissingField(CascadeFormatError):
    pass


class EmptyStage(CascadeFormatError):
    pass


class RectOutOfWindow(CascadeFormatError):
    pass


class BadFieldValue(CascadeFormatError):
    pass


@dataclass(frozen=True)
class HaarFeature:
    """2-4 signed-weighted rectangles in base-window coordinates.

    The weighted areas must cancel (zero-mean template) so the response to a
    constant image is zero.
    """

    rects: tuple[tuple[Rect, int], ...]

    def __post_init__(self):
        if not 2 <= len(self.rects) <= 4:
            raise ValueError(f"feature needs 2-4 rects, got {len(self.rects)}")
        balance = sum(w * r.area for r, w in self.rects)
        if balance != 0:
            raise ValueError(f"weighted areas must cancel, got {balance}")


@dataclass(frozen=True)
class WeakClassifier:
    """Single-feature stump: vote_pass if polarity*(value - threshold*norm) > 0."""

    feature: HaarFeature
    threshold: float
    polarity: int
    vote_pass: float
    vote_fail: float

    def __post_init__(self):
        if self.polarity not in (-1, 1):
            raise ValueError(f"polarity must be +/-1, got {self.polarity}")


class StageCorners(NamedTuple):
    """A stage compiled for `eval_grid`.

    Every rectangle sum on a padded plane is four signed corner reads, so a
    weak classifier's feature value is an integer combination of corners at
    fixed offsets from the window origin. `dy`/`dx` are the distinct corners
    of all the stage's weak classifiers, and `coef[i, j]` is weak j's summed
    coefficient at corner i (an edge feature has 6 corners, a line feature 8,
    a quad 9). The other fields hold each weak's stump parameters.
    """

    dy: np.ndarray          # (corners,) int64
    dx: np.ndarray          # (corners,) int64
    coef: np.ndarray        # (corners, weaks) float64, integer-valued
    threshold: np.ndarray   # (weaks,) float64
    polarity: np.ndarray    # (weaks,) float64, +/-1
    vote_pass: np.ndarray   # (weaks,) float64
    vote_fail: np.ndarray   # (weaks,) float64


@dataclass(frozen=True)
class Stage:
    weak: tuple[WeakClassifier, ...]
    threshold: float

    def __post_init__(self):
        if not self.weak:
            raise ValueError("stage must contain at least one weak classifier")

    @functools.cached_property
    def corners(self) -> StageCorners:
        """The stage compiled to corner offsets, built on first use."""
        merged: dict[tuple[int, int], dict[int, int]] = {}
        for j, weak in enumerate(self.weak):
            for r, weight in weak.feature.rects:
                for dy, dx, sign in ((r.y, r.x, 1), (r.y, r.x + r.w, -1),
                                     (r.y + r.h, r.x, -1), (r.y + r.h, r.x + r.w, 1)):
                    at = merged.setdefault((dy, dx), {})
                    at[j] = at.get(j, 0) + sign * weight
        # Feature values come out of float64 sums; they stay exact integers
        # while every partial sum is below 2^53, i.e. plane entries < 2^32
        # (the MAX_PIXELS guard) times summed |coefficients| < 2^21. Checked
        # on the integer coefficients, before any becomes a float.
        weight = [0] * len(self.weak)
        for at in merged.values():
            for j, k in at.items():
                weight[j] += abs(k)
        if max(weight) >= 1 << 21:
            raise ValueError("feature weights too large for exact evaluation")
        # Corners whose coefficients all cancel are never read. Row-major
        # order keeps each window's reads ascending in memory.
        keep = sorted(yx for yx, at in merged.items() if any(at.values()))
        coef = np.zeros((len(keep), len(self.weak)))
        for i, yx in enumerate(keep):
            for j, k in merged[yx].items():
                coef[i, j] = k
        dy, dx = np.array(keep, dtype=np.int64).reshape(-1, 2).T
        params = np.array([(w.threshold, w.polarity, w.vote_pass, w.vote_fail)
                           for w in self.weak], dtype=np.float64).T
        return StageCorners(dy, dx, coef, *params)


@dataclass(frozen=True)
class Cascade:
    window_w: int
    window_h: int
    stages: tuple[Stage, ...]
    variance_normalization: bool = True

    def __post_init__(self):
        if not self.stages:
            raise ValueError("cascade must contain at least one stage")
        for stage in self.stages:
            for weak in stage.weak:
                for rect, _ in weak.feature.rects:
                    if rect.x + rect.w > self.window_w or rect.y + rect.h > self.window_h:
                        raise ValueError(
                            f"feature rect {rect} outside "
                            f"{self.window_w}x{self.window_h} window"
                        )

    def num_weak(self) -> int:
        return sum(len(s.weak) for s in self.stages)

    def size_bytes(self) -> int:
        """Serialized parameter footprint under the packed accounting below.

        Per rect: 5 bytes (x, y, w, h, weight as int8). Per weak classifier:
        rects + 4 (threshold) + 1 (polarity) + 8 (two float32 votes). Per
        stage: weaks + 4 (threshold) + 2 (weak count). Plus an 8-byte header.
        """
        total = 8
        for stage in self.stages:
            total += 6
            for weak in stage.weak:
                total += 13 + 5 * len(weak.feature.rects)
        return total


@dataclass(frozen=True)
class WindowEval:
    """Outcome of evaluating one window: accept, or reject at `stage`."""

    accepted: bool
    stage: int
    score: float


def feature_value(f: HaarFeature, ii: IntegralImage, origin: tuple[int, int]) -> int:
    """Signed-weighted sum of the feature's rectangle sums at `origin`."""
    ox, oy = origin
    return sum(weight * rect_sum(ii, Rect(ox + r.x, oy + r.y, r.w, r.h))
               for r, weight in f.rects)


def window_norm(ii: IntegralImage, x: int, y: int, w: int, h: int) -> float:
    """Intensity standard deviation of a window (1.0 for flat windows)."""
    if ii.squares is None:
        raise ValueError("variance normalization needs squared sums")
    n = w * h
    s1 = rect_sum(ii, Rect(x, y, w, h))
    s2 = rect_sum(IntegralImage(ii.squares), Rect(x, y, w, h))
    var = s2 / n - (s1 / n) ** 2
    return float(np.sqrt(var)) if var > 0 else 1.0


def eval_window(c: Cascade, ii: IntegralImage, origin: tuple[int, int]) -> WindowEval:
    """Run the cascade on one window; stops at the first rejecting stage.

    The returned score is the margin of the last evaluated stage
    (stage score minus stage threshold).
    """
    x, y = origin
    if x < 0 or y < 0 or x + c.window_w > ii.width or y + c.window_h > ii.height:
        raise RectOutOfBounds(
            f"window origin ({x},{y}) outside {ii.width}x{ii.height} raster"
        )
    norm = window_norm(ii, x, y, c.window_w, c.window_h) if c.variance_normalization else 1.0
    margin = 0.0
    for k, stage in enumerate(c.stages):
        score = 0.0
        for weak in stage.weak:
            value = feature_value(weak.feature, ii, origin)
            if weak.polarity * (value - weak.threshold * norm) > 0:
                score += weak.vote_pass
            else:
                score += weak.vote_fail
        margin = score - stage.threshold
        if score < stage.threshold:
            return WindowEval(False, k, margin)
    return WindowEval(True, len(c.stages) - 1, margin)


def eval_grid(c: Cascade, ii: IntegralImage, xs: np.ndarray, ys: np.ndarray):
    """Vectorized cascade evaluation at many window origins.

    Reads `ii`'s padded planes in place. Each stage is scored on the windows
    that passed the stages before it: one flat gather reads the corners of
    `Stage.corners` at every surviving origin, and one matmul with its
    coefficient matrix gives every weak classifier's feature value. Windows
    are gathered in blocks of GRID_BLOCK. Returns (accepted bool array,
    rejecting/last stage index int32 array, float64 margin array),
    bit-identical in decision and score to per-window eval_window.

    `eval_lattice` scores a full origin lattice with the same results.
    """
    n = xs.shape[0]
    plane = ii.plane.ravel()
    stride = ii.plane.shape[1]
    base = ys * stride + xs
    if c.variance_normalization:
        _require_squares(ii)
        h_rows = c.window_h * stride
        norms = _norms(_window_sums(plane, base, c.window_w, h_rows),
                       _window_sums(ii.squares.ravel(), base, c.window_w, h_rows),
                       c.window_w * c.window_h)
    else:
        norms = np.ones(n, dtype=np.float64)
    result = _grid_result(n)
    _score_sparse(c.stages, 0, plane, stride, np.arange(n), base, norms, *result)
    return result


def eval_lattice(c: Cascade, ii: IntegralImage, step: int = 1):
    """`eval_grid` at every window origin of `ii` on a lattice of pitch `step`.

    The origins are x in range(0, width - window_w + 1, step) and y likewise,
    in row-major order (y, then x), and the result is what `eval_grid`
    returns for them, bit for bit. Every window is alive in the variance
    norms and in stage 0, so there each corner read is a strided 2-D view of
    a padded plane, `plane[dy::step, dx::step]` cut to the lattice, and a
    weak's value the sum of its corner views times their coefficients: no
    index arrays and no gathers. Stage 0's survivors go on to the sparse
    stage loop of `eval_grid`. The lattice is scored in bands of whole rows
    of about GRID_BLOCK origins, so temporaries stay bounded on any raster.

    The planes hold integers below 2^53 and the coefficients are integers,
    so any summation order gives the same feature values; the norms keep
    `_window_sums`' order of operations, and votes are added onto zeros
    weak by weak, as `eval_window` adds them.
    """
    if step < 1:
        raise ValueError("step must be >= 1")
    nx = len(range(0, ii.width - c.window_w + 1, step))
    ny = len(range(0, ii.height - c.window_h + 1, step))
    result = accepted, _, margins = _grid_result(nx * ny)
    if nx * ny == 0:
        return result
    if c.variance_normalization:
        _require_squares(ii)
    threshold = c.stages[0].threshold
    band = -(-ny // max(1, round(nx * ny / GRID_BLOCK)))  # rows per band
    alive, alive_norms = [], []
    for r0 in range(0, ny, band):
        rows = min(band, ny - r0)
        scores, norms = _dense_stage(c, ii, r0 * step, rows, nx, step)
        out = slice(r0 * nx, (r0 + rows) * nx)
        margins[out] = (scores - threshold).ravel()
        accepted[out] = ~(scores < threshold).ravel()
        keep = np.flatnonzero(accepted[out])
        alive.append(out.start + keep)
        alive_norms.append(norms.ravel()[keep])
    alive = np.concatenate(alive)
    stride = ii.plane.shape[1]
    row, col = np.divmod(alive, nx)
    _score_sparse(c.stages[1:], 1, ii.plane.ravel(), stride, alive,
                  row * (step * stride) + col * step, np.concatenate(alive_norms),
                  *result)
    return result


def _dense_stage(c: Cascade, ii: IntegralImage, y0: int, rows: int, nx: int,
                 step: int) -> tuple[np.ndarray, np.ndarray]:
    """Stage 0's scores and the variance norms, each (rows, nx), of the
    lattice windows whose origins are rows y0, y0 + step, ... of `ii`."""

    def at(plane: np.ndarray, dy: int, dx: int) -> np.ndarray:
        y = y0 + dy
        return plane[y : y + (rows - 1) * step + 1 : step,
                     dx : dx + (nx - 1) * step + 1 : step]

    def window_sums(plane: np.ndarray) -> np.ndarray:
        w, h = c.window_w, c.window_h
        sums = at(plane, h, w) - at(plane, 0, w)
        sums -= at(plane, h, 0)
        sums += at(plane, 0, 0)
        return sums

    if c.variance_normalization:
        norms = _norms(window_sums(ii.plane), window_sums(ii.squares),
                       c.window_w * c.window_h)
    else:
        norms = np.ones((rows, nx), dtype=np.float64)
    sc = c.stages[0].corners
    scores = np.zeros((rows, nx), dtype=np.float64)
    value = np.empty((rows, nx), dtype=np.float64)
    term = np.empty((rows, nx), dtype=np.float64)
    for j in range(sc.coef.shape[1]):
        value.fill(0.0)
        for i in np.flatnonzero(sc.coef[:, j]):
            k, view = sc.coef[i, j], at(ii.plane, sc.dy[i], sc.dx[i])
            if k == 1:
                value += view
            elif k == -1:
                value -= view
            else:
                value += np.multiply(view, k, out=term)
        value -= np.multiply(norms, sc.threshold[j], out=term)
        # polarity * (value - threshold * norm) > 0, with polarity +/-1.
        passed = value > 0 if sc.polarity[j] > 0 else value < 0
        # Onto zeros, weak by weak, as score_stage adds the votes.
        scores += np.where(passed, sc.vote_pass[j], sc.vote_fail[j])
    return scores, norms


def _require_squares(ii: IntegralImage) -> None:
    if ii.squares is None:
        raise ValueError("variance normalization needs squared sums")


def _norms(s1: np.ndarray, s2: np.ndarray, area: int) -> np.ndarray:
    """Window standard deviations from pixel and squared-pixel sums (1.0
    where the variance is not positive), as `window_norm` computes them."""
    var = s2 / area - (s1 / area) ** 2
    return np.sqrt(var, where=var > 0, out=np.ones_like(var))


def _grid_result(n: int):
    """`eval_grid`'s result arrays for n windows before any stage: all
    accepted, at stage 0, with zero margins."""
    return (np.ones(n, dtype=bool), np.zeros(n, dtype=np.int32),
            np.zeros(n, dtype=np.float64))


def _score_sparse(stages, first: int, plane: np.ndarray, stride: int,
                  alive: np.ndarray, base: np.ndarray, norms: np.ndarray,
                  accepted: np.ndarray, stage_idx: np.ndarray,
                  margins: np.ndarray) -> None:
    """Run `stages`, numbered from `first`, on the windows numbered `alive`
    (flat origins `base`, variance norms `norms`), each stage on the
    survivors of the one before, writing `eval_grid`'s results at those
    numbers."""
    for k, stage in enumerate(stages, first):
        if alive.size == 0:
            break
        scores = score_stage(stage.corners, plane, stride, base, norms)
        margins[alive] = scores - stage.threshold
        stage_idx[alive] = k
        rejected = scores < stage.threshold
        accepted[alive[rejected]] = False
        keep = ~rejected
        alive, base, norms = alive[keep], base[keep], norms[keep]


def _window_sums(flat: np.ndarray, base: np.ndarray, w: int, h_rows: int) -> np.ndarray:
    """Window sums at flat origins `base`; `h_rows` is window height x stride."""
    return (flat.take(base + h_rows + w) - flat.take(base + w)
            - flat.take(base + h_rows) + flat.take(base))


def score_stage(sc: StageCorners, plane: np.ndarray, stride: int,
                base: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """One stage's score at the windows with flat origins `base`.

    `plane` is a flat float64 padded plane of row pitch `stride`, `norms`
    the windows' variance norms (ones when normalization is off).

    Works on (corners or weaks) x windows blocks, so each weak's values,
    test and votes are contiguous rows.
    """
    offsets = (sc.dy * stride + sc.dx)[:, None]
    threshold, polarity = sc.threshold[:, None], sc.polarity[:, None]
    vote_pass, vote_fail = sc.vote_pass[:, None], sc.vote_fail[:, None]
    scores = np.zeros(base.size, dtype=np.float64)
    for lo in range(0, base.size, GRID_BLOCK):
        hi = lo + GRID_BLOCK
        values = sc.coef.T @ plane.take(offsets + base[lo:hi])
        passed = polarity * (values - threshold * norms[lo:hi]) > 0
        votes = np.where(passed, vote_pass, vote_fail)
        # Onto zeros, weak by weak in cascade order, as eval_window adds the
        # votes: a numpy sum over the weaks may add them in another order
        # and change margins in the last bit.
        out = scores[lo:hi]
        for row in votes:
            out += row
    return scores


def _require(mapping: dict, key: str, context: str):
    if not isinstance(mapping, dict):
        raise BadFieldValue(f"{context} must be a JSON object, "
                            f"got {reprlib.repr(mapping)}")
    if key not in mapping:
        raise MissingField(f"{context} is missing field {key!r}")
    return mapping[key]


_KIND_NAMES = {list: "a list", bool: "true or false", int: "an integer",
               float: "a finite number"}


def _field(mapping: dict, key: str, context: str, kind: type):
    """`mapping[key]`, which must be a JSON value of `kind`: a list, a bool,
    an int (a bool is not one) or a float (any finite number, returned as a
    float)."""
    value = _require(mapping, key, context)
    if kind is float:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and abs(value) <= sys.float_info.max)
    else:
        ok = isinstance(value, kind) and isinstance(value, bool) == (kind is bool)
    if not ok:
        raise BadFieldValue(f"{context}: {key} must be "
                            f"{_KIND_NAMES[kind]}, got {reprlib.repr(value)}")
    return float(value) if kind is float else value


def cascade_to_json(c: Cascade) -> str:
    doc = {
        "version": FORMAT_VERSION,
        "window": {"w": c.window_w, "h": c.window_h},
        "variance_normalization": c.variance_normalization,
        "stages": [
            {
                "threshold": stage.threshold,
                "weak": [
                    {
                        "rects": [
                            {"x": r.x, "y": r.y, "w": r.w, "h": r.h, "weight": w}
                            for r, w in weak.feature.rects
                        ],
                        "threshold": weak.threshold,
                        "polarity": weak.polarity,
                        "vote_pass": weak.vote_pass,
                        "vote_fail": weak.vote_fail,
                    }
                    for weak in stage.weak
                ],
            }
            for stage in c.stages
        ],
    }
    return json.dumps(doc, indent=1)


def cascade_from_json(text: str) -> Cascade:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CascadeFormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise CascadeFormatError("not valid JSON: nested too deeply") from None
    version = _field(doc, "version", "cascade", int)
    if version != FORMAT_VERSION:
        raise BadFieldValue(f"unsupported cascade version {version}")
    window = _require(doc, "window", "cascade")
    win_w = _field(window, "w", "window", int)
    win_h = _field(window, "h", "window", int)
    varnorm = _field(doc, "variance_normalization", "cascade", bool)
    stages_doc = _field(doc, "stages", "cascade", list)
    if not stages_doc:
        raise EmptyStage("cascade has no stages")

    stages = []
    for si, sdoc in enumerate(stages_doc):
        weak_doc = _field(sdoc, "weak", f"stage {si}", list)
        if not weak_doc:
            raise EmptyStage(f"stage {si} has no weak classifiers")
        weaks = []
        for wi, wdoc in enumerate(weak_doc):
            ctx = f"stage {si} weak {wi}"
            rects = []
            for rdoc in _field(wdoc, "rects", ctx, list):
                x, y, w, h, weight = (_field(rdoc, key, ctx, int)
                                      for key in ("x", "y", "w", "h", "weight"))
                try:
                    rect = Rect(x, y, w, h)
                except ValueError as exc:
                    raise BadFieldValue(f"{ctx}: {exc}") from None
                if rect.x + rect.w > win_w or rect.y + rect.h > win_h:
                    raise RectOutOfWindow(f"{ctx}: rect {rect} outside window")
                rects.append((rect, weight))
            stump = [_field(wdoc, key, ctx, kind) for key, kind in (
                ("threshold", float), ("polarity", int),
                ("vote_pass", float), ("vote_fail", float))]
            try:
                weaks.append(WeakClassifier(HaarFeature(tuple(rects)), *stump))
            except ValueError as exc:
                raise BadFieldValue(f"{ctx}: {exc}") from None
        stage = Stage(tuple(weaks), _field(sdoc, "threshold", f"stage {si}", float))
        try:
            stage.corners  # compiled now, so its weight bound is a format error
        except ValueError as exc:
            raise BadFieldValue(f"stage {si}: {exc}") from None
        stages.append(stage)
    return Cascade(win_w, win_h, tuple(stages), varnorm)


def save_cascade(c: Cascade, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(cascade_to_json(c))


def load_cascade(path) -> Cascade:
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise CascadeFormatError(f"not ASCII text: {exc}") from None
    return cascade_from_json(text)
