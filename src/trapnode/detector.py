"""Multi-scale detection pipeline: pyramid, scratchpad-budgeted tiling,
window scan, coordinate remapping, dedup, and size filtering.

Each tile is scanned by `cascade.eval_lattice`, which scores the windows
the tile owns at the scan step: the variance norms and stage 0 on strided
views of the tile's integral planes, the later stages on the survivors from
corner offsets compiled once per cascade stage. Every level's tiles are
planned from `pyramid_dims` and validated before any scan; the pyramid is
then built and the tiles are scanned one after another in the calling
thread. Hits stay in numpy columns through the remap, the ordering and the
optional IoU grouping, and `Detection` objects are built only for the rows
that are returned, so the result is a pure function of (image, cascade,
config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cascade import Cascade, eval_lattice
from .imaging import GrayImage, downscale
from .integral import Rect, build_integral

# Tile widths/strides snap down to this alignment when the budget binds, so
# every tile row starts word-aligned in the source raster (1-byte pixels).
TILE_ALIGN = 4

_BYTES_PER_PIXEL = {
    "ii_only": 4,
    "ii_plus_input": 5,
    "ii_plus_input_plus_squares": 13,
}


class BudgetTooSmall(ValueError):
    """Scratch budget cannot hold even one window-sized tile."""


@dataclass(frozen=True)
class PyramidConfig:
    scale_factor: float = 1.1
    num_levels: int = 5
    max_detection_px: int = 30

    def __post_init__(self):
        if not 1.0 < self.scale_factor < math.inf:
            raise ValueError(f"scale_factor must be a finite number > 1, "
                             f"got {self.scale_factor}")
        if self.num_levels < 1:
            raise ValueError("num_levels must be >= 1")


@dataclass(frozen=True)
class ScratchBudget:
    """L1-equivalent working-set limit and its accounting mode.

    ii_only charges 4 B/px (the MCU's uint32 tile integral image, not the
    host's float64 plane); ii_plus_input adds the 1 B/px input tile;
    ii_plus_input_plus_squares also charges the 8 B/px squared-sum plane.

    Modelling assumption: the default ii_only leaves out the squared-sum
    plane that a variance-normalised cascade needs, so it charges less than
    such a cascade holds. The acceptance plan of full-height 100-px tiles
    on a 320x240 frame at the 99,600 B default (criterion 04:
    100 x 240 x 4 = 96,000 B) rests on that mode.
    """

    bytes: int = 99_600
    mode: str = "ii_only"

    def __post_init__(self):
        if self.mode not in _BYTES_PER_PIXEL:
            raise ValueError(f"unknown accounting mode {self.mode!r}")
        if self.bytes <= 0:
            raise ValueError("budget must be positive")

    @property
    def bytes_per_pixel(self) -> int:
        return _BYTES_PER_PIXEL[self.mode]


@dataclass(frozen=True)
class TileSpec:
    """One tile of a level raster plus its ownership (core) region.

    `core` is the set of window origins this tile is responsible for; core
    regions of a level's tiles partition the raster, which removes
    cross-tile duplicate windows without changing single-tile semantics.
    """

    x: int
    y: int
    w: int
    h: int
    core: Rect


@dataclass(frozen=True)
class Detection:
    bbox: Rect
    level: int
    score: float


def pyramid_dims(width: int, height: int,
                 cfg: PyramidConfig) -> list[tuple[int, int]]:
    """(width, height) of each pyramid level of a width x height image:
    level s is (floor(W/f^s), floor(H/f^s)), level 0 the input."""
    dims = [(width, height)]
    for s in range(1, cfg.num_levels):
        f = cfg.scale_factor ** s
        w = int(width / f)
        h = int(height / f)
        if w < 1 or h < 1:
            raise ValueError(f"image too small for {cfg.num_levels} pyramid levels")
        dims.append((w, h))
    return dims


def build_pyramid(img: GrayImage, cfg: PyramidConfig) -> list[GrayImage]:
    """The pyramid levels at `pyramid_dims`; level 0 is the input."""
    dims = pyramid_dims(img.width, img.height, cfg)
    return [img] + [downscale(img, w, h) for w, h in dims[1:]]


def _axis_origins(extent: int, tile: int, overlap: int) -> list[int]:
    if tile >= extent:
        return [0]
    stride = tile - overlap
    origins = [0]
    while origins[-1] + tile < extent:
        origins.append(origins[-1] + stride)
    return origins


def _align_down(v: int, quantum: int) -> int:
    return (v // quantum) * quantum


def plan_tiles(level_w: int, level_h: int, budget: ScratchBudget,
               overlap: int = 20, window: tuple[int, int] = (20, 20)) -> list[TileSpec]:
    """Cover a level raster with budget-sized tiles.

    Tiles take the full column height when the budget permits, otherwise rows
    of tiles with vertical overlap. Widths are the largest affordable value,
    snapped down to TILE_ALIGN when the budget binds; horizontal stride is
    width - overlap. Tiles are ordered left-to-right, top-to-bottom.

    Each tile's core region covers the window origins from its own origin up
    to the next tile's origin (the last tile reaches the raster edge), so the
    overlap strip shared by two tiles is owned by the later one. A window
    owned by a tile fits inside it only if `overlap` >= max(window) - 1, so a
    smaller overlap is rejected.
    """
    win_w, win_h = window
    if overlap < max(window) - 1:
        raise ValueError(f"overlap {overlap} is below window size - 1 = "
                         f"{max(window) - 1}; tile edges would lose windows")
    bpp = budget.bytes_per_pixel
    if win_w * win_h * bpp > budget.bytes:
        raise BudgetTooSmall(
            f"budget {budget.bytes} B cannot hold a {win_w}x{win_h} tile "
            f"at {bpp} B/px"
        )
    min_w = max(win_w, overlap + 1)
    min_h = max(win_h, overlap + 1)

    # Column height first: full height if any usable width is affordable.
    tile_h = min(level_h, budget.bytes // (bpp * min(min_w, level_w)))
    if tile_h < level_h:
        tile_h = max(_align_down(tile_h, TILE_ALIGN), min(min_h, level_h))
    if tile_h * min(min_w, level_w) * bpp > budget.bytes:
        raise BudgetTooSmall(
            f"budget {budget.bytes} B too small for a usable tile of "
            f"{level_w}x{level_h} at {bpp} B/px"
        )
    tile_w = min(level_w, budget.bytes // (bpp * tile_h))
    if tile_w < level_w:
        tile_w = max(_align_down(tile_w, TILE_ALIGN), min(min_w, level_w))

    xs = _axis_origins(level_w, tile_w, overlap)
    ys = _axis_origins(level_h, tile_h, overlap)
    tiles = []
    for yi, ty in enumerate(ys):
        next_ty = ys[yi + 1] if yi + 1 < len(ys) else level_h
        th = min(tile_h, level_h - ty)
        for xi, tx in enumerate(xs):
            next_tx = xs[xi + 1] if xi + 1 < len(xs) else level_w
            tw = min(tile_w, level_w - tx)
            core = Rect(tx, ty, next_tx - tx, next_ty - ty)
            tiles.append(TileSpec(tx, ty, tw, th, core))
    return tiles


def scan_tile(c: Cascade, tile_pixels: GrayImage, step: int = 1) -> np.ndarray:
    """Evaluate every window of a tile at the given stride.

    Builds the tile-local integral image(s), scores the window lattice with
    `cascade.eval_lattice`, and returns the accepted windows
    as an (n, 3) float64 array of tile-local (x, y, margin) rows, where
    margin is the final-stage score minus its threshold. Rows follow scan
    order: y, then x, ascending. A tile smaller than the window yields no
    rows.
    """
    if step < 1:
        raise ValueError("step must be >= 1")
    if tile_pixels.width < c.window_w or tile_pixels.height < c.window_h:
        return np.empty((0, 3))
    ii = build_integral(tile_pixels, with_squares=c.variance_normalization)
    accepted, _, margins = eval_lattice(c, ii, step)
    idx = np.flatnonzero(accepted)
    ys, xs = np.divmod(idx, len(range(0, tile_pixels.width - c.window_w + 1, step)))
    return np.column_stack((xs * step, ys * step, margins[idx]))


def _scan_level_tile(cascade: Cascade, level_img: GrayImage, tile: TileSpec,
                     step: int) -> np.ndarray:
    """Level-raster (x, y, margin) rows of a tile's hits at the window
    origins it owns: those of its core on the level's lattice of pitch
    `step`. The block scanned starts at the first of them and ends a window
    past the core's end, inside the tile since `plan_tiles` holds the
    overlap to at least the window size - 1."""
    core = tile.core
    x0, y0 = -(-core.x // step) * step, -(-core.y // step) * step
    x1 = min(core.x + core.w + cascade.window_w - 1, tile.x + tile.w)
    y1 = min(core.y + core.h + cascade.window_h - 1, tile.y + tile.h)
    if x1 - x0 < cascade.window_w or y1 - y0 < cascade.window_h:
        return np.empty((0, 3))
    hits = scan_tile(cascade, GrayImage(level_img.pixels[y0:y1, x0:x1]), step)
    hits[:, :2] += (x0, y0)
    return hits


def _group_by_iou(rows: np.ndarray, thr: float) -> np.ndarray:
    """Ascending indices of the (x, y, side, level, score) rows that greedy
    grouping keeps: the highest-scoring box, ties broken by (level, y, x)
    and then by row order, is kept, every box overlapping it by IoU >= thr
    is dropped, and the rest are grouped again.

    The IoU of two integer boxes is an integer intersection over an integer
    union below 2^53, and int64 true division rounds it exactly as
    `evaluator.iou` does, so the `< thr` tests agree with it.
    """
    x, y, side, level = rows[:, :4].astype(np.int64).T
    rest = np.lexsort((x, y, level, -rows[:, 4]))
    kept = []
    while rest.size:
        i, rest = rest[0], rest[1:]
        kept.append(i)
        iw = np.minimum(x[i] + side[i], x[rest] + side[rest]) - np.maximum(x[i], x[rest])
        ih = np.minimum(y[i] + side[i], y[rest] + side[rest]) - np.maximum(y[i], y[rest])
        inter = np.maximum(iw, 0) * np.maximum(ih, 0)
        rest = rest[inter / (side[i] ** 2 + side[rest] ** 2 - inter) < thr]
    return np.sort(np.array(kept, dtype=np.intp))


def detect(img: GrayImage, c: Cascade,
           cfg: PyramidConfig | None = None,
           budget: ScratchBudget | None = None,
           overlap: int = 20,
           step: int = 1,
           workers: int = 8,
           group_iou: float | None = None) -> list[Detection]:
    """Full pipeline: pyramid -> tiles -> scan -> remap -> filter.

    Levels whose box side exceeds max_detection_px are planned but not
    scanned. Each tile scans only the window origins of its core region
    that lie on the level's lattice of pitch `step`, so the hits, and the
    output, do not depend on the tiling at any step. Hits are mapped back to
    original coordinates by the level scale factor (floor(v * f + 0.5),
    clipped to the image) and sorted stably by (level, y, x). Every tile is
    scanned in the calling thread; `workers` must be >= 1 and changes
    neither the output nor the thread count.

    `group_iou` optionally merges mutually-overlapping detections across the
    whole output, keeping the highest score per group (off by default).
    """
    cfg = cfg or PyramidConfig()
    budget = budget or ScratchBudget()
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if step < 1:
        raise ValueError("step must be >= 1")
    if group_iou is not None and not 0.0 < group_iou <= 1.0:
        raise ValueError(f"group_iou must be in (0, 1], got {group_iou}")

    dims = pyramid_dims(img.width, img.height, cfg)
    window = (c.window_w, c.window_h)
    sides = [math.floor(c.window_w * cfg.scale_factor ** lvl + 0.5)
             for lvl in range(len(dims))]
    jobs = []  # (level, tile), every one planned before any scan starts
    for lvl, (w, h) in enumerate(dims):
        if w < c.window_w or h < c.window_h:
            raise ValueError(
                f"pyramid level {lvl} ({w}x{h}) smaller than the scan window")
        tiles = plan_tiles(w, h, budget, overlap=overlap, window=window)
        if sides[lvl] <= cfg.max_detection_px:
            jobs += [(lvl, tile) for tile in tiles]

    levels = build_pyramid(img, cfg)
    parts = [np.empty((0, 5))]  # (x, y, side, level, score) rows per tile
    for lvl, tile in jobs:
        hits = _scan_level_tile(c, levels[lvl], tile, step)
        f, side = cfg.scale_factor ** lvl, sides[lvl]
        parts.append(np.column_stack((
            np.minimum(np.floor(hits[:, 0] * f + 0.5), img.width - side),
            np.minimum(np.floor(hits[:, 1] * f + 0.5), img.height - side),
            np.full(len(hits), side), np.full(len(hits), lvl), hits[:, 2])))
    rows = np.concatenate(parts)
    rows = rows[np.lexsort((rows[:, 0], rows[:, 1], rows[:, 3]))]
    if group_iou is not None:
        rows = rows[_group_by_iou(rows, group_iou)]

    xs, ys, ss, ls = rows[:, :4].astype(np.int64).T.tolist()
    return [Detection(Rect(x, y, s, s), lvl, score)
            for x, y, s, lvl, score in zip(xs, ys, ss, ls, rows[:, 4].tolist())]
