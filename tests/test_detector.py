import math
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import make_probe_cascade, random_image
from trapnode.cascade import (Cascade, HaarFeature, Stage, WeakClassifier,
                              eval_window, load_cascade)
from trapnode.detector import (BudgetTooSmall, Detection, PyramidConfig,
                               ScratchBudget, _group_by_iou, build_pyramid,
                               detect, plan_tiles, pyramid_dims, scan_tile)
from trapnode.evaluator import iou
from trapnode.imaging import GrayImage
from trapnode.integral import Rect, build_integral
from trapnode.synthetic import synth_scene

BENCH_CASCADE = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "bench_cascade.json"


def accept_all_cascade() -> Cascade:
    feature = HaarFeature(((Rect(0, 0, 4, 4), 1), (Rect(4, 0, 4, 4), -1)))
    weak = WeakClassifier(feature, 0.0, 1, 1.0, -1.0)
    return Cascade(20, 20, (Stage((weak,), threshold=-math.inf),),
                   variance_normalization=False)


def reject_all_cascade() -> Cascade:
    feature = HaarFeature(((Rect(0, 0, 4, 4), 1), (Rect(4, 0, 4, 4), -1)))
    weak = WeakClassifier(feature, 0.0, 1, 1.0, -1.0)
    return Cascade(20, 20, (Stage((weak,), threshold=math.inf),),
                   variance_normalization=False)


# ---------------------------------------------------------------- pyramid --

def test_pyramid_dims_320x240_five_levels():
    img = GrayImage(np.zeros((240, 320), dtype=np.uint8))
    levels = build_pyramid(img, PyramidConfig())
    dims = [(l.width, l.height) for l in levels]
    expected = [(int(320 / 1.1 ** s), int(240 / 1.1 ** s)) for s in range(5)]
    assert dims == expected == [(320, 240), (290, 218), (264, 198),
                                (240, 180), (218, 163)]


def test_pyramid_dims_are_the_built_levels():
    img = GrayImage(np.zeros((61, 97), dtype=np.uint8))
    for cfg in (PyramidConfig(), PyramidConfig(scale_factor=1.37, num_levels=7)):
        assert pyramid_dims(97, 61, cfg) == [
            (l.width, l.height) for l in build_pyramid(img, cfg)]
    with pytest.raises(ValueError, match="too small for 9 pyramid levels"):
        pyramid_dims(97, 61, PyramidConfig(scale_factor=2.0, num_levels=9))


def test_pyramid_single_level_is_original():
    rng = np.random.default_rng(30)
    img = random_image(rng, 40, 30)
    levels = build_pyramid(img, PyramidConfig(num_levels=1))
    assert len(levels) == 1
    assert np.array_equal(levels[0].pixels, img.pixels)


def test_default_size_filter_never_fires():
    # top-level effective side 20 * 1.1^4 = 29.282 < 30
    side = 20 * 1.1 ** 4
    assert side < 30
    assert round(side, 2) == 29.28


# ------------------------------------------------------------------ tiles --

def test_plan_tiles_reproduces_paper_geometry():
    budget = ScratchBudget(bytes=99_600, mode="ii_only")
    tiles = plan_tiles(320, 240, budget, overlap=20)
    assert [t.x for t in tiles] == [0, 80, 160, 240]
    assert all(t.y == 0 and t.h == 240 for t in tiles)
    assert [t.w for t in tiles] == [100, 100, 100, 80]
    # 100x240 integral tile occupies 96000 bytes, inside the 99.6 kB budget
    assert 100 * 240 * 4 == 96_000 <= 99_600


def test_plan_tiles_single_tile_when_image_fits():
    budget = ScratchBudget(bytes=99_600, mode="ii_only")
    tiles = plan_tiles(90, 60, budget, overlap=20)
    assert len(tiles) == 1
    assert (tiles[0].x, tiles[0].y, tiles[0].w, tiles[0].h) == (0, 0, 90, 60)


def test_plan_tiles_budget_too_small():
    with pytest.raises(BudgetTooSmall):
        plan_tiles(100, 100, ScratchBudget(bytes=1_000, mode="ii_only"))


def test_plan_tiles_coverage_and_core_partition():
    rng = np.random.default_rng(31)
    for _ in range(60):
        w = int(rng.integers(24, 400))
        h = int(rng.integers(24, 400))
        budget = ScratchBudget(bytes=int(rng.integers(4 * 24 * 24, 200_000)),
                               mode="ii_only")
        overlap = int(rng.integers(19, 23))
        tiles = plan_tiles(w, h, budget, overlap=overlap)

        covered = np.zeros((h, w), dtype=np.int32)
        owned = np.zeros((h, w), dtype=np.int32)
        for t in tiles:
            covered[t.y : t.y + t.h, t.x : t.x + t.w] += 1
            owned[t.core.y : t.core.y + t.core.h,
                  t.core.x : t.core.x + t.core.w] += 1
        assert (covered >= 1).all()     # tiles cover the raster
        assert (owned == 1).all()       # cores partition it

        # every window lies wholly inside at least one tile (overlap >= 19)
        for oy in range(0, h - 20 + 1, 7):
            for ox in range(0, w - 20 + 1, 7):
                assert any(
                    t.x <= ox and t.y <= oy
                    and ox + 20 <= t.x + t.w and oy + 20 <= t.y + t.h
                    for t in tiles
                )


def test_plan_tiles_overlap_floor_is_window_minus_one():
    """An overlap below the window minus one loses windows that straddle
    tile edges, so it is rejected; at the floor, tiling loses nothing."""
    budget = ScratchBudget(bytes=6_000)
    with pytest.raises(ValueError, match="overlap 18"):
        plan_tiles(120, 100, budget, overlap=18)
    assert len(plan_tiles(120, 100, budget, overlap=19)) > 1
    rng = np.random.default_rng(42)
    cascade = make_probe_cascade(seed=5)
    for _ in range(3):
        img = random_image(rng, 120, 100)
        tiled = detect(img, cascade, budget=budget, overlap=19, workers=1)
        untiled = detect(img, cascade, budget=ScratchBudget(bytes=10**9),
                         workers=1)
        assert tiled == untiled


# ------------------------------------------------------------------- scan --

def test_scan_tile_accept_all_combinatorics():
    rng = np.random.default_rng(32)
    tile = random_image(rng, 24, 24)
    hits = scan_tile(accept_all_cascade(), tile, step=1)
    assert len(hits) == 25
    assert {(int(x), int(y)) for x, y, _ in hits} == {(x, y) for x in range(5) for y in range(5)}


def test_scan_tile_reject_all_is_empty():
    rng = np.random.default_rng(33)
    assert len(scan_tile(reject_all_cascade(), random_image(rng, 30, 30))) == 0


def test_scan_tile_equals_whole_image_eval():
    rng = np.random.default_rng(34)
    cascade = make_probe_cascade(seed=8, stages=2, weak_per_stage=2)
    img = random_image(rng, 64, 48)
    ii = build_integral(img, with_squares=True)
    tile = GrayImage(img.pixels[8:44, 12:60])  # 48x36 view
    hits = {(12 + int(x), 8 + int(y)) for x, y, _ in scan_tile(cascade, tile)}
    expected = set()
    for oy in range(8, 44 - 20 + 1):
        for ox in range(12, 60 - 20 + 1):
            if eval_window(cascade, ii, (ox, oy)).accepted:
                expected.add((ox, oy))
    assert hits == expected


# ----------------------------------------------------------------- detect --

def test_detect_worker_count_invariance():
    rng = np.random.default_rng(35)
    cascade = make_probe_cascade(seed=2)
    img = random_image(rng, 96, 80)
    cfg = PyramidConfig(num_levels=3)
    a = detect(img, cascade, cfg=cfg, workers=1)
    b = detect(img, cascade, cfg=cfg, workers=8)
    c = detect(img, cascade, cfg=cfg, workers=3)
    assert a == b == c


def test_detect_scans_every_tile_in_the_calling_thread(monkeypatch):
    import trapnode.detector as detector

    threads = []

    def recording_scan_tile(c, tile_pixels, step=1):
        threads.append(threading.current_thread())
        return scan_tile(c, tile_pixels, step)

    monkeypatch.setattr(detector, "scan_tile", recording_scan_tile)
    img = random_image(np.random.default_rng(47), 150, 120)
    detect(img, make_probe_cascade(seed=5), cfg=PyramidConfig(num_levels=3),
           budget=ScratchBudget(bytes=30_000), workers=8)
    assert len(threads) > 3
    assert all(t is threading.main_thread() for t in threads)


def test_detect_coordinate_mapping():
    cascade = make_probe_cascade(seed=2)
    rng = np.random.default_rng(36)
    img = random_image(rng, 96, 80)
    cfg = PyramidConfig(num_levels=4)
    for d in detect(img, cascade, cfg=cfg, workers=2):
        f = 1.1 ** d.level
        assert d.bbox.w == d.bbox.h == int(math.floor(20 * f + 0.5))
        assert d.bbox.x + d.bbox.w <= img.width
        assert d.bbox.y + d.bbox.h <= img.height


def test_detect_size_filter():
    rng = np.random.default_rng(37)
    cascade = make_probe_cascade(seed=2)
    img = random_image(rng, 128, 100)
    cfg = PyramidConfig(num_levels=5, max_detection_px=23)
    for d in detect(img, cascade, cfg=cfg, workers=2):
        assert max(d.bbox.w, d.bbox.h) <= 23
        assert d.level <= 1  # levels 2+ give side 24+


def test_detect_skips_levels_the_size_filter_drops(monkeypatch):
    """Levels whose box side exceeds max_detection_px are never scanned, and
    the output equals the unfiltered one restricted to the kept levels."""
    import trapnode.detector as detector

    rng = np.random.default_rng(44)
    cascade = make_probe_cascade(seed=2)
    img = random_image(rng, 128, 100)
    budget = ScratchBudget(bytes=10**9)  # one tile per level
    full = detect(img, cascade, cfg=PyramidConfig(num_levels=5), budget=budget,
                  workers=1)
    scanned = []

    def recording_scan_tile(c, tile_pixels, step=1):
        scanned.append((tile_pixels.width, tile_pixels.height))
        return scan_tile(c, tile_pixels, step)

    monkeypatch.setattr(detector, "scan_tile", recording_scan_tile)
    cfg = PyramidConfig(num_levels=5, max_detection_px=23)
    dets = detect(img, cascade, cfg=cfg, budget=budget, workers=1)
    levels = build_pyramid(img, cfg)
    assert scanned == [(l.width, l.height) for l in levels[:2]]
    assert dets == [d for d in full if d.level <= 1]

    none_kept = PyramidConfig(num_levels=5, max_detection_px=19)
    assert detect(img, cascade, cfg=none_kept, budget=budget, workers=2) == []
    assert len(scanned) == 2


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("cfg,budget,error", [
    # Level 2 of a 22x22 image is 18x18, under the 20x20 window.
    (PyramidConfig(num_levels=3), ScratchBudget(), ValueError),
    (PyramidConfig(num_levels=3), ScratchBudget(bytes=1_000), BudgetTooSmall),
])
def test_detect_raises_before_any_scan(cfg, budget, error, workers, monkeypatch):
    import trapnode.detector as detector

    calls = []
    monkeypatch.setattr(detector, "scan_tile", lambda *a: calls.append("scan"))
    monkeypatch.setattr(detector, "downscale", lambda *a: calls.append("downscale"))
    img = random_image(np.random.default_rng(46), 22, 22)
    with pytest.raises(error):
        detect(img, make_probe_cascade(), cfg=cfg, budget=budget, workers=workers)
    assert calls == []


@pytest.mark.parametrize("factor", [1.1, 1.25])
def test_detect_remap_matches_scalar_oracle(factor):
    """Every window origin of every level, accepted, lands where the scalar
    rule floor(v * f + 0.5), clipped to the image, puts it."""
    rng = np.random.default_rng(45)
    cfg = PyramidConfig(scale_factor=factor, num_levels=4, max_detection_px=1000)
    for w, h in [(41, 40), (64, 48), (97, 75), (120, 100)]:
        img = random_image(rng, w, h)
        dets = detect(img, accept_all_cascade(), cfg=cfg,
                      budget=ScratchBudget(bytes=6_000), workers=2)
        expected = []
        for lvl, level in enumerate(build_pyramid(img, cfg)):
            f = factor ** lvl
            side = math.floor(20 * f + 0.5)
            for y in range(level.height - 20 + 1):
                for x in range(level.width - 20 + 1):
                    expected.append((lvl, min(math.floor(y * f + 0.5), h - side),
                                     min(math.floor(x * f + 0.5), w - side), side))
        expected.sort()
        got = [(d.level, d.bbox.y, d.bbox.x, d.bbox.w) for d in dets]
        assert got == expected
        assert all(d.bbox.h == d.bbox.w for d in dets)


def test_detect_dedup_soundness():
    rng = np.random.default_rng(38)
    cascade = make_probe_cascade(seed=5)
    img = random_image(rng, 150, 120)
    dets = detect(img, cascade, cfg=PyramidConfig(num_levels=3),
                  budget=ScratchBudget(bytes=30_000), workers=4)
    keys = [(d.level, d.bbox.x, d.bbox.y) for d in dets]
    assert len(keys) == len(set(keys))


def test_detect_tiled_equals_untiled():
    rng = np.random.default_rng(39)
    cascade = make_probe_cascade(seed=5)
    cfg = PyramidConfig(num_levels=3)
    for _ in range(5):
        img = random_image(rng, int(rng.integers(64, 160)),
                           int(rng.integers(64, 160)))
        tiny = int(rng.integers(4 * 21 * 21, 40_000))
        tiled = detect(img, cascade, cfg=cfg,
                       budget=ScratchBudget(bytes=tiny), workers=2)
        untiled = detect(img, cascade, cfg=cfg,
                         budget=ScratchBudget(bytes=10**9), workers=1)
        assert tiled == untiled


def test_detect_output_sorted():
    rng = np.random.default_rng(40)
    cascade = make_probe_cascade(seed=5)
    img = random_image(rng, 100, 100)
    dets = detect(img, cascade, cfg=PyramidConfig(num_levels=2), workers=2)
    keys = [(d.level, d.bbox.y, d.bbox.x) for d in dets]
    assert keys == sorted(keys)


def test_detect_group_iou_filter():
    rng = np.random.default_rng(41)
    img = random_image(rng, 64, 64)
    dets = detect(img, accept_all_cascade(), cfg=PyramidConfig(num_levels=1),
                  workers=1, group_iou=0.3)
    from trapnode.evaluator import iou
    for i, a in enumerate(dets):
        for b in dets[i + 1:]:
            assert iou(a.bbox, b.bbox) < 0.3


def group_by_iou_referee(dets: list[Detection], thr: float) -> list[Detection]:
    """Greedy grouping over `Detection` objects, in (level, y, x) order: keep
    the highest-scoring box, drop everything that overlaps it by >= thr,
    repeat. The referee for `detector._group_by_iou`."""
    remaining = sorted(dets, key=lambda d: (-d.score, d.level, d.bbox.y, d.bbox.x))
    kept: list[Detection] = []
    while remaining:
        best = remaining.pop(0)
        kept.append(best)
        remaining = [d for d in remaining if iou(best.bbox, d.bbox) < thr]
    return sorted(kept, key=lambda d: (d.level, d.bbox.y, d.bbox.x))


def group_by_iou_columns(dets: list[Detection], thr: float) -> list[Detection]:
    rows = np.array([(d.bbox.x, d.bbox.y, d.bbox.w, d.level, d.score)
                     for d in dets], dtype=np.float64).reshape(-1, 5)
    return [dets[i] for i in _group_by_iou(rows, thr)]


def random_detections(rng: np.random.Generator, n: int,
                      tied: bool) -> list[Detection]:
    """`n` overlapping boxes over four levels, one side per level as `detect`
    gives them, in `detect`'s (level, y, x) order."""
    sides = (20, 22, 24, 27)
    dets = []
    for _ in range(n):
        lvl = int(rng.integers(0, len(sides)))
        score = float(rng.integers(-2, 3)) * 0.25 if tied else float(rng.normal())
        dets.append(Detection(Rect(int(rng.integers(0, 40)), int(rng.integers(0, 40)),
                                   sides[lvl], sides[lvl]), lvl, score))
    return sorted(dets, key=lambda d: (d.level, d.bbox.y, d.bbox.x))


@pytest.mark.parametrize("thr", [0.01, 0.3, 0.5, 1.0])
def test_group_by_iou_matches_list_referee(thr):
    rng = np.random.default_rng(48)
    assert group_by_iou_columns([], thr) == []
    for n in (1, 2, 7, 40, 150):
        for tied in (True, False):
            dets = random_detections(rng, n, tied)
            assert group_by_iou_columns(dets, thr) == group_by_iou_referee(dets, thr)


def test_group_by_iou_matches_list_referee_on_bench_cascade():
    cascade = load_cascade(BENCH_CASCADE)
    rng = np.random.default_rng(49)
    for moths in ([22, 27], [25, 21, 29], [20, 24, 26, 28]):
        img, _ = synth_scene(320, 240, moths, rng, clutter=True)
        dets = detect(img, cascade, workers=1)
        assert len(dets) > 200
        for thr in (0.01, 0.3, 0.5, 1.0):
            expected = group_by_iou_referee(dets, thr)
            assert group_by_iou_columns(dets, thr) == expected
        assert detect(img, cascade, workers=1, group_iou=0.3) == \
            group_by_iou_referee(dets, 0.3)


@pytest.mark.parametrize("group_iou", [0.0, -1.0, 1.5, math.nan])
def test_detect_rejects_group_iou_outside_unit_interval(group_iou):
    img = random_image(np.random.default_rng(43), 40, 40)
    with pytest.raises(ValueError, match="group_iou"):
        detect(img, accept_all_cascade(), cfg=PyramidConfig(num_levels=1),
               workers=1, group_iou=group_iou)


@pytest.mark.parametrize("factor", [math.nan, math.inf])
def test_pyramid_config_rejects_non_finite_scale_factor(factor):
    with pytest.raises(ValueError, match="scale_factor"):
        PyramidConfig(scale_factor=factor)
