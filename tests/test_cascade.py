import math
from pathlib import Path

import numpy as np
import pytest

from conftest import make_probe_cascade, random_image
from trapnode import cascade as cascade_module
from trapnode.cascade import (BadFieldValue, Cascade, EmptyStage, HaarFeature,
                              MissingField, RectOutOfWindow, Stage, WeakClassifier,
                              cascade_from_json, cascade_to_json, eval_grid,
                              eval_lattice, eval_window, feature_value,
                              load_cascade)
from trapnode.imaging import GrayImage
from trapnode.integral import Rect, build_integral
from trapnode.synthetic import synth_scene
from trapnode.trainer import TEMPLATES, enumerate_features

BENCH_CASCADE = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "bench_cascade.json"


# ----------------------------------------------------------------- oracle --
# Naive re-implementation straight over pixels: no integral images anywhere.

def naive_feature_value(f: HaarFeature, pixels: np.ndarray, ox: int, oy: int) -> int:
    total = 0
    for rect, weight in f.rects:
        block = pixels[oy + rect.y : oy + rect.y + rect.h,
                       ox + rect.x : ox + rect.x + rect.w]
        total += weight * int(block.astype(np.int64).sum())
    return total


def naive_eval_window(c: Cascade, pixels: np.ndarray, ox: int, oy: int):
    window = pixels[oy : oy + c.window_h, ox : ox + c.window_w].astype(np.float64)
    if c.variance_normalization:
        var = (window ** 2).mean() - window.mean() ** 2
        norm = math.sqrt(var) if var > 0 else 1.0
    else:
        norm = 1.0
    for k, stage in enumerate(c.stages):
        score = 0.0
        for weak in stage.weak:
            value = naive_feature_value(weak.feature, pixels, ox, oy)
            if weak.polarity * (value - weak.threshold * norm) > 0:
                score += weak.vote_pass
            else:
                score += weak.vote_fail
        if score < stage.threshold:
            return False, k
    return True, len(c.stages) - 1


# ------------------------------------------------------------------ tests --

def test_vacuous_threshold_accepts_everything():
    feature = HaarFeature(((Rect(0, 0, 4, 4), 1), (Rect(4, 0, 4, 4), -1)))
    weak = WeakClassifier(feature, threshold=0.0, polarity=1,
                          vote_pass=1.0, vote_fail=-1.0)
    cascade = Cascade(20, 20, (Stage((weak,), threshold=-math.inf),),
                      variance_normalization=False)
    rng = np.random.default_rng(20)
    img = random_image(rng, 40, 40)
    ii = build_integral(img)
    for origin in ((0, 0), (5, 7), (20, 20)):
        assert eval_window(cascade, ii, origin).accepted


def test_hand_computed_two_rect_feature():
    # left half 255, right half 0; feature = left(+1) right(-1) over 10x20
    px = np.zeros((20, 20), dtype=np.uint8)
    px[:, :10] = 255
    feature = HaarFeature(((Rect(0, 0, 10, 20), 1), (Rect(10, 0, 10, 20), -1)))
    ii = build_integral(GrayImage(px))
    value = feature_value(feature, ii, (0, 0))
    assert value == 255 * 10 * 20  # left sum minus zero right half

    for polarity, expected_accept in ((1, True), (-1, False)):
        weak = WeakClassifier(feature, threshold=1000.0, polarity=polarity,
                              vote_pass=1.0, vote_fail=-1.0)
        cascade = Cascade(20, 20, (Stage((weak,), threshold=0.5),),
                          variance_normalization=False)
        result = eval_window(cascade, ii, (0, 0))
        assert result.accepted == expected_accept


def test_eval_window_matches_naive_reimplementation():
    rng = np.random.default_rng(21)
    cascade = make_probe_cascade(seed=3, stages=3, weak_per_stage=2)
    for _ in range(6):
        img = random_image(rng, 36, 30)
        ii = build_integral(img, with_squares=True)
        for _ in range(25):
            ox = int(rng.integers(0, 36 - 20 + 1))
            oy = int(rng.integers(0, 30 - 20 + 1))
            got = eval_window(cascade, ii, (ox, oy))
            want_accept, want_stage = naive_eval_window(cascade, img.pixels, ox, oy)
            assert got.accepted == want_accept
            assert got.stage == want_stage


def test_eval_grid_matches_eval_window():
    rng = np.random.default_rng(22)
    cascade = make_probe_cascade(seed=9, stages=2, weak_per_stage=3)
    img = random_image(rng, 40, 32)
    ii = build_integral(img, with_squares=True)
    xs, ys = np.meshgrid(np.arange(21), np.arange(13))
    xs = xs.ravel().astype(np.int64)
    ys = ys.ravel().astype(np.int64)
    accepted, stages, margins = eval_grid(cascade, ii, xs, ys)
    for i in range(xs.size):
        ref = eval_window(cascade, ii, (int(xs[i]), int(ys[i])))
        assert bool(accepted[i]) == ref.accepted
        assert int(stages[i]) == ref.stage
        assert margins[i] == ref.score


def assert_grid_matches_windows(cascade, ii, xs, ys):
    got = eval_grid(cascade, ii, xs, ys)
    accepted, stages, margins = got
    assert (accepted.dtype, stages.dtype, margins.dtype) == (bool, np.int32, np.float64)
    assert accepted.shape == stages.shape == margins.shape == xs.shape
    for i in range(xs.size):
        ref = eval_window(cascade, ii, (int(xs[i]), int(ys[i])))
        assert bool(accepted[i]) == ref.accepted
        assert int(stages[i]) == ref.stage
        assert margins[i] == ref.score
    return got


def all_template_cascade(rng, variance_normalization: bool) -> Cascade:
    """Four stages of 3-9 weaks drawn from every template, so merged corner
    coefficients of +/-1, +/-2, +/-3 and +4 all occur."""
    pools = [enumerate_features(20, 20, min_size=2, stride=2, templates=(t,))
             for t in TEMPLATES]
    # Feature values over a window of std s are about s * sqrt(area) in size.
    scale = 1.0 if variance_normalization else 60.0
    stages = []
    for weak_count in (3, 5, 9, 7):
        weaks = []
        for j in range(weak_count):
            pool = pools[j % len(pools)]
            feature = pool[int(rng.integers(len(pool)))]
            area = sum(r.area for r, _ in feature.rects)
            weaks.append(WeakClassifier(
                feature=feature,
                threshold=float(rng.normal(0.0, 0.3 * scale * math.sqrt(area))),
                polarity=int(rng.choice([-1, 1])),
                vote_pass=float(rng.uniform(0.1, 1.0)),
                vote_fail=float(-rng.uniform(0.1, 1.0)),
            ))
        stages.append(Stage(tuple(weaks), threshold=float(rng.uniform(-0.6, 0.0))))
    return Cascade(20, 20, tuple(stages), variance_normalization)


@pytest.mark.parametrize("variance_normalization", [True, False])
def test_eval_grid_matches_eval_window_all_templates(variance_normalization):
    rng = np.random.default_rng(40)
    cascade = all_template_cascade(rng, variance_normalization)
    coefs = {int(k) for stage in cascade.stages for k in np.unique(stage.corners.coef)}
    assert {-3, -2, -1, 1, 2, 3, 4} <= coefs
    img = random_image(rng, 52, 44)
    ii = build_integral(img, with_squares=variance_normalization)
    # A shuffled, non-grid subset of origins, as the trainer passes survivors.
    origins = rng.permutation((52 - 20 + 1) * (44 - 20 + 1))[:500]
    ys, xs = np.divmod(origins, 52 - 20 + 1)
    accepted, stages, _ = assert_grid_matches_windows(cascade, ii, xs, ys)
    assert accepted.any() and not accepted.all()
    assert np.unique(stages).size == len(cascade.stages)

    empty = np.zeros(0, dtype=np.int64)
    assert_grid_matches_windows(cascade, ii, empty, empty)


def test_eval_grid_matches_eval_window_on_bench_cascade():
    # The fixed 13-stage, 64-weak trained cascade; its deep stages hold up to
    # 9 weaks, where the order of adding votes decides the last bit.
    cascade = load_cascade(BENCH_CASCADE)
    rng = np.random.default_rng(41)
    img, _ = synth_scene(320, 240, [22, 27], rng, clutter=True)
    ii = build_integral(img, with_squares=True)
    cols = img.width - cascade.window_w + 1
    ys, xs = np.divmod(np.arange(cols * (img.height - cascade.window_h + 1)), cols)
    _, stages, _ = eval_grid(cascade, ii, xs, ys)
    deep = np.flatnonzero(stages >= 5)
    assert deep.size
    assert_grid_matches_windows(cascade, ii, xs[deep], ys[deep])


# ---------------------------------------------------------- eval_lattice --
# eval_grid on the same origins is the lattice path's referee.

def assert_lattice_matches_grid(cascade, ii, step):
    ox = np.arange(0, ii.width - cascade.window_w + 1, step, dtype=np.int64)
    oy = np.arange(0, ii.height - cascade.window_h + 1, step, dtype=np.int64)
    ys, xs = (a.ravel() for a in np.meshgrid(oy, ox, indexing="ij"))
    got = eval_lattice(cascade, ii, step)
    for g, want in zip(got, eval_grid(cascade, ii, xs, ys), strict=True):
        assert g.dtype == want.dtype
        assert np.array_equal(g, want)
    return got


@pytest.mark.parametrize("variance_normalization", [True, False])
@pytest.mark.parametrize("step", [1, 2, 3])
def test_eval_lattice_matches_eval_grid_all_templates(step, variance_normalization):
    # Stage 0 holds 3 weaks; the later stages up to 9, from all five templates.
    rng = np.random.default_rng(42)
    cascade = all_template_cascade(rng, variance_normalization)
    img = random_image(rng, 52, 44)
    ii = build_integral(img, with_squares=variance_normalization)
    accepted, stages, _ = assert_lattice_matches_grid(cascade, ii, step)
    assert accepted.any() and not accepted.all()
    assert (stages == 0).any() and (stages > 0).any()


@pytest.mark.parametrize("step", [1, 2, 3])
def test_eval_lattice_dense_stage_of_many_weaks(step):
    # Stage 0 with every template's weaks; one stage only, so every window
    # is decided by the dense path.
    rng = np.random.default_rng(43)
    stages = all_template_cascade(rng, True).stages
    one = Cascade(20, 20, (stages[2],), variance_normalization=True)
    assert len(one.stages[0].weak) == 9
    ii = build_integral(random_image(rng, 47, 41), with_squares=True)
    accepted, stage_idx, _ = assert_lattice_matches_grid(one, ii, step)
    assert accepted.any() and not accepted.all()
    assert not stage_idx.any()


def test_eval_lattice_bands_and_edges(monkeypatch):
    rng = np.random.default_rng(44)
    cascade = make_probe_cascade(seed=9, stages=3, weak_per_stage=3)
    ii = build_integral(random_image(rng, 45, 38), with_squares=True)
    # Bands of one row, bands of two rows, and bands narrower than a row.
    for block in (26, 52, 7):
        monkeypatch.setattr(cascade_module, "GRID_BLOCK", block)
        assert_lattice_matches_grid(cascade, ii, 1)
        assert_lattice_matches_grid(cascade, ii, 2)
    monkeypatch.undo()
    # A raster of exactly one window, checked against eval_window too.
    one = build_integral(random_image(rng, 20, 20), with_squares=True)
    accepted, stage_idx, margins = assert_lattice_matches_grid(cascade, one, 3)
    ref = eval_window(cascade, one, (0, 0))
    assert (accepted.tolist(), stage_idx.tolist(), margins.tolist()) == (
        [ref.accepted], [ref.stage], [ref.score])
    # A raster narrower than the window has no origins.
    narrow = build_integral(random_image(rng, 19, 30), with_squares=True)
    assert [a.size for a in assert_lattice_matches_grid(cascade, narrow, 1)] == [0, 0, 0]
    with pytest.raises(ValueError):
        eval_lattice(cascade, ii, 0)
    with pytest.raises(ValueError, match="squared sums"):
        eval_lattice(cascade, build_integral(random_image(rng, 30, 30)), 1)


def test_eval_lattice_matches_eval_grid_on_bench_cascade():
    cascade = load_cascade(BENCH_CASCADE)
    rng = np.random.default_rng(45)
    for moths, step in (([], 1), ([22, 27], 1), ([25, 21, 29], 2)):
        img, _ = synth_scene(320, 240, moths, rng, clutter=True)
        ii = build_integral(img, with_squares=True)
        _, stages, _ = assert_lattice_matches_grid(cascade, ii, step)
        assert (stages >= 5).any()


def test_feature_value_zero_image_and_identity_scale():
    feature = HaarFeature(((Rect(1, 1, 3, 2), 1), (Rect(4, 1, 3, 2), -1)))
    zero = build_integral(GrayImage(np.zeros((20, 20), dtype=np.uint8)))
    assert feature_value(feature, zero, (0, 0)) == 0


def test_feature_value_matches_naive_pixel_loop():
    rng = np.random.default_rng(24)
    img = random_image(rng, 30, 30)
    ii = build_integral(img)
    for _ in range(50):
        w = int(rng.integers(1, 5))
        h = int(rng.integers(1, 5))
        x = int(rng.integers(0, 10 - 2 * w + 1))
        y = int(rng.integers(0, 10 - h + 1))
        feature = HaarFeature(((Rect(x, y, w, h), 1), (Rect(x + w, y, w, h), -1)))
        ox = int(rng.integers(0, 20))
        oy = int(rng.integers(0, 20))
        assert feature_value(feature, ii, (ox, oy)) == \
            naive_feature_value(feature, img.pixels, ox, oy)


def test_feature_value_linear_in_intensity():
    rng = np.random.default_rng(25)
    px = rng.integers(0, 80, size=(20, 20), dtype=np.uint8)
    feature = HaarFeature(((Rect(0, 0, 5, 8), 1), (Rect(5, 0, 5, 8), -1)))
    v1 = feature_value(feature, build_integral(GrayImage(px)), (0, 0))
    v3 = feature_value(feature, build_integral(GrayImage(px * 3)), (0, 0))
    assert v3 == 3 * v1


def test_decision_invariant_under_affine_intensity_change():
    # a*img + b with no clamping: zero-mean templates cancel b, variance
    # normalization cancels a, so accept/reject decisions are unchanged.
    rng = np.random.default_rng(26)
    cascade = make_probe_cascade(seed=12, stages=2, weak_per_stage=2,
                                 variance_normalization=True)
    px = rng.integers(10, 60, size=(28, 28), dtype=np.uint8)
    transformed = (px.astype(np.int64) * 3 + 17).astype(np.uint8)
    assert transformed.max() <= 255
    ii_a = build_integral(GrayImage(px), with_squares=True)
    ii_b = build_integral(GrayImage(transformed), with_squares=True)
    for ox in range(0, 9, 2):
        for oy in range(0, 9, 2):
            ra = eval_window(cascade, ii_a, (ox, oy))
            rb = eval_window(cascade, ii_b, (ox, oy))
            assert ra.accepted == rb.accepted


def test_monotonicity_rejection_is_final():
    rng = np.random.default_rng(27)
    cascade = make_probe_cascade(seed=4, stages=3, weak_per_stage=2)
    img = random_image(rng, 30, 30)
    ii = build_integral(img, with_squares=True)
    for ox in range(0, 11, 3):
        for oy in range(0, 11, 3):
            res = eval_window(cascade, ii, (ox, oy))
            if not res.accepted:
                assert res.stage < len(cascade.stages)
                truncated = Cascade(20, 20, cascade.stages[: res.stage + 1],
                                    cascade.variance_normalization)
                assert not eval_window(truncated, ii, (ox, oy)).accepted


def test_serialization_round_trip():
    cascade = make_probe_cascade(seed=31, stages=4, weak_per_stage=3)
    again = cascade_from_json(cascade_to_json(cascade))
    assert again == cascade


def test_serialization_empty_stage_error():
    doc = cascade_to_json(make_probe_cascade())
    broken = doc.replace('"weak": [', '"weak_gone": [', 1)
    with pytest.raises(MissingField):
        cascade_from_json(broken)
    import json
    parsed = json.loads(doc)
    parsed["stages"][0]["weak"] = []
    with pytest.raises(EmptyStage):
        cascade_from_json(json.dumps(parsed))


def test_serialization_rect_out_of_window_error():
    import json
    doc = json.loads(cascade_to_json(make_probe_cascade()))
    doc["stages"][0]["weak"][0]["rects"][0]["w"] = 99
    with pytest.raises(RectOutOfWindow):
        cascade_from_json(json.dumps(doc))


def test_size_accounting():
    # 15 stages x 10 two-rect weak classifiers: the packed accounting gives
    # 8 + 15*(6 + 10*(13 + 10)) = 3548 bytes, the few-kB footprint of a
    # trained 15-stage detector.
    feature = HaarFeature(((Rect(0, 0, 4, 4), 1), (Rect(4, 0, 4, 4), -1)))
    weak = WeakClassifier(feature, 0.0, 1, 1.0, -1.0)
    stages = tuple(Stage((weak,) * 10, 0.0) for _ in range(15))
    cascade = Cascade(20, 20, stages)
    expected = 8 + sum(6 + sum(13 + 5 * len(w.feature.rects) for w in s.weak)
                       for s in cascade.stages)
    assert cascade.size_bytes() == expected == 3548
    assert 3000 <= cascade.size_bytes() <= 4100


def test_zero_mean_invariant_enforced():
    with pytest.raises(ValueError):
        HaarFeature(((Rect(0, 0, 4, 4), 1), (Rect(4, 0, 2, 2), -1)))


@pytest.mark.parametrize("weight", [10 ** 6, 10 ** 30, 10 ** 400],
                         ids=["1e6", "1e30", "1e400"])
def test_reader_rejects_weights_too_large_for_exact_evaluation(weight):
    feature = HaarFeature(((Rect(0, 0, 2, 4), weight), (Rect(2, 0, 2, 4), -weight)))
    weak = WeakClassifier(feature, 0.0, 1, 1.0, -1.0)
    text = cascade_to_json(Cascade(8, 8, (Stage((weak,), 0.5),)))
    with pytest.raises(BadFieldValue, match="stage 0: feature weights too large"):
        cascade_from_json(text)
