import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from trapnode.cascade import (Cascade, HaarFeature, Stage, WeakClassifier,
                              cascade_to_json, eval_grid, eval_window,
                              feature_value, load_cascade, window_norm)
from trapnode.detector import PyramidConfig, build_pyramid
from trapnode.imaging import GrayImage
from trapnode.integral import Rect, build_integral
from trapnode.synthetic import (synth_moth_window, synth_negative_images,
                                synth_positive_windows, synth_scene)
from trapnode.trainer import (STUMP_BLOCK, TEMPLATES, StumpSearcher,
                              StumpSearchResult, TrainConfig, WindowStack,
                              enumerate_features, feature_table, train_cascade,
                              _alpha, _boost_stage, _draw_features,
                              _mine_negatives, _PoolGrid, _PoolProbe,
                              _stable_argsort)

BENCH_CASCADE = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "bench_cascade.json"


# ---------------------------------------------------------------- oracles --

def closed_form_edge_h_count(win: int) -> int:
    total = 0
    for a in range(1, win // 2 + 1):
        for b in range(1, win + 1):
            total += (win - 2 * a + 1) * (win - b + 1)
    return total


def oracle_enumerate_features(win_w, win_h, min_size=1, stride=1,
                              templates=TEMPLATES):
    """Scalar nested-loop enumeration: template, unit size (a, b), then
    position (y, x)."""
    if win_w < 2 or win_h < 2:
        raise ValueError("window must be at least 2x2")
    feats = []

    def emit(total_w, total_h, make_rects):
        for a in range(min_size, win_w + 1, stride):
            if total_w(a) > win_w:
                break
            for b in range(min_size, win_h + 1, stride):
                tw, th = total_w(a), total_h(b)
                if th > win_h:
                    break
                for y in range(0, win_h - th + 1, stride):
                    for x in range(0, win_w - tw + 1, stride):
                        feats.append(HaarFeature(tuple(make_rects(x, y, a, b))))

    for template in templates:
        if template == "edge_h":
            emit(lambda a: 2 * a, lambda b: b, lambda x, y, a, b: [
                (Rect(x, y, a, b), 1), (Rect(x + a, y, a, b), -1)])
        elif template == "edge_v":
            emit(lambda a: a, lambda b: 2 * b, lambda x, y, a, b: [
                (Rect(x, y, a, b), 1), (Rect(x, y + b, a, b), -1)])
        elif template == "line_h":
            emit(lambda a: 3 * a, lambda b: b, lambda x, y, a, b: [
                (Rect(x, y, a, b), 1), (Rect(x + a, y, a, b), -2),
                (Rect(x + 2 * a, y, a, b), 1)])
        elif template == "line_v":
            emit(lambda a: a, lambda b: 3 * b, lambda x, y, a, b: [
                (Rect(x, y, a, b), 1), (Rect(x, y + b, a, b), -2),
                (Rect(x, y + 2 * b, a, b), 1)])
        elif template == "quad":
            emit(lambda a: 2 * a, lambda b: 2 * b, lambda x, y, a, b: [
                (Rect(x, y, a, b), 1), (Rect(x + a, y, a, b), -1),
                (Rect(x, y + b, a, b), -1), (Rect(x + a, y + b, a, b), 1)])
        else:
            raise ValueError(f"unknown template {template!r}")
    return feats


def table_of(features):
    """Feature-table rows written out from `HaarFeature`s, zero-padded."""
    rows = [[(r.x, r.y, r.w, r.h, w) for r, w in f.rects] for f in features]
    return np.array([r + [(0, 0, 0, 0, 0)] * (4 - len(r)) for r in rows],
                    dtype=np.int64).reshape(-1, 4, 5)


def exhaustive_stump_error(values: np.ndarray, positive: np.ndarray,
                           weights: np.ndarray) -> float:
    """O(F*N^2) sweep over every sample-value threshold and both polarities."""
    best = np.inf
    for row in values:
        candidates = np.concatenate([[row.min() - 1.0], np.unique(row),
                                     [row.max() + 1.0]])
        for theta in candidates:
            for polarity in (1, -1):
                pred = polarity * (row - theta) > 0
                err = weights[pred != positive].sum()
                best = min(best, err)
    return best


def whole_matrix_stump(values: np.ndarray, positive: np.ndarray,
                       weights: np.ndarray) -> StumpSearchResult:
    """The stump search over the whole (features x cuts) matrix at once: the
    first-index argmin over both polarities' cuts, then over features."""
    nf, ns = values.shape
    order = np.argsort(values, axis=1, kind="stable")
    sv_all = np.take_along_axis(values, order, axis=1)
    valid = np.ones((nf, ns + 1), dtype=bool)
    valid[:, 1:ns] = sv_all[:, :-1] != sv_all[:, 1:]
    w_pos = np.where(positive, weights, 0.0)
    w_neg = np.where(positive, 0.0, weights)
    total_pos = w_pos.sum()
    total = total_pos + w_neg.sum()

    cpos = w_pos[order].cumsum(axis=1)
    cneg = w_neg[order].cumsum(axis=1)
    err_plus = np.empty((nf, ns + 1), dtype=np.float64)
    err_plus[:, 0] = total - total_pos
    err_plus[:, 1:] = cpos + (total - total_pos) - cneg
    err_minus = total - err_plus

    err_plus = np.where(valid, err_plus, np.inf)
    err_minus = np.where(valid, err_minus, np.inf)
    both = np.concatenate([err_plus, err_minus], axis=1)
    best_cut = np.argmin(both, axis=1)
    per_feature = both[np.arange(nf), best_cut]
    fi = int(np.argmin(per_feature))
    cut = int(best_cut[fi])
    sv = sv_all[fi]
    if cut <= ns:
        polarity = 1
        threshold = float(sv[cut - 1]) if cut >= 1 else float(sv[0] - 1.0)
    else:
        polarity = -1
        c = cut - (ns + 1)
        threshold = float(sv[c]) if c < ns else float(sv[ns - 1] + 1.0)
    return StumpSearchResult(fi, threshold, polarity, float(per_feature[fi]))


# ------------------------------------------------------------ enumeration --

def test_edge_h_count_on_4x4():
    feats = enumerate_features(4, 4, templates=("edge_h",))
    assert len(feats) == closed_form_edge_h_count(4) == 40


def test_all_features_fit_window():
    for feats, win in ((enumerate_features(2, 2), 2),
                       (enumerate_features(6, 6), 6)):
        assert feats
        for f in feats:
            for rect, _ in f.rects:
                assert rect.x + rect.w <= win
                assert rect.y + rect.h <= win


def test_enumeration_count_20x20_frozen():
    # Independently derived closed forms per template, frozen as a
    # regression constant for the full 20x20 enumeration.
    win = 20
    pos = lambda tw, th: (win - tw + 1) * (win - th + 1)
    edge_h = sum(pos(2 * a, b) for a in range(1, 11) for b in range(1, 21))
    edge_v = sum(pos(a, 2 * b) for a in range(1, 21) for b in range(1, 11))
    line_h = sum(pos(3 * a, b) for a in range(1, 7) for b in range(1, 21))
    line_v = sum(pos(a, 3 * b) for a in range(1, 21) for b in range(1, 7))
    quad = sum(pos(2 * a, 2 * b) for a in range(1, 11) for b in range(1, 11))
    expected = edge_h + edge_v + line_h + line_v + quad
    feats = enumerate_features(20, 20)
    assert len(feats) == expected == 78_460


def test_enumeration_stride_and_min_size():
    dense = enumerate_features(8, 8)
    sparse = enumerate_features(8, 8, min_size=2, stride=2)
    assert len(sparse) < len(dense)


@pytest.mark.parametrize("window", [(20, 20), (8, 8), (2, 2), (21, 17)])
@pytest.mark.parametrize("min_size,stride", [(1, 1), (2, 2), (2, 3)])
def test_feature_table_matches_scalar_enumeration(window, min_size, stride):
    alone = {(t,): oracle_enumerate_features(*window, min_size, stride, (t,))
             for t in TEMPLATES}
    # The oracle enumerates template by template.
    alone[TEMPLATES] = [f for t in TEMPLATES for f in alone[(t,)]]
    for templates, expected in alone.items():
        table = feature_table(*window, min_size, stride, templates)
        assert table.dtype == np.int64 and table.shape == (len(expected), 4, 5)
        assert np.array_equal(table, table_of(expected))
        assert enumerate_features(*window, min_size, stride, templates) == expected


def test_feature_table_rejects_bad_arguments():
    for make in (feature_table, enumerate_features, oracle_enumerate_features):
        with pytest.raises(ValueError, match="unknown template"):
            make(8, 8, templates=("edge_h", "diagonal"))
        for w, h in ((1, 8), (8, 1), (1, 1)):
            with pytest.raises(ValueError, match="at least 2x2"):
                make(w, h)


# ------------------------------------------------------------ stable sort --

def assert_stable_argsort(values: np.ndarray) -> None:
    """`_stable_argsort` against numpy's stable argsort, the referee, index
    for index, and its tie mask against the sorted neighbours."""
    order, tied = _stable_argsort(values)
    expected = np.argsort(values, axis=1, kind="stable")
    assert np.array_equal(order, expected)
    ordered = np.take_along_axis(values, expected, axis=1)
    assert np.array_equal(tied, ordered[:, 1:] == ordered[:, :-1])


def named_sort_matrices() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(60)
    mixed = rng.integers(0, 4, size=(30, 150)).astype(np.float64)
    distinct = np.argsort(rng.random((20, 300)), axis=1).astype(np.float64)
    return {
        "tie-heavy small integers": rng.integers(-2, 3, size=(40, 300)).astype(np.float64),
        "signed zeros mixed": rng.choice([-0.0, 0.0, 1.0, -1.0], size=(40, 200)),
        "signed zeros only": rng.choice([-0.0, 0.0], size=(10, 64)),
        "all-equal rows": np.full((6, 100), 3.5),
        "all-distinct rows": distinct,
        "distinct and tied rows": np.concatenate([distinct[:, :150], mixed]),
        "one sample": rng.integers(0, 2, size=(12, 1)).astype(np.float64),
        "two samples": rng.integers(0, 2, size=(12, 2)).astype(np.float64),
    }


@pytest.mark.parametrize("name", list(named_sort_matrices()))
def test_stable_argsort_matches_referee_on_named_matrices(name):
    assert_stable_argsort(named_sort_matrices()[name])


@settings(max_examples=80, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 120)),
              elements=st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5]),
                                 st.floats(allow_nan=False, width=64))))
def test_stable_argsort_matches_referee(values):
    assert_stable_argsort(values)


def test_best_stump_keeps_signed_zero_thresholds():
    # `==` does not tell -0.0 from 0.0, so compare the reprs: a threshold
    # on a run of zeros is the zero the stable order puts at its edge.
    rng = np.random.default_rng(61)
    for _ in range(20):
        values = rng.choice([-0.0, 0.0, 1.0, -1.0], size=(30, 16))
        positive = rng.random(16) > 0.5
        positive[:2] = True, False
        weights = rng.integers(1, 4, size=16).astype(np.float64)
        found = StumpSearcher(values, positive).best(weights)
        assert repr(found) == repr(whole_matrix_stump(values, positive, weights))


# ------------------------------------------------------------ weak stumps --

def stump_over_table(windows, positive, rows):
    """The best stump over the `rows` features on unnormalized windows of
    equal weight, as `_boost_stage` searches its first round."""
    matrix = WindowStack(windows, False).table_matrix(rows, normalized=False)
    weights = np.full(len(windows), 1.0 / len(windows))
    return matrix, weights, StumpSearcher(matrix, positive).best(weights)


def test_stump_search_separable_case():
    # positives carry a strong top/bottom edge, negatives are flat; the
    # vertical two-rect template separates them perfectly
    rng = np.random.default_rng(50)
    edges, flats = [], []
    for _ in range(10):
        e = np.full((8, 8), 60, dtype=np.uint8)
        e[:4, :] = 200
        edges.append(e + rng.integers(0, 5, size=(8, 8)).astype(np.uint8))
        flats.append(np.full((8, 8), 120, dtype=np.uint8)
                     + rng.integers(0, 5, size=(8, 8)).astype(np.uint8))
    positive = np.arange(20) < 10
    rows = feature_table(8, 8, templates=("edge_v",))
    _, _, found = stump_over_table(np.stack(edges + flats), positive, rows)
    assert found.error <= 1e-9
    assert found.error < 0.5  # not degenerate: it beats chance


def test_best_stump_error_never_above_half():
    rng = np.random.default_rng(51)
    values = rng.normal(size=(30, 40))
    positive = rng.random(40) > 0.5
    weights = rng.random(40)
    weights /= weights.sum()
    assert StumpSearcher(values, positive).best(weights).error <= 0.5 + 1e-12


def test_best_stump_matches_exhaustive_oracle():
    rng = np.random.default_rng(52)
    for trial in range(50):
        nf, ns = 8, 12
        values = rng.integers(-50, 50, size=(nf, ns)).astype(np.float64)
        positive = rng.random(ns) > 0.5
        if positive.all() or not positive.any():
            positive[0] = ~positive[0]
        weights = rng.random(ns)
        weights /= weights.sum()
        found = StumpSearcher(values, positive).best(weights)
        oracle = exhaustive_stump_error(values, positive, weights)
        assert found.error == pytest.approx(oracle, abs=1e-12)
        # the reported stump must achieve its reported error on the samples
        row = values[found.feature_index]
        pred = found.polarity * (row - found.threshold) > 0
        assert weights[pred != positive].sum() == pytest.approx(found.error, abs=1e-12)


def test_stump_search_full_matrix_oracle():
    rng = np.random.default_rng(53)
    windows = rng.integers(0, 256, size=(50, 10, 10)).astype(np.uint8)
    labels = rng.random(50) > 0.5
    if labels.all() or not labels.any():
        labels[0] = ~labels[0]
    rows = feature_table(10, 10, min_size=2, stride=3)[:200]
    matrix, weights, found = stump_over_table(windows, labels, rows)
    oracle = exhaustive_stump_error(matrix, labels, weights)
    assert found.error == pytest.approx(oracle, abs=1e-12)


def assert_blocked_matches_whole(values, positive, weights) -> StumpSearchResult:
    found = StumpSearcher(values, positive).best(weights)
    assert found == whole_matrix_stump(values, positive, weights)
    return found


@pytest.mark.parametrize("seed", range(8))
def test_best_stump_blocks_match_whole_matrix(seed):
    # Small integer values and integer weights make equal errors common,
    # within rows, across polarities and across features.
    rng = np.random.default_rng(seed)
    nf, ns = 2 * STUMP_BLOCK + 37, 24
    values = rng.integers(-3, 4, size=(nf, ns)).astype(np.float64)
    values[rng.integers(nf, size=5)] = 2.0  # all-equal rows
    positive = rng.random(ns) > 0.5
    positive[:2] = True, False
    weights = rng.integers(1, 4, size=ns).astype(np.float64)
    assert_blocked_matches_whole(values, positive, weights)
    assert_blocked_matches_whole(values, positive, weights / weights.sum())


@pytest.mark.parametrize("edge", [STUMP_BLOCK, 2 * STUMP_BLOCK])
def test_best_stump_twin_rows_across_block_edge(edge):
    # The same separating row on both sides of a block edge: the lower
    # index, in the earlier block, must win.
    rng = np.random.default_rng(edge)
    nf, ns = 3 * STUMP_BLOCK, 20
    values = rng.integers(0, 5, size=(nf, ns)).astype(np.float64)
    positive = np.arange(ns) % 2 == 0
    values[edge - 1] = values[edge] = np.where(positive, 7.0, 1.0)
    found = assert_blocked_matches_whole(values, positive, np.ones(ns))
    assert (found.feature_index, found.error) == (edge - 1, 0.0)


def test_best_stump_polarity_tie_goes_to_plus():
    # Sorted labels P N N P: the best +1 cut and the best -1 cut both err
    # on one sample. Every other row is constant and errs on two.
    nf = STUMP_BLOCK + 10
    positive = np.array([True, False, False, True])
    values = np.tile(np.arange(nf, dtype=np.float64)[:, None], (1, 4))
    values[STUMP_BLOCK + 3] = [0.0, 1.0, 2.0, 3.0]
    found = assert_blocked_matches_whole(values, positive, np.ones(4))
    assert found == StumpSearchResult(STUMP_BLOCK + 3, 2.0, 1, 1.0)


@pytest.mark.parametrize("n_pos", [1, 3, 4])
def test_best_stump_all_equal_rows(n_pos):
    # Only the sentinel cuts are valid; at n_pos = 4 all four sentinel
    # stumps tie, and +1 below the row's value wins.
    nf, ns = STUMP_BLOCK + 1, 8
    values = np.repeat(np.arange(nf, dtype=np.float64)[:, None], ns, axis=1)
    positive = np.arange(ns) < n_pos
    found = assert_blocked_matches_whole(values, positive, np.ones(ns))
    assert found.feature_index == 0
    assert found.error == min(n_pos, ns - n_pos)


def test_alpha_formula():
    # epsilon = 0.25: beta = 1/3, alpha = ln 3
    assert _alpha(0.25) == pytest.approx(math.log(3.0))


# ---------------------------------------------------------- window stack --

def all_template_stages(rng, variance_normalization):
    """Three stages of 2-8 weaks drawn from every template."""
    pools = [enumerate_features(20, 20, min_size=2, stride=2, templates=(t,))
             for t in TEMPLATES]
    scale = 1.0 if variance_normalization else 60.0
    stages = []
    for weak_count in (2, 5, 8):
        weaks = []
        for j in range(weak_count):
            pool = pools[j % len(pools)]
            feature = pool[int(rng.integers(len(pool)))]
            area = sum(r.area for r, _ in feature.rects)
            weaks.append(WeakClassifier(
                feature, float(rng.normal(0.0, 0.3 * scale * math.sqrt(area))),
                int(rng.choice([-1, 1])), float(rng.uniform(0.1, 1.0)),
                float(-rng.uniform(0.1, 1.0))))
        stages.append(Stage(tuple(weaks), float(rng.uniform(-0.6, 0.0))))
    return stages


def assert_stack_matches_eval_window(windows, cascade):
    """`WindowStack` stage scores, cascade pass and FP probe against scalar
    `eval_window` on each window, bit for bit."""
    vn = cascade.variance_normalization
    stack = WindowStack(windows, vn)
    iis = [build_integral(GrayImage(w), with_squares=vn) for w in windows]
    verdicts = [eval_window(cascade, ii, (0, 0)) for ii in iis]
    assert np.array_equal(stack.cascade_pass(cascade.stages),
                          [v.accepted for v in verdicts])
    probe = _PoolProbe(windows, vn)
    for k, stage in enumerate(cascade.stages):
        one = Cascade(cascade.window_w, cascade.window_h, (stage,), vn)
        margins = np.array([eval_window(one, ii, (0, 0)).score for ii in iis])
        assert np.array_equal(stack.stage_scores(stage) - stage.threshold, margins)
        # The margin of the stage that rejected a window, or of the last one.
        stopped = np.array([v.stage == k for v in verdicts])
        assert np.array_equal(margins[stopped],
                              [v.score for v in verdicts if v.stage == k])
        subset = np.flatnonzero(probe.alive)
        assert np.array_equal(stack.stage_scores(stage, subset) - stage.threshold,
                              margins[subset])
        probe.begin_stage()
        for weak in stage.weak:
            probe.add_weak(weak)
        assert np.array_equal(probe.alive_scores() - stage.threshold,
                              margins[probe.alive])
        probe.commit_stage(stage.threshold)
    assert np.array_equal(probe.alive, [v.accepted for v in verdicts])


@pytest.mark.parametrize("variance_normalization", [True, False])
def test_window_stack_matches_scalar_path(variance_normalization):
    rng = np.random.default_rng(62)
    windows = rng.integers(0, 256, size=(80, 20, 20), dtype=np.uint8)
    windows[:3] = 90  # flat windows take the unit norm
    stages = all_template_stages(rng, variance_normalization)
    features = [w.feature for s in stages for w in s.weak]

    stack = WindowStack(windows, variance_normalization)
    matrix = stack.table_matrix(table_of(features), normalized=variance_normalization)
    assert matrix.shape == (len(features), len(windows))
    for i, window in enumerate(windows):
        ii = build_integral(GrayImage(window), with_squares=True)
        values = np.array([feature_value(f, ii, (0, 0)) for f in features],
                          dtype=np.float64)
        if variance_normalization:
            values = values / window_norm(ii, 0, 0, 20, 20)
        assert np.array_equal(matrix[:, i], values)

    cascade = Cascade(20, 20, tuple(stages), variance_normalization)
    verdicts = stack.cascade_pass(stages)
    assert verdicts.any() and not verdicts.all()
    assert_stack_matches_eval_window(windows, cascade)


def test_window_stack_matches_scalar_path_on_bench_cascade():
    # The fixed 13-stage, 64-weak trained cascade, on the windows of one
    # scan frame that get past its first five stages.
    cascade = load_cascade(BENCH_CASCADE)
    rng = np.random.default_rng(41)
    img, _ = synth_scene(320, 240, [22, 27], rng, clutter=True)
    ii = build_integral(img, with_squares=True)
    cols = img.width - 20 + 1
    ys, xs = np.divmod(np.arange(cols * (img.height - 20 + 1)), cols)
    _, reached, _ = eval_grid(cascade, ii, xs, ys)
    deep = np.flatnonzero(reached >= 5)
    assert deep.size
    windows = np.stack([img.pixels[y : y + 20, x : x + 20]
                        for x, y in zip(xs[deep], ys[deep])])
    assert_stack_matches_eval_window(windows, cascade)


# ----------------------------------------------------------------- stages --

def _easy_stage_windows(rng, n=40):
    """n moth windows, then n pool windows, and the positive mask."""
    pos = [synth_moth_window(rng) for _ in range(n)]
    negs = synth_negative_images(n, 20, 20, rng)
    return np.stack([w.pixels for w in pos + negs]), np.arange(2 * n) < n


def boost_stage_on(windows, positive, cfg):
    """One stage boosted as `train_cascade` boosts it: over a `cfg.seed`
    subsample of the feature-table rows, with no probe or calibration."""
    table = feature_table(20, 20, cfg.feature_min_size, cfg.feature_stride)
    rows = table[_draw_features(len(table), cfg.feature_subsample,
                                np.random.default_rng(cfg.seed))]
    matrix = WindowStack(windows, cfg.variance_normalization).table_matrix(
        rows, cfg.variance_normalization)
    return _boost_stage(matrix, positive, rows, cfg)


def test_boost_stage_threshold_keeps_all_positives_at_d_one():
    rng = np.random.default_rng(54)
    cfg = TrainConfig(min_detection_rate=1.0, max_weak_per_stage=5,
                      feature_subsample=0.05, seed=1)
    result = boost_stage_on(*_easy_stage_windows(rng), cfg)
    assert result.detection_rate == 1.0


def test_boost_stage_reaches_fp_target_on_separable_set():
    rng = np.random.default_rng(55)
    cfg = TrainConfig(max_fp_rate=0.5, max_weak_per_stage=5,
                      feature_subsample=0.05, seed=2)
    result = boost_stage_on(*_easy_stage_windows(rng), cfg)
    assert result.target_met
    assert len(result.stage.weak) <= 5
    assert result.fp_rate <= 0.5


def test_calibration_positives_only_bound_the_threshold():
    rng = np.random.default_rng(60)
    easy, positive = _easy_stage_windows(rng)
    # Pool windows among the calibration positives score low, so they bind.
    calibration = [synth_moth_window(rng) for _ in range(30)]
    calibration += synth_negative_images(10, 20, 20, rng)
    windows = np.concatenate([easy, [c.pixels for c in calibration]])
    rows = feature_table(20, 20, stride=2)
    matrix = WindowStack(windows).table_matrix(rows, normalized=True)
    cfg = TrainConfig(min_detection_rate=1.0, max_weak_per_stage=8)
    ns = len(easy)
    plain = _boost_stage(matrix[:, :ns], positive, rows, cfg)
    held = _boost_stage(matrix[:, :ns], positive, rows, cfg,
                        calibration=matrix[:, ns:])
    # Same stumps in the same order; the stricter threshold may only make
    # the stage grow further to meet its FP target.
    n = len(plain.stage.weak)
    assert held.stage.weak[:n] == plain.stage.weak
    stack = WindowStack(windows[ns:])
    assert (stack.stage_scores(plain.stage) < plain.stage.threshold).any()
    assert (stack.stage_scores(held.stage) >= held.stage.threshold).all()
    assert held.detection_rate == 1.0


# ---------------------------------------------------------------- cascade --

def _tiny_corpus(rng):
    pos = [synth_moth_window(rng) for _ in range(60)]
    neg = synth_negative_images(40, 64, 64, rng)
    return pos, neg


def test_train_cascade_single_stage_matches_stage_semantics():
    rng = np.random.default_rng(56)
    pos, neg = _tiny_corpus(rng)
    cfg = TrainConfig(num_stages=1, feature_subsample=0.03,
                      max_weak_per_stage=10, seed=3)
    result = train_cascade(pos, neg, cfg)
    assert len(result.cascade.stages) == 1
    assert len(result.log) == 1
    assert result.log[0].fp_rate <= cfg.max_fp_rate


def test_train_cascade_fp_decays_with_stages():
    rng = np.random.default_rng(57)
    pos, neg = _tiny_corpus(rng)
    cfg = TrainConfig(num_stages=4, min_detection_rate=0.95,
                      feature_subsample=0.03, max_weak_per_stage=25,
                      negatives_per_stage=60, seed=4)
    result = train_cascade(pos, neg, cfg)
    assert len(result.log) == 4
    for row in result.log:
        assert row.target_met
        assert row.pool_fp_rate <= cfg.max_fp_rate ** row.stage + 1e-9


def test_train_cascade_deterministic():
    rng1 = np.random.default_rng(58)
    pos, neg = _tiny_corpus(rng1)
    cfg = TrainConfig(num_stages=2, feature_subsample=0.03,
                      max_weak_per_stage=8, seed=5)
    a = train_cascade(pos, neg, cfg)
    b = train_cascade(pos, neg, cfg)
    assert a.cascade == b.cascade
    assert a.log == b.log


def test_mining_scans_the_detector_grid_in_pool_order():
    rng = np.random.default_rng(61)
    pos, neg = _tiny_corpus(rng)
    cfg = TrainConfig(num_stages=2, feature_subsample=0.03,
                      max_weak_per_stage=8, seed=6)
    stages = list(train_cascade(pos, neg, cfg).cascade.stages)
    cascade = Cascade(20, 20, tuple(stages))
    pool = synth_negative_images(3, 40, 34, rng)

    # Oracle: every window detect scans, in pool order, with the scalar
    # verdicts of the first trained stage and of both.
    one = Cascade(20, 20, tuple(stages[:1]))
    windows, accepted_one, accepted = [], [], []
    for img in pool:
        for level in build_pyramid(img, PyramidConfig()):
            ii = build_integral(level, with_squares=True)
            for y in range(level.height - 19):
                for x in range(level.width - 19):
                    windows.append(level.pixels[y : y + 20, x : x + 20])
                    accepted_one.append(eval_window(one, ii, (x, y)).accepted)
                    accepted.append(eval_window(cascade, ii, (x, y)).accepted)
    windows = np.stack(windows)
    grid = _PoolGrid(pool, 20, 20)
    assert grid.size == len(windows)

    probe = np.sort(rng.choice(grid.size, size=grid.size // 4, replace=False))
    assert np.array_equal(grid.windows(probe), windows[probe])
    not_probe = ~np.isin(np.arange(grid.size), probe)
    expected_one = np.flatnonzero(np.array(accepted_one) & not_probe)
    expected = np.flatnonzero(np.array(accepted) & not_probe)
    assert 20 < expected.size < expected_one.size

    # A prefix of the one-stage survivors, then all two-stage survivors:
    # the second scan starts from the survivors the first one kept.
    assert np.array_equal(_mine_negatives(stages[:1], grid, 10, probe, True),
                          windows[expected_one[:10]])
    mined = _mine_negatives(stages, grid, grid.size, probe, True)
    assert np.array_equal(mined, windows[expected])
    assert np.array_equal(_mine_negatives(stages, grid, 20, probe, True),
                          windows[expected[:20]])


def test_train_cascade_requires_positives():
    rng = np.random.default_rng(59)
    _, neg = _tiny_corpus(rng)
    with pytest.raises(ValueError):
        train_cascade([synth_moth_window(rng)], neg, TrainConfig())


def test_training_output_pinned():
    """Cascade JSON and training log of the benchmark's `train` corpus and
    config, pinned by sha-256: a speed-up must leave them byte-identical."""
    rng = np.random.default_rng([0, 2])
    pos = synth_positive_windows(100, rng)
    pool = synth_negative_images(40, 96, 96, rng)
    cfg = TrainConfig(num_stages=8, min_detection_rate=0.999, max_fp_rate=0.5,
                      max_weak_per_stage=30, feature_subsample=0.06,
                      negatives_per_stage=100, seed=7)
    result = train_cascade(pos, pool, cfg)
    sha = lambda text: hashlib.sha256(text.encode()).hexdigest()
    assert sha(cascade_to_json(result.cascade)) == (
        "550a84241583193e798499e4a3cbfebe78ac383747aa2f39c5388bdd5dc423d1")
    assert sha(result.log_text()) == (
        "3379590bd1d206379b769d4fcd487381c580ba86d92b1c3c24e09b13c491dfaa")
