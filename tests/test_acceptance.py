"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the trained-cascade criterion builds the shipped synthetic corpus and
trains the full 15-stage cascade, which takes a few minutes.
"""

import math
import time

import numpy as np
import pytest

from conftest import (ACCEPTANCE_TRAIN_CONFIG, build_holdout, make_probe_cascade,
                      random_image)
from trapnode.cascade import eval_window
from trapnode.cnngraph import (SHIPPED_GRAPH, count_macs_total, count_params_total,
                               load_graph)
from trapnode.detector import (PyramidConfig, ScratchBudget, detect, plan_tiles)
from trapnode.evaluator import iou, match_detections
from trapnode.imaging import GrayImage
from trapnode.integral import Rect, build_integral, rect_sum
from trapnode.mcu import builtin_platform
from trapnode.power import (Battery, DutyCycleConfig, daily_energy,
                            gap9_cnn_energy, gap9_viola_energy, lifetime,
                            simulate, wake_cycle_energy)
from trapnode.sched import BudgetConfig, compare_budgets, plan_schedule, run_model
from trapnode.synthetic import synth_scene
from trapnode.trainer import (StumpSearcher, WindowStack, _mining_batches,
                              enumerate_features)


def ok(n, text):
    print(f"\nACCEPTANCE {n:2d} PASS: {text}")


def test_criterion_01_tiling_equivalence():
    """Tiled detect == untiled detect, exactly, per level (200 random runs)."""
    start = time.time()
    rng = np.random.default_rng(100)
    cascade = make_probe_cascade(seed=5)
    cfg = PyramidConfig()  # 5 levels, factor 1.1
    untiled_budget = ScratchBudget(bytes=10 ** 9)
    for i in range(200):
        w = int(rng.integers(64, 128))
        h = int(rng.integers(64, 128))
        img = random_image(rng, w, h)
        budget = ScratchBudget(bytes=int(rng.integers(4 * 21 * 21, 50_000)))
        tiled = detect(img, cascade, cfg=cfg, budget=budget, overlap=20, workers=4)
        untiled = detect(img, cascade, cfg=cfg, budget=untiled_budget, workers=1)
        assert tiled == untiled, f"mismatch on image {i} ({w}x{h}, {budget})"
    elapsed = time.time() - start
    assert elapsed < 120
    ok(1, f"tiled == untiled on 200 random images in {elapsed:.1f}s")


def test_criterion_02_integral_oracle():
    """rect_sum equals naive summation on 10000 random (image, rect) pairs."""
    start = time.time()
    rng = np.random.default_rng(101)
    pairs = 0
    while pairs < 10_000:
        w = int(rng.integers(1, 80))
        h = int(rng.integers(1, 80))
        px = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        ii = build_integral(GrayImage(px))
        for _ in range(min(50, 10_000 - pairs)):
            rw = int(rng.integers(1, w + 1))
            rh = int(rng.integers(1, h + 1))
            rx = int(rng.integers(0, w - rw + 1))
            ry = int(rng.integers(0, h - rh + 1))
            r = Rect(rx, ry, rw, rh)
            naive = int(px[ry : ry + rh, rx : rx + rw].astype(np.int64).sum())
            assert rect_sum(ii, r) == naive
            pairs += 1
    elapsed = time.time() - start
    assert elapsed < 10
    ok(2, f"10000 rect sums match the naive oracle in {elapsed:.1f}s")


def test_criterion_03_pyramid_arithmetic():
    """Five x1.1 levels from 320x240 and the 30-px discard rule consistency."""
    img = GrayImage(np.zeros((240, 320), dtype=np.uint8))
    from trapnode.detector import build_pyramid
    dims = [(l.width, l.height) for l in build_pyramid(img, PyramidConfig())]
    assert dims == [(320, 240), (290, 218), (264, 198), (240, 180), (218, 163)]
    top_side = 20 * 1.1 ** 4
    assert top_side < 30
    assert int(math.floor(top_side + 0.5)) == 29  # filter never fires
    ok(3, f"pyramid dims {dims}, top window side {top_side:.2f} < 30")


def test_criterion_04_tile_plan_geometry():
    """99600-byte budget on 320x240: full-height width-100 tiles at
    {0,80,160,240}."""
    tiles = plan_tiles(320, 240, ScratchBudget(bytes=99_600, mode="ii_only"),
                       overlap=20)
    assert [(t.x, t.y, t.w, t.h) for t in tiles] == [
        (0, 0, 100, 240), (80, 0, 100, 240), (160, 0, 100, 240), (240, 0, 80, 240)
    ]
    assert 100 * 240 * 4 == 96_000
    ok(4, "tile plan: full-height width-100 tiles, origins {0,80,160,240}")


@pytest.fixture(scope="session")
def holdout_stats(trained):
    hpos, hneg = build_holdout()
    stages = list(trained.cascade.stages)
    pos_stack = WindowStack(np.stack([p.pixels for p in hpos]), True)
    detection = float(pos_stack.cascade_pass(stages).mean())
    windows = 0
    passing = 0
    for batch in _mining_batches(hneg, 20, 20, 2):
        stack = WindowStack(batch, True)
        passing += int(stack.cascade_pass(stages).sum())
        windows += len(batch)
        if windows >= 60_000:
            break
    return detection, passing / windows


def test_criterion_05_trainer_targets(trained, holdout_stats):
    """15 stages; >=95% held-out detection; <=1e-3 window FP; FP <= 0.5^k."""
    assert len(trained.cascade.stages) == 15
    detection, window_fp = holdout_stats
    assert detection >= 0.95
    assert window_fp <= 1e-3
    for row in trained.log:
        assert row.pool_fp_rate <= 0.5 ** row.stage + 1e-12
    ok(5, f"15-stage cascade: held-out detection {detection:.3f}, "
          f"window FP {window_fp:.2e}, pool FP decay <= 0.5^k")


def test_criterion_06_weak_learner_oracle():
    """Vectorized stump search equals exhaustive threshold search, 50 times."""
    rng = np.random.default_rng(102)
    for _ in range(50):
        nf, ns = 12, 18
        values = rng.integers(-40, 40, size=(nf, ns)).astype(np.float64)
        positive = rng.random(ns) > 0.5
        if positive.all() or not positive.any():
            positive[0] = ~positive[0]
        weights = rng.random(ns)
        weights /= weights.sum()

        best = np.inf
        for row in values:
            cands = np.concatenate([[row.min() - 1], np.unique(row),
                                    [row.max() + 1]])
            for theta in cands:
                for pol in (1, -1):
                    pred = pol * (row - theta) > 0
                    best = min(best, weights[pred != positive].sum())
        found = StumpSearcher(values, positive).best(weights)
        assert found.error == pytest.approx(best, abs=1e-12)
    ok(6, "stump search matches the exhaustive oracle on 50 instances")


def test_criterion_07_evaluator_oracle():
    """Greedy matching vs exhaustive bipartite matching on <=6-box instances."""
    start = time.time()

    def oracle(preds, gts, thr):
        edges = [[gi for gi, g in enumerate(gts) if iou(p, g) >= thr]
                 for p, _ in preds]
        best = 0
        def backtrack(pi, used, count):
            nonlocal best
            best = max(best, count)
            if pi == len(edges) or count + (len(edges) - pi) <= best:
                return
            backtrack(pi + 1, used, count)
            for gi in edges[pi]:
                if gi not in used:
                    backtrack(pi + 1, used | {gi}, count + 1)
        backtrack(0, frozenset(), 0)
        return best

    rng = np.random.default_rng(103)
    equal = trials = 0
    for _ in range(300):
        n_pred = int(rng.integers(0, 7))
        n_gt = int(rng.integers(0, 7))
        boxes = lambda n: [Rect(int(rng.integers(0, 25)), int(rng.integers(0, 25)),
                                int(rng.integers(1, 10)), int(rng.integers(1, 10)))
                           for _ in range(n)]
        preds = [(b, float(rng.random())) for b in boxes(n_pred)]
        gts = boxes(n_gt)
        rep = match_detections(preds, gts, 0.1)
        opt = oracle(preds, gts, 0.1)
        assert rep.matched <= opt
        trials += 1
        equal += rep.matched == opt
        rates = [match_detections(preds, gts, t).detection_rate
                 for t in (0.05, 0.2, 0.5, 0.9)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert equal / trials >= 0.90
    elapsed = time.time() - start
    assert elapsed < 60
    ok(7, f"greedy <= oracle always; equal on {equal}/{trials}; "
          f"monotone in threshold ({elapsed:.1f}s)")


def test_criterion_08_mac_param_totals():
    """Shipped graph within +-10% of 3.44M parameters and 584M MACs."""
    g = load_graph(SHIPPED_GRAPH)
    macs = count_macs_total(g)
    params = count_params_total(g)
    assert abs(macs - 584e6) / 584e6 <= 0.10
    assert abs(params - 3.44e6) / 3.44e6 <= 0.10
    ok(8, f"shipped graph: {macs / 1e6:.1f}M MACs, {params / 1e6:.3f}M params")


def test_criterion_09_latency_endpoints():
    """GAP9 accelerator point within +-20% of 35.3M cycles / 147 ms; budget
    comparison speedup in [1.2, 1.6] with L2-resident share >= 70%."""
    g = load_graph(SHIPPED_GRAPH)
    p = builtin_platform("gap9")
    big = BudgetConfig(l1_bytes=115_600, l2_bytes=1_200_000,
                       engine="conv_accelerator", dma_overlap=True)
    small = BudgetConfig(l1_bytes=46_700, l2_bytes=267_000,
                         engine="conv_accelerator", dma_overlap=True)
    report = run_model(g, p, big)
    assert abs(report.total_cycles - 35.3e6) / 35.3e6 <= 0.20
    wall_ms = report.wall_time_s * 1e3
    assert abs(wall_ms - 147.0) / 147.0 <= 0.20

    comparison = compare_budgets(g, p, [small, big])
    speedup = comparison.speedup(slow=0, fast=1)
    assert comparison.reports[1].total_cycles < comparison.reports[0].total_cycles
    assert 1.2 <= speedup <= 1.6
    share = report.class_cycles["l2_resident"] / report.total_cycles
    assert share >= 0.70
    ok(9, f"{report.total_cycles / 1e6:.1f}M cycles / {wall_ms:.1f} ms, "
          f"speedup {speedup:.2f}, L2 share {share:.0%}")


def test_criterion_10_energy_and_lifetime():
    """Daily energies for the eight table cells, wake-cycle costs, and the
    199/2296/2257-day lifetimes."""
    vj, cnn = gap9_viola_energy(), gap9_cnn_energy()
    cells = [
        (vj, 30.0, "counters_every_wake", 66.9, 0.03),
        (cnn, 30.0, "counters_every_wake", 74.4, 0.01),
        (vj, 900.0, "counters_every_wake", 5.8, 0.01),
        (cnn, 900.0, "counters_every_wake", 5.9, 0.04),
        (vj, 30.0, "image_per_detection", 437.5, 0.01),
        (cnn, 30.0, "image_per_detection", 445.0, 0.01),
        (vj, 900.0, "image_per_detection", 423.3, 0.01),
        (cnn, 900.0, "image_per_detection", 423.4, 0.01),
    ]
    for pe, period, policy, target, tol in cells:
        got = daily_energy(pe, DutyCycleConfig(wake_period_s=period,
                                               payload_policy=policy)).daily_j
        assert got == pytest.approx(target, rel=tol), (period, policy, target)

    assert wake_cycle_energy(gap9_viola_energy(), 17) == pytest.approx(21.61)
    assert 17 * 1.0 == 17.0  # counter radio: 17 B x 1 mJ/B
    assert wake_cycle_energy(gap9_cnn_energy(), 0) == pytest.approx(4.85 + 2.7)
    assert 0.033 * 0.147 * 1000 == pytest.approx(4.85, rel=0.01)  # 33mW x 147ms

    batt = Battery()
    assert lifetime(batt, 66.9).days == 199
    assert lifetime(batt, 5.8).days == 2296
    assert lifetime(batt, 5.9).days == 2257
    ok(10, "eight daily-energy cells within tolerance; lifetimes 199/2296/2257")


def test_criterion_11_simulator_consistency():
    """Discrete-event totals match closed form within 0.1% over 30 days."""
    start = time.time()
    for pe, cfg in (
        (gap9_viola_energy(),
         DutyCycleConfig(wake_period_s=900, payload_policy="counters_every_wake")),
        (gap9_cnn_energy(),
         DutyCycleConfig(wake_period_s=30, payload_policy="counters_every_wake")),
        (gap9_cnn_energy(),
         DutyCycleConfig(wake_period_s=900, payload_policy="image_per_detection")),
    ):
        days = 30.0
        step = 86_400.0 / cfg.detections_per_day
        trace = [i * step for i in range(1, int(cfg.detections_per_day * days) + 1)]
        result = simulate(pe, cfg, Battery(capacity_mah=10_000), trace, days)
        closed = daily_energy(pe, cfg).daily_j * days
        assert abs(result.total_j - closed) / closed <= 1e-3
    elapsed = time.time() - start
    assert elapsed < 10
    ok(11, f"simulator matches closed form within 0.1% ({elapsed:.1f}s)")


def test_criterion_12_cli_determinism(tmp_path):
    """Byte-identical reruns for every command; detect at any worker count."""
    from trapnode.cli import main

    corpus = tmp_path / "corpus"
    rc = main(["synth", str(corpus), "--positives", "40", "--negatives", "20",
               "--neg-size", "64", "--scenes", "1", "--scene-width", "100",
               "--scene-height", "80", "--moths-per-scene", "1", "--seed", "5"])
    assert rc == 0

    def run(args, name):
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        return out.read_bytes()

    train_args = ["train", str(corpus / "positives"), str(corpus / "negatives"),
                  "--stages", "1", "--feature-subsample", "0.02",
                  "--max-weak", "4", "--negatives-per-stage", "40",
                  "--min-detection-rate", "0.95", "--seed", "2"]
    c1 = tmp_path / "c1.json"
    c2 = tmp_path / "c2.json"
    assert main(train_args + ["--out", str(c1), "--log-out", str(tmp_path / "l1")]) == 0
    assert main(train_args + ["--out", str(c2), "--log-out", str(tmp_path / "l2")]) == 0
    assert c1.read_bytes() == c2.read_bytes()
    assert (tmp_path / "l1").read_bytes() == (tmp_path / "l2").read_bytes()

    scene = corpus / "scenes" / "scene_00000.pgm"
    detect_args = ["detect", str(scene), str(c1)]
    d1 = run(detect_args + ["--workers", "1"], "d1.csv")
    d8 = run(detect_args + ["--workers", "8"], "d8.csv")
    d1b = run(detect_args + ["--workers", "1"], "d1b.csv")
    assert d1 == d1b
    rows = lambda b: [l for l in b.decode().splitlines() if not l.startswith("#")]
    assert rows(d1) == rows(d8)

    (tmp_path / "preds.csv").write_bytes(d1)
    eval_args = ["eval", str(tmp_path / "preds.csv"),
                 str(corpus / "scenes" / "ground_truth.csv")]
    assert run(eval_args, "e1.csv") == run(eval_args, "e2.csv")
    assert run(["cnn"], "n1.csv") == run(["cnn"], "n2.csv")
    assert run(["power"], "p1.csv") == run(["power"], "p2.csv")
    ok(12, "all commands byte-identical on rerun; detect worker-invariant")


def test_planted_target_end_to_end(trained):
    """A trained-on-template moth planted in a scene is found at IoU >= 0.5."""
    rng = np.random.default_rng(104)
    scene, boxes = synth_scene(140, 100, [20], rng, clutter=True)
    dets = detect(scene, trained.cascade, cfg=PyramidConfig(num_levels=3),
                  workers=4, group_iou=0.3)
    overlapping = [d for d in dets if iou(d.bbox, boxes[0]) >= 0.5]
    assert len(overlapping) == 1
    assert len(dets) == 1
    ok(0, f"planted target found: {overlapping[0]}")
