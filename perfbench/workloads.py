"""The three workloads: `scan`, `train` and `node`.

Each workload is a closed loop with one client. It builds its inputs from
the seed and warms up (timed as set-up, see `Setup`), runs its operations
for the requested seconds, checks the outputs, and returns its end-to-end
metrics. With tracing on it instead runs one fixed batch of operations
untraced, traced and untraced again, and returns per-layer metrics of the
traced batch plus the tracing overhead, so counts repeat exactly for a given
seed.

The program is called through module attributes (`detector.detect`, ...)
so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from trapnode import cli, detector, evaluator, power, trainer
from trapnode.cascade import cascade_from_json, cascade_to_json
from trapnode.detector import PyramidConfig, ScratchBudget
from trapnode.synthetic import (synth_negative_images, synth_positive_windows,
                                synth_scene)

from layers import install
from tracing import Tracer

NPROC = len(os.sched_getaffinity(0))
BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = BENCH_DIR / "data"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 6     # set-up samples per run, spread over its seconds

# scan: the paper operating point (5 levels at x1.1, 99.6 kB ii_only budget,
# overlap 20, group IoU 0.3), scored at IoU 0.01.
SCAN_FRAMES = 30
SCAN_CHECK_FRAMES = 2
PYRAMID = PyramidConfig(scale_factor=1.1, num_levels=5)
BUDGET = ScratchBudget(bytes=99_600, mode="ii_only")
UNTILED = ScratchBudget(bytes=10 ** 9, mode="ii_only")
OVERLAP = 20
GROUP_IOU = 0.3
MATCH_IOU = 0.01

# train: a fixed reference corpus, small enough to train several times in a
# run, with a pool small enough that the later stages rescan all of it while
# mining hard negatives. Training cost varies by a factor of 1.5 between
# corpora, so the corpus does not follow the seed; the held-out set does.
TRAIN_CORPUS_SEED = 0
TRAIN_POSITIVES = 100
TRAIN_POOL = 40
POOL_SIDE = 96
HELDOUT_POSITIVES = 200
HELDOUT_NEGATIVES = 20
TRAIN_CONFIG = trainer.TrainConfig(
    num_stages=8, min_detection_rate=0.999, max_fp_rate=0.5,
    max_weak_per_stage=30, feature_subsample=0.06, negatives_per_stage=100,
    seed=7)
MIN_TRAIN_CALLS = 3

# node: every point of a cnn design grid in seeded order before each of four
# simulations: 30 days and a year under both payload policies. The power
# flags are the CLI defaults, so the battery runs out within the year
# (after about 200 days sending counters, 30 sending images); the
# closed-form check applies to the runs that reach their horizon.
CNN_ENGINES = {"gap9": ("conv_accelerator", "worker_cores"),
               "gap8": ("worker_cores",)}
CNN_L1 = (46_700, 64_000, 90_000, 115_600)
CNN_L2 = (267_000, 512_000, 800_000, 1_200_000)
CALIBRATED_CYCLES = 36_212_913   # gap9 accelerator at the default budgets
WAKE_PERIOD_S = 30.0
SIM_DETECTIONS_PER_DAY = 33      # the paper's trap rate, so traces match
POWER_FLAGS = {"--compute-mj": 4.61, "--camera-mj": 0.0,
               "--tx-mj-per-byte": 1.0, "--wake-overhead-mj": 0.0,
               "--wake-period": WAKE_PERIOD_S, "--counter-bytes": 17,
               "--image-bytes": 12_700, "--sleep-uw": 43.0,
               "--battery-mah": 1000.0, "--battery-v": 3.7}


class Ledger:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def call(self, fn, *args, **kwargs):
        """Run one operation; (result, seconds), result None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None, time.perf_counter() - start
        return result, time.perf_counter() - start


class Setup:
    """Set-up time, sampled through the whole run in fresh processes.

    A user pays set-up once, in a fresh process. Repeated in a process that
    has already run the workload, set-up reads up to 47% faster, by an amount
    that depends on the state of the heap. So every sample after the run's
    own set-up runs it in a new process (`workloads.py <workload> <seed>`),
    one at a time. The host's speed drifts over seconds, so the samples are
    spread over the run, taken between operations at least
    `seconds / SETUP_SAMPLES` apart, and read the same mix of host speeds as
    the operations do.
    setup_s is their median. A traced run takes only its own set-up, so its
    batch of operations stays fixed.
    """

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed = workload, seed
        self.every = math.inf if trace else seconds / SETUP_SAMPLES
        start = time.perf_counter()
        self.state = SETUPS[workload](seed)
        end = time.perf_counter()
        self.times = [end - start]
        self.due = end + self.every

    def between_ops(self) -> None:
        """Take a sample if one is due; its inputs equal the run's own."""
        if time.perf_counter() < self.due:
            return
        env = dict(os.environ, PYTHONPATH=str(BENCH_DIR.parent / "src"))
        proc = subprocess.run(
            [sys.executable, __file__, self.workload, str(self.seed)],
            env=env, stdout=subprocess.PIPE, text=True, check=True)
        self.times.append(float(proc.stdout.split()[-1]))
        self.due = time.perf_counter() + self.every


def _op_metrics(seconds: list[float], work_per_s: float, work_n: int) -> dict:
    """Median and 90th percentile of operation durations, in ms, and work
    done per second over `work_n` operations."""
    ms = [s * 1e3 for s in seconds]
    return {"op_ms_p50": _metric(statistics.median(ms), "ms", len(ms)),
            "op_ms_p90": _metric(float(np.percentile(ms, 90)), "ms", len(ms)),
            "work_per_s": _metric(work_per_s, "1/s", work_n)}


def _metric(value, unit, n, better=None):
    entry = {"value": value, "unit": unit, "n": n}
    if better is not None:
        entry["better"] = better
    return entry


def _timed(batch) -> float:
    start = time.perf_counter()
    batch()
    return time.perf_counter() - start


def _traced(batch) -> tuple[Tracer, float]:
    """Run `batch` untraced, traced, and untraced again; return the tracer and
    the overhead in % of the mean untraced time (which cancels a linear drift
    in host speed across the three)."""
    before = _timed(batch)
    tracer = Tracer()
    install(tracer)
    try:
        tracer.active = True
        traced = _timed(batch)
    finally:
        tracer.active = False
        tracer.unwrap_all()
    plain = (before + _timed(batch)) / 2
    return tracer, 100.0 * (traced - plain) / plain


# ------------------------------------------------------------------ scan --

def load_bench_cascade():
    raw = (DATA_DIR / "bench_cascade.json").read_bytes()
    expected = (DATA_DIR / "bench_cascade.sha256").read_text().split()[0]
    digest = hashlib.sha256(raw).hexdigest()
    if digest != expected:
        raise SystemExit(f"bench cascade sha256 {digest} != {expected}; "
                         "rebuild it with perfbench/make_cascade.py")
    return cascade_from_json(raw.decode("ascii"))


def _scan_inputs(seed):
    cascade = load_bench_cascade()
    rng = np.random.default_rng([seed, 1])
    # Every seed gets the same mix, in its own order: each moth count from
    # 0 to 4 on a fifth of the frames, clutter on 80% of them. Frame cost
    # depends on both, so a drawn mix would make it vary with the seed.
    moths = rng.permutation(np.arange(SCAN_FRAMES) % 5)
    clutter = rng.permutation(np.arange(SCAN_FRAMES) < SCAN_FRAMES * 4 // 5)
    frames = []
    for n, cluttered in zip(moths, clutter):
        sides = [int(s) for s in rng.integers(20, 30, size=n)]
        frames.append(synth_scene(320, 240, sides, rng, clutter=bool(cluttered)))
    _detect(frames[0][0], cascade)
    return cascade, frames


def _detect(img, cascade, budget=BUDGET, workers=NPROC):
    return detector.detect(img, cascade, cfg=PYRAMID, budget=budget,
                           overlap=OVERLAP, step=1, workers=workers,
                           group_iou=GROUP_IOU)


def _inside(d, img) -> bool:
    b = d.bbox
    return b.x >= 0 and b.y >= 0 and b.x + b.w <= img.width and b.y + b.h <= img.height


def run_scan(seed: int, seconds: float, trace: bool) -> dict:
    setup = Setup("scan", seed, seconds, trace)
    cascade, frames = setup.state
    ledger = Ledger()

    for img, _ in frames[:SCAN_CHECK_FRAMES]:
        tiled, _ = ledger.call(_detect, img, cascade)
        untiled, _ = ledger.call(_detect, img, cascade, budget=UNTILED, workers=1)
        ledger.check(tiled is not None and tiled == untiled,
                     "tiled detections differ from the untiled scan")

    first: list = [None] * len(frames)
    scores: list = [None] * len(frames)

    def one_frame(i):
        img, boxes = frames[i % len(frames)]
        dets, dt = ledger.call(_detect, img, cascade)
        if dets is None:
            return dt
        report, _ = ledger.call(evaluator.match_detections,
                                [(d.bbox, d.score) for d in dets], boxes, MATCH_IOU)
        j = i % len(frames)
        if first[j] is None:
            first[j], scores[j] = dets, report
            ledger.check(all(_inside(d, img) for d in dets), "box outside frame")
        else:
            ledger.check(dets == first[j], "detections changed between passes")
        return dt

    result = {}
    if trace:
        tracer, overhead = _traced(
            lambda: [one_frame(i) for i in range(len(frames))])
        result["tracer"], result["overhead_pct"] = tracer, overhead
    else:
        frame_s = []
        start = time.perf_counter()
        i = 0
        while i < len(frames) or time.perf_counter() - start < seconds:
            frame_s.append(one_frame(i))
            i += 1
            setup.between_ops()
        result["metrics"] = _op_metrics(frame_s, len(frame_s) / sum(frame_s),
                                       len(frame_s))

    done = [r for r in scores if r is not None]
    gt = sum(r.total_gt for r in done)
    result["quality"] = {
        "scan_recall": _metric(sum(r.matched for r in done) / gt if gt else 1.0,
                               "ratio", gt, "higher"),
        "scan_fp_per_frame": _metric(
            sum(r.false_positives for r in done) / max(len(done), 1),
            "1/frame", len(done), "lower"),
    }
    digest = hashlib.sha256(repr(first).encode()).hexdigest()
    result.update(ledger=ledger, setup_times=setup.times, digest=digest)
    return result


# ----------------------------------------------------------------- train --

def _train_inputs(seed):
    rng = np.random.default_rng([TRAIN_CORPUS_SEED, 2])
    pos = synth_positive_windows(TRAIN_POSITIVES, rng)
    pool = synth_negative_images(TRAIN_POOL, POOL_SIDE, POOL_SIDE, rng)
    rng = np.random.default_rng([seed, 2])
    held_pos = synth_positive_windows(HELDOUT_POSITIVES, rng)
    held_neg = synth_negative_images(HELDOUT_NEGATIVES, POOL_SIDE, POOL_SIDE, rng)
    return pos, pool, held_pos, held_neg


def _heldout(cascade, held_pos, held_neg) -> tuple[float, float, int]:
    """Held-out positive pass rate, accepted share of stride-1 negative
    windows, and the number of negative windows scanned."""
    passed = sum(len(detector.scan_tile(cascade, w)) for w in held_pos)
    hits = sum(len(detector.scan_tile(cascade, img)) for img in held_neg)
    windows = sum((img.width - cascade.window_w + 1)
                  * (img.height - cascade.window_h + 1) for img in held_neg)
    return passed / len(held_pos), hits / windows, windows


def run_train(seed: int, seconds: float, trace: bool) -> dict:
    setup = Setup("train", seed, seconds, trace)
    pos, pool, held_pos, held_neg = setup.state
    ledger = Ledger()
    first: list = []    # (cascade, its JSON) from the first call

    def one_call():
        res, dt = ledger.call(trainer.train_cascade, pos, pool, TRAIN_CONFIG)
        if res is None:
            return dt, 0
        text = cascade_to_json(res.cascade)
        if first:
            ledger.check(text == first[1], "repeated training gave another cascade")
        else:
            first.extend((res.cascade, text))
        return dt, len(res.cascade.stages)

    result = {}
    if trace:
        tracer, overhead = _traced(one_call)
        result["tracer"], result["overhead_pct"] = tracer, overhead
    else:
        calls = []
        start = time.perf_counter()
        while len(calls) < MIN_TRAIN_CALLS or time.perf_counter() - start < seconds:
            calls.append(one_call())
            setup.between_ops()
        train_s = [dt for dt, _ in calls]
        result["metrics"] = _op_metrics(
            train_s, sum(n for _, n in calls) / sum(train_s), len(train_s))

    if first:
        cascade, text = first
        loaded = cascade_from_json(text)
        ledger.check(loaded == cascade and cascade_to_json(loaded) == text,
                     "cascade JSON round trip")
        scored, _ = ledger.call(_heldout, cascade, held_pos, held_neg)
        if scored is not None:
            det, fp, windows = scored
            result["quality"] = {
                "heldout_detection": _metric(det, "ratio", len(held_pos), "higher"),
                "heldout_window_fp": _metric(fp, "ratio", windows, "lower"),
            }
        result["digest"] = hashlib.sha256(text.encode()).hexdigest()
    result.update(ledger=ledger, setup_times=setup.times)
    return result


# ------------------------------------------------------------------ node --

def _node_inputs(seed):
    rng = np.random.default_rng([seed, 3])
    work = OUT_DIR / f"node-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    grid = [["cnn", "--platform", platform, "--engine", engine, "--l1", str(l1),
             "--l2", str(l2)] + dma
            for platform, engines in CNN_ENGINES.items() for engine in engines
            for l1 in CNN_L1 for l2 in CNN_L2
            for dma in ([], ["--no-dma-overlap"])]
    # The calibrated default point, then the grid in seeded order.
    block = [("cnn", ["cnn"], None)]
    block += [("cnn", grid[i], None) for i in rng.permutation(len(grid))]
    calls = []
    for days, policy in itertools.product((30, 365), power.POLICIES):
        horizon_s = days * power.SECONDS_PER_DAY
        arrivals = np.sort(rng.uniform(0.0, horizon_s - WAKE_PERIOD_S,
                                       size=SIM_DETECTIONS_PER_DAY * days))
        trace_path = work / f"trace_{days}d_{policy}.txt"
        trace_path.write_text("\n".join(f"{t:.3f}" for t in arrivals) + "\n",
                              encoding="ascii")
        argv = ["power", "--simulate", str(trace_path), "--horizon-days",
                str(days), "--policy", policy, "--detections-per-day",
                str(SIM_DETECTIONS_PER_DAY)]
        for flag, value in POWER_FLAGS.items():
            argv += [flag, str(value)]
        # A sweep block before each simulation spreads the cnn samples over
        # the run instead of bunching them between long simulations.
        calls += block + [("sim", argv, (days, policy))]
    # Warm-up: each platform/engine pair once, and a one-day simulation.
    out = work / "report.txt"
    for platform, engines in CNN_ENGINES.items():
        for engine in engines:
            cli.main(["cnn", "--platform", platform, "--engine", engine,
                      "--out", str(out)])
    cli.main(calls[-1][1] + ["--horizon-days", "1", "--out", str(out)])
    return calls, out


def _remove_work_dir(work: Path) -> None:
    for path in work.iterdir():
        path.unlink()
    work.rmdir()


def _report_values(path: Path) -> dict[str, float]:
    """Numeric `# key=value` summary lines from the end of a report."""
    with open(path, "rb") as fh:
        fh.seek(max(0, path.stat().st_size - 4096))
        tail = fh.read().decode("ascii").splitlines()
    values = {}
    for line in tail:
        key, sep, value = line[2:].partition("=")
        if line.startswith("# ") and sep and " " not in key:
            try:
                values[key] = float(value)
            except ValueError:
                pass
    return values


def _closed_form_j(days, policy) -> float:
    pe = power.PhaseEnergy(compute_mj=POWER_FLAGS["--compute-mj"],
                           camera_mj=POWER_FLAGS["--camera-mj"],
                           tx_mj_per_byte=POWER_FLAGS["--tx-mj-per-byte"],
                           wake_overhead_mj=POWER_FLAGS["--wake-overhead-mj"])
    cfg = power.DutyCycleConfig(
        wake_period_s=WAKE_PERIOD_S, payload_policy=policy,
        counter_payload_bytes=POWER_FLAGS["--counter-bytes"],
        image_payload_bytes=POWER_FLAGS["--image-bytes"],
        detections_per_day=SIM_DETECTIONS_PER_DAY,
        sleep_power_uw=POWER_FLAGS["--sleep-uw"])
    return power.daily_energy(pe, cfg).daily_j * days


def run_node(seed: int, seconds: float, trace: bool) -> dict:
    setup = Setup("node", seed, seconds, trace)
    calls, out = setup.state
    ledger = Ledger()
    cnn_s: list[float] = []
    sim_s: list[float] = []
    sim_wakes = 0

    def one_round():
        nonlocal sim_wakes
        for kind, argv, sim in calls:
            setup.between_ops()
            rc, dt = ledger.call(cli.main, argv + ["--out", str(out)])
            if not ledger.check(rc == 0, f"exit {rc}: {' '.join(argv)}"):
                continue
            values = _report_values(out)
            if kind == "cnn":
                cnn_s.append(dt)
                if argv == ["cnn"]:
                    ledger.check(values.get("total_cycles") == CALIBRATED_CYCLES,
                                 f"default cnn gave {values.get('total_cycles')} "
                                 f"cycles, not {CALIBRATED_CYCLES}")
                continue
            sim_s.append(dt)
            days = values.get("days_simulated", 0.0)
            sim_wakes += int(days * power.SECONDS_PER_DAY / WAKE_PERIOD_S + 1e-6)
            if "battery_exhausted_at_s" not in values:
                closed = _closed_form_j(*sim)
                ledger.check(abs(values.get("total_j", 0.0) - closed) <= 1e-3 * closed,
                             f"simulate total {values.get('total_j')} J vs closed "
                             f"form {closed} J")

    result = {}
    if trace:
        tracer, overhead = _traced(one_round)
        result["tracer"], result["overhead_pct"] = tracer, overhead
    else:
        start = time.perf_counter()
        while not cnn_s or time.perf_counter() - start < seconds:
            one_round()
        result["metrics"] = _op_metrics(cnn_s, sim_wakes / sum(sim_s), len(sim_s))
    _remove_work_dir(out.parent)
    result.update(ledger=ledger, setup_times=setup.times)
    return result


WORKLOADS = {"scan": run_scan, "train": run_train, "node": run_node}
SETUPS = {"scan": _scan_inputs, "train": _train_inputs, "node": _node_inputs}


if __name__ == "__main__":
    # One set-up sample for `Setup`: print its seconds.
    name, seed = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    state = SETUPS[name](seed)
    print(time.perf_counter() - start)
    if name == "node":
        _remove_work_dir(state[1].parent)
