"""Command-line surface: detect / train / eval / cnn / power / synth.

Every report starts with a manifest header (command, resolved parameters,
sha-256 digests of the input files, tool version, seed) so a rerun with the
same flags is byte-identical and verifiable. Exit codes: 0 on success, 2 for
usage errors, 3 for unreadable or malformed inputs, 4 for constraint
violations raised by the models.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import inspect
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cascade import CascadeFormatError, load_cascade, save_cascade
from .cnngraph import (SHIPPED_GRAPH, Layer, LayerGraph, count_macs_total,
                       count_params_total, graph_from_json, load_graph)
from .detector import (BudgetTooSmall, Detection, PyramidConfig, ScratchBudget,
                       detect)
from .evaluator import match_by_image
from .imaging import GrayImage, PgmError, load_pgm, save_pgm
from .integral import Rect
from .mcu import (ComputeEngine, MemoryTier, PlatformModel,
                  UnknownPlatform, builtin_platform, platform_from_json)
from .power import (BLOCK_WAKES, POLICIES, Battery, DutyCycleConfig,
                    PhaseEnergy, daily_energy, gap9_viola_energy, lifetime,
                    simulate, wake_cycle_energy)
from .sched import (BudgetConfig, L1PlanError, compare_budgets, estimate_latency,
                    plan_schedule, require_routable)
from .synthetic import synth_negative_images, synth_positive_windows, synth_scene
from .trainer import TrainConfig, train_cascade

EXIT_INPUT_ERROR = 3
EXIT_CONSTRAINT = 4


class InputError(Exception):
    pass


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()[:16]


def manifest_lines(command: str, params: dict, inputs: dict[str, Path],
                   seed=None) -> list[str]:
    lines = [f"# trapnode {__version__}", f"# command={command}"]
    if seed is not None:
        lines.append(f"# seed={seed}")
    for key in sorted(params):
        lines.append(f"# param {key}={params[key]}")
    for name in sorted(inputs):
        lines.append(f"# input {name}=sha256:{_digest(inputs[name])}")
    return lines


def _read_image(path: Path) -> GrayImage:
    try:
        return load_pgm(path.read_bytes())
    except FileNotFoundError:
        raise InputError(f"image not found: {path}") from None
    except PgmError as exc:
        raise InputError(f"{path}: {exc}") from None


def _require_finite(what: str, value) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise InputError(f"{what} must be a finite number, got {value}")


# The JSON types of the scalar field annotations of models read from files.
JSON_TYPES = {"str": str, "bool": bool, "dict": dict, "int": int, "float": (int, float)}


def _check_json(path: Path, what: str, value, kind, nested=()) -> None:
    """Check `value`, at `what` in the JSON file `path`, against `kind`: a
    dataclass (or one in `nested`) takes an object with its fields, a tuple or
    frozenset a list, an int an integer and a float a finite number. An error
    names the first bad key."""
    kind = next((m for m in nested if m.__name__ == kind), kind)
    if dataclasses.is_dataclass(kind):
        if not isinstance(value, dict):
            raise InputError(f"{path}: {what} must be a JSON object")
        fields = {f.name: f for f in dataclasses.fields(kind)}
        for key in value:
            if key not in fields:
                raise InputError(f"{path}: unknown key {what}.{key}")
        for name, field in fields.items():
            if name in value:
                _check_json(path, f"{what}.{name}", value[name], field.type, nested)
            elif field.default is dataclasses.MISSING:
                raise InputError(f"{path}: {what}.{name} is missing")
        return
    container, _, items = kind.partition("[")
    kinds = items[:-1].split(", ")
    fixed = container == "tuple" and kinds[-1] != "..."
    if items:
        if not isinstance(value, list) or fixed and len(value) != len(kinds):
            raise InputError(f"{path}: {what} must be a list ({kind}), got {value!r}")
        for i, item in enumerate(value):
            _check_json(path, f"{what}[{i}]", item, kinds[i if fixed else 0], nested)
    elif (isinstance(value, bool) != (kind == "bool")
          or not isinstance(value, JSON_TYPES[kind])):
        raise InputError(f"{path}: {what} must be {kind}, got {value!r}")
    elif kind in ("int", "float") and not abs(value) <= sys.float_info.max:
        raise InputError(f"{path}: {what} must be a finite number, got {value}")


def _load_checked(path: Path, where: str, model, nested, from_json):
    """A graph or platform from a file named on the command line, its fields
    checked first. A device file's `calibrated` notes are not fields."""
    try:
        text = path.read_text(encoding="ascii")
        doc = json.loads(text)
        if isinstance(doc, dict):
            doc.pop("calibrated", None)
        _check_json(path, where, doc, model, nested)
        return from_json(text)
    except FileNotFoundError:
        raise InputError(f"{where} not found: {path}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: malformed JSON ({exc})") from None
    except ValueError as exc:  # a value the model rejects
        raise InputError(f"{path}: {exc}") from None


@contextlib.contextmanager
def _report(out: str | None):
    """The stream a report is written to: stdout, or a new file at `out`
    that is removed again if writing it fails. A file that cannot be
    opened is an input error."""
    if not out:
        yield sys.stdout
        return
    path = Path(out)
    try:
        fh = path.open("w", encoding="ascii")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None
    try:
        with fh:
            yield fh
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def _emit(text: str, out: str | None) -> None:
    with _report(out) as fh:
        fh.write(text)


# ---------------------------------------------------------------- detect --

def cmd_detect(args) -> int:
    image_path = Path(args.image)
    cascade_path = Path(args.cascade)
    _require_finite("--scale-factor", args.scale_factor)
    _require_finite("--group-iou", args.group_iou)
    img = _read_image(image_path)
    try:
        cascade = load_cascade(cascade_path)
    except FileNotFoundError:
        raise InputError(f"cascade not found: {cascade_path}") from None
    except CascadeFormatError as exc:
        raise InputError(f"{cascade_path}: {exc}") from None

    cfg = PyramidConfig(scale_factor=args.scale_factor, num_levels=args.scales,
                        max_detection_px=args.max_side)
    budget = ScratchBudget(bytes=args.budget, mode=args.budget_mode)
    detections = detect(img, cascade, cfg=cfg, budget=budget,
                        overlap=args.overlap, step=args.step,
                        workers=args.workers, group_iou=args.group_iou)

    params = {
        "scales": args.scales, "scale_factor": args.scale_factor,
        "max_side": args.max_side, "budget": args.budget,
        "budget_mode": args.budget_mode, "overlap": args.overlap,
        "step": args.step, "workers": args.workers,
        "group_iou": args.group_iou,
    }
    lines = manifest_lines("detect", params,
                           {"image": image_path, "cascade": cascade_path})
    lines.append("image_id,x,y,w,h,level,score")
    image_id = image_path.stem
    for d in detections:
        lines.append(f"{image_id},{d.bbox.x},{d.bbox.y},{d.bbox.w},{d.bbox.h},"
                     f"{d.level},{d.score:.6f}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ----------------------------------------------------------------- train --

def _load_dir(path: Path) -> list[GrayImage]:
    if not path.is_dir():
        raise InputError(f"not a directory: {path}")
    images = []
    for f in sorted(path.glob("*.pgm")):
        images.append(_read_image(f))
    if not images:
        raise InputError(f"no .pgm files in {path}")
    return images


def cmd_train(args) -> int:
    pos_dir = Path(args.positives)
    neg_dir = Path(args.negatives)
    pos = _load_dir(pos_dir)
    neg = _load_dir(neg_dir)
    cfg = TrainConfig(
        num_stages=args.stages,
        min_detection_rate=args.min_detection_rate,
        max_fp_rate=args.max_fp_rate,
        max_weak_per_stage=args.max_weak,
        feature_subsample=args.feature_subsample,
        feature_min_size=args.feature_min_size,
        feature_stride=args.feature_stride,
        negatives_per_stage=args.negatives_per_stage,
        seed=args.seed,
    )
    result = train_cascade(pos, neg, cfg)
    save_cascade(result.cascade, args.out)

    params = {
        "stages": args.stages, "min_detection_rate": args.min_detection_rate,
        "max_fp_rate": args.max_fp_rate, "max_weak": args.max_weak,
        "feature_subsample": args.feature_subsample,
        "feature_min_size": args.feature_min_size,
        "feature_stride": args.feature_stride,
        "negatives_per_stage": args.negatives_per_stage,
        "positives": pos_dir, "negatives": neg_dir,
    }
    lines = manifest_lines("train", params, {}, seed=args.seed)
    lines.append(result.log_text().rstrip("\n"))
    if result.pool_exhausted:
        lines.append(f"# pool exhausted after {len(result.cascade.stages)} stages")
    _emit("\n".join(lines) + "\n", args.log_out)
    return 0


# ------------------------------------------------------------------ eval --

def _parse_box_file(path: Path, with_score: bool):
    if not path.is_file():
        raise InputError(f"file not found: {path}")
    by_image: dict[str, list] = {}
    # Bytes past ASCII decode to lone surrogates, which split no line.
    text = path.read_bytes().decode("ascii", errors="surrogateescape")
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.isascii():
            raise InputError(f"{path}:{lineno}: not ASCII text")
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("image_id"):
            continue
        parts = line.split(",")
        try:
            image_id = parts[0]
            x, y, w, h = (int(v) for v in parts[1:5])
            rect = Rect(x, y, w, h)
            if with_score:
                score = float(parts[6]) if len(parts) > 6 else 0.0
                if not math.isfinite(score):
                    # match_detections orders predictions by score.
                    raise ValueError(f"score must be a finite number, "
                                     f"got {parts[6]!r}")
                by_image.setdefault(image_id, []).append((rect, score))
            else:
                by_image.setdefault(image_id, []).append(rect)
        except (ValueError, IndexError) as exc:
            raise InputError(f"{path}:{lineno}: bad row ({exc})") from None
    return by_image


def cmd_eval(args) -> int:
    _require_finite("--iou", args.iou)
    pred_path = Path(args.predictions)
    gt_path = Path(args.ground_truth)
    preds = _parse_box_file(pred_path, with_score=True)
    gts = _parse_box_file(gt_path, with_score=False)
    report = match_by_image(preds, gts, args.iou)

    params = {"iou": args.iou}
    lines = manifest_lines("eval", params,
                           {"predictions": pred_path, "ground_truth": gt_path})
    lines.append("matched,total_gt,total_pred,detection_rate,false_positives")
    lines.append(f"{report.matched},{report.total_gt},{report.total_pred},"
                 f"{report.detection_rate:.6f},{report.false_positives}")
    _emit("\n".join(lines) + "\n", args.out)
    if args.json_out:
        _emit(json.dumps({
            "matched": report.matched,
            "total_gt": report.total_gt,
            "total_pred": report.total_pred,
            "detection_rate": report.detection_rate,
            "false_positives": report.false_positives,
        }, indent=1), args.json_out)
    return 0


# ------------------------------------------------------------------- cnn --

def _resolve_platform(spec: str):
    try:
        return builtin_platform(spec)
    except UnknownPlatform:
        pass
    candidates = [Path(spec)]
    env = os.environ.get("TRAPNODE_PLATFORM_PATH")
    if env:
        candidates.append(Path(env) / spec)
        candidates.append(Path(env) / f"{spec}.json")
    for c in candidates:
        if c.is_file():
            return _load_checked(
                c, "platform", PlatformModel, (MemoryTier, ComputeEngine),
                lambda text: require_routable(platform_from_json(text)))
    raise InputError(f"unknown platform {spec!r} (no builtin, file, or "
                     "TRAPNODE_PLATFORM_PATH match)")


def _latency_lines(schedule, report) -> list[str]:
    lines = ["layer,weight_home,input_home,output_home,class,"
             "compute_cycles,transfer_cycles,total_cycles"]
    for cost, p in zip(report.layers, schedule.placements):
        lines.append(
            f"{cost.name},{p.weight_home},{p.input_home},{p.output_home},"
            f"{cost.transfer_class},{cost.compute_cycles:.0f},"
            f"{cost.transfer_cycles:.0f},{cost.total_cycles:.0f}"
        )
    lines.append(f"# total_cycles={report.total_cycles:.0f}")
    lines.append(f"# compute_cycles={report.compute_cycles:.0f}")
    lines.append(f"# transfer_cycles={report.transfer_cycles:.0f}")
    for cls in sorted(report.class_cycles):
        lines.append(f"# class {cls}={report.class_cycles[cls]:.0f}")
    lines.append(f"# mac_per_cycle={report.mac_per_cycle:.3f}")
    lines.append(f"# wall_time_ms={report.wall_time_s * 1e3:.3f}")
    return lines


def cmd_cnn(args) -> int:
    graph_path = Path(args.graph)
    graph = (load_graph(graph_path) if graph_path == SHIPPED_GRAPH  # trusted
             else _load_checked(graph_path, "graph", LayerGraph, (Layer,),
                                graph_from_json))
    platform = _resolve_platform(args.platform)

    params = {
        "platform": args.platform, "engine": args.engine,
        "l1": args.l1, "l2": args.l2,
        "dma_overlap": args.dma_overlap and platform.dma_overlap,
    }
    lines = manifest_lines("cnn", params, {"graph": graph_path})
    lines.append(f"# graph {graph.name}: macs={count_macs_total(graph)} "
                 f"params={count_params_total(graph)}")

    if args.compare_budgets:
        if len(args.compare_budgets) < 2:
            raise InputError("--compare-budgets needs at least two L1:L2 pairs, "
                             f"got only {args.compare_budgets[0]!r}")
        budgets = []
        for pair in args.compare_budgets:
            try:
                l1, l2 = (int(v) for v in pair.split(":"))
            except ValueError:
                raise InputError(f"--compare-budgets: bad pair {pair!r}, "
                                 "expected L1:L2 in bytes") from None
            budgets.append(BudgetConfig(l1, l2, args.engine, args.dma_overlap))
        comparison = compare_budgets(graph, platform, budgets)
        for budget, rep in zip(comparison.budgets, comparison.reports):
            lines.append(f"# budget l1={budget.l1_bytes} l2={budget.l2_bytes} "
                         f"total_cycles={rep.total_cycles:.0f} "
                         f"wall_time_ms={rep.wall_time_s * 1e3:.3f}")
        lines.append(f"# speedup={comparison.speedup():.3f}")
        lines.append(f"# monotone={int(comparison.monotone_nonincreasing)}")
    else:
        budget = BudgetConfig(args.l1, args.l2, args.engine, args.dma_overlap)
        schedule = plan_schedule(graph, platform, budget)
        report = estimate_latency(schedule, graph, platform, budget)
        lines.append(f"# peak_l2_bytes={schedule.peak_l2_bytes}")
        lines.append(f"# peak_ext_bytes={schedule.peak_ext_bytes}")
        lines.extend(_latency_lines(schedule, report))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ----------------------------------------------------------------- power --

# Scenario file sections, each the keyword arguments of one power model.
SCENARIO_SECTIONS = {"phase_energy": PhaseEnergy, "duty_cycle": DutyCycleConfig,
                     "battery": Battery}


def _read_trace(path: Path) -> list[float]:
    """Arrival times in seconds, whitespace-separated; each must be a finite
    number, and none may precede the one before it."""
    if not path.is_file():
        raise InputError(f"trace file not found: {path}")
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None
    trace = []
    for lineno, line in enumerate(text.splitlines(), 1):
        for token in line.split():
            try:
                t = float(token)
            except ValueError:
                t = math.nan
            if not math.isfinite(t):
                raise InputError(f"{path}:{lineno}: arrival time must be a "
                                 f"finite number, got {token!r}")
            if trace and t < trace[-1]:
                raise InputError(f"{path}:{lineno}: arrival times must be "
                                 f"sorted, got {token!r} after {trace[-1]:g}")
            trace.append(t)
    return trace


def _scenario_from_args(args):
    for name, value in vars(args).items():  # every float flag must be finite
        _require_finite("--" + name.replace("_", "-"), value)
    if args.scenario:
        path = Path(args.scenario)
        if not path.is_file():
            raise InputError(f"scenario file not found: {path}")
        try:
            doc = json.loads(path.read_text(encoding="ascii"))
        except ValueError as exc:  # bad encoding, syntax or number
            raise InputError(f"{path}: malformed JSON ({exc})") from None
        if not isinstance(doc, dict):
            raise InputError(f"{path}: a scenario must be a JSON object")
        for section in doc:
            if section not in SCENARIO_SECTIONS:
                raise InputError(f"{path}: unknown section {section!r}")
        for section, model in SCENARIO_SECTIONS.items():
            _check_json(path, section, doc.get(section, {}), model)
        return tuple(model(**doc.get(section, {}))
                     for section, model in SCENARIO_SECTIONS.items())
    pe = PhaseEnergy(compute_mj=args.compute_mj, camera_mj=args.camera_mj,
                     tx_mj_per_byte=args.tx_mj_per_byte,
                     wake_overhead_mj=args.wake_overhead_mj)
    cfg = DutyCycleConfig(
        wake_period_s=args.wake_period, payload_policy=args.policy,
        counter_payload_bytes=args.counter_bytes,
        image_payload_bytes=args.image_bytes,
        detections_per_day=args.detections_per_day,
        sleep_power_uw=args.sleep_uw,
    )
    batt = Battery(capacity_mah=args.battery_mah, voltage_v=args.battery_v)
    return pe, cfg, batt


def cmd_power(args) -> int:
    pe, cfg, batt = _scenario_from_args(args)
    # Finite capacity and voltage can still multiply past the float range.
    _require_finite("battery energy in joules", batt.energy_j)
    params = {
        "wake_period": cfg.wake_period_s, "policy": cfg.payload_policy,
        "compute_mj": pe.compute_mj, "overhead_mj": pe.wake_overhead_mj,
        "sleep_uw": cfg.sleep_power_uw,
        "battery_mah": batt.capacity_mah, "battery_v": batt.voltage_v,
    }
    inputs = {}
    if args.scenario:
        inputs["scenario"] = Path(args.scenario)
    if args.simulate:
        inputs["trace"] = Path(args.simulate)
    lines = manifest_lines("power", params, inputs)

    if args.simulate:
        trace = _read_trace(Path(args.simulate))
        result = simulate(pe, cfg, batt, trace, args.horizon_days)
        lines.append("t_s,new_detections,wake_mj,battery_j_left")
        summary = [f"# days_simulated={result.days_simulated:.6f}",
                   f"# total_j={result.total_j:.6f}"]
        for phase in ("compute", "radio", "camera", "sleep", "overhead"):
            summary.append(f"# {phase}_j={getattr(result, phase + '_j'):.6f}")
        if result.battery_exhausted_at_s is not None:
            summary.append(f"# battery_exhausted_at_s={result.battery_exhausted_at_s:.3f}")
        # The rows are written a block at a time, never held as one string.
        tl = result.timeline
        columns = (tl.t_s, tl.new_detections, tl.wake_mj, tl.battery_j_left)
        row = "%.3f,%d,%.6f,%.6f\n".__mod__
        with _report(args.out) as fh:
            fh.write("\n".join(lines) + "\n")
            for i in range(0, len(tl), BLOCK_WAKES):
                block = (c[i:i + BLOCK_WAKES].tolist() for c in columns)
                fh.write("".join(map(row, zip(*block))))
            fh.write("\n".join(summary) + "\n")
        return 0

    ledger = daily_energy(pe, cfg)
    wake_counter = wake_cycle_energy(pe, cfg.counter_payload_bytes)
    life = lifetime(batt, ledger.daily_j)
    lines.append("phase,joules_per_day")
    for phase in ("compute", "radio", "camera", "sleep", "overhead"):
        lines.append(f"{phase},{getattr(ledger, phase + '_j'):.6f}")
    lines.append(f"# daily_j={ledger.daily_j:.6f}")
    lines.append(f"# wake_cycle_counter_mj={wake_counter:.6f}")
    lines.append(f"# battery_j={batt.energy_j:.3f}")
    lines.append(f"# lifetime_days={life.days}")
    lines.append(f"# lifetime_days_exact={life.days_exact:.3f}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ----------------------------------------------------------------- synth --

def cmd_synth(args) -> int:
    rng = np.random.default_rng(args.seed)
    out = Path(args.out_dir)
    pos_dir = out / "positives"
    neg_dir = out / "negatives"
    scene_dir = out / "scenes"
    for d in (pos_dir, neg_dir, scene_dir):
        d.mkdir(parents=True, exist_ok=True)
    for i, win in enumerate(synth_positive_windows(args.positives, rng)):
        (pos_dir / f"pos_{i:05d}.pgm").write_bytes(save_pgm(win))
    for i, img in enumerate(synth_negative_images(args.negatives, args.neg_size,
                                                  args.neg_size, rng)):
        (neg_dir / f"neg_{i:05d}.pgm").write_bytes(save_pgm(img))
    gt_lines = []
    for i in range(args.scenes):
        scene, boxes = synth_scene(args.scene_width, args.scene_height,
                                   [20] * args.moths_per_scene, rng)
        name = f"scene_{i:05d}"
        (scene_dir / f"{name}.pgm").write_bytes(save_pgm(scene))
        for b in boxes:
            gt_lines.append(f"{name},{b.x},{b.y},{b.w},{b.h}")
    (scene_dir / "ground_truth.csv").write_text(
        "\n".join(gt_lines) + "\n" if gt_lines else "", encoding="ascii")
    sys.stdout.write(
        f"wrote {args.positives} positives, {args.negatives} negatives, "
        f"{args.scenes} scenes under {out}\n"
    )
    return 0


# ---------------------------------------------------------------- parser --

@functools.cache  # one parser per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trapnode",
        description="Camera-trap pest-detection node toolkit: Viola-Jones "
                    "detector, MCU latency model, duty-cycle energy model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Flag defaults are the defaults of the models the flags configure.
    pyramid, scratch, train = PyramidConfig(), ScratchBudget(), TrainConfig()
    budget, energy = BudgetConfig(), gap9_viola_energy()
    duty, battery = DutyCycleConfig(), Battery()
    scan = {name: param.default
            for name, param in inspect.signature(detect).parameters.items()}

    p = sub.add_parser("detect", help="run the multi-scale cascade detector")
    p.add_argument("image", help="input PGM image")
    p.add_argument("cascade", help="cascade file")
    p.add_argument("--scales", type=int, default=pyramid.num_levels)
    p.add_argument("--scale-factor", type=float, default=pyramid.scale_factor)
    p.add_argument("--max-side", type=int, default=pyramid.max_detection_px)
    p.add_argument("--budget", type=int, default=scratch.bytes)
    p.add_argument("--budget-mode", default=scratch.mode,
                   choices=["ii_only", "ii_plus_input",
                            "ii_plus_input_plus_squares"])
    p.add_argument("--overlap", type=int, default=scan["overlap"])
    p.add_argument("--step", type=int, default=scan["step"])
    p.add_argument("--workers", type=int, default=scan["workers"])
    p.add_argument("--group-iou", type=float, default=scan["group_iou"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("train", help="train a cascade on PGM directories")
    p.add_argument("positives", help="directory of window-sized PGM patches")
    p.add_argument("negatives", help="directory of negative pool PGM images")
    p.add_argument("--out", required=True, help="cascade output file")
    p.add_argument("--log-out", default=None)
    p.add_argument("--stages", type=int, default=train.num_stages)
    p.add_argument("--min-detection-rate", type=float, default=train.min_detection_rate)
    p.add_argument("--max-fp-rate", type=float, default=train.max_fp_rate)
    p.add_argument("--max-weak", type=int, default=train.max_weak_per_stage)
    p.add_argument("--feature-subsample", type=float, default=train.feature_subsample)
    p.add_argument("--feature-min-size", type=int, default=train.feature_min_size)
    p.add_argument("--feature-stride", type=int, default=train.feature_stride)
    p.add_argument("--negatives-per-stage", type=int, default=train.negatives_per_stage)
    p.add_argument("--seed", type=int, default=train.seed)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score detections against ground truth")
    p.add_argument("predictions", help="detection report file")
    p.add_argument("ground_truth", help="ground-truth boxes file")
    p.add_argument("--iou", type=float, default=0.01)
    p.add_argument("--out", default=None)
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cnn", help="schedule a CNN graph and estimate latency")
    p.add_argument("--graph", default=str(SHIPPED_GRAPH),
                   help="graph file (default: shipped mbnv3_ssdlite_320x240)")
    p.add_argument("--platform", default="gap9",
                   help="builtin name, file path, or name under "
                        "TRAPNODE_PLATFORM_PATH")
    p.add_argument("--engine", default=budget.engine,
                   choices=["conv_accelerator", "worker_cores"])
    p.add_argument("--l1", type=int, default=budget.l1_bytes)
    p.add_argument("--l2", type=int, default=budget.l2_bytes)
    p.add_argument("--no-dma-overlap", dest="dma_overlap", action="store_false")
    p.add_argument("--compare-budgets", nargs="+", metavar="L1:L2",
                   default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cnn)

    p = sub.add_parser("power", help="daily energy, lifetime, and simulation")
    p.add_argument("--scenario", default=None, help="scenario JSON file")
    p.add_argument("--compute-mj", type=float, default=energy.compute_mj)
    p.add_argument("--camera-mj", type=float, default=energy.camera_mj)
    p.add_argument("--tx-mj-per-byte", type=float, default=energy.tx_mj_per_byte)
    p.add_argument("--wake-overhead-mj", type=float, default=energy.wake_overhead_mj)
    p.add_argument("--wake-period", type=float, default=duty.wake_period_s)
    p.add_argument("--policy", default=duty.payload_policy, choices=POLICIES)
    p.add_argument("--counter-bytes", type=int, default=duty.counter_payload_bytes)
    p.add_argument("--image-bytes", type=int, default=duty.image_payload_bytes)
    p.add_argument("--detections-per-day", type=float, default=duty.detections_per_day)
    p.add_argument("--sleep-uw", type=float, default=duty.sleep_power_uw)
    p.add_argument("--battery-mah", type=float, default=battery.capacity_mah)
    p.add_argument("--battery-v", type=float, default=battery.voltage_v)
    p.add_argument("--simulate", default=None,
                   help="moth-arrival trace file (one timestamp per line)")
    p.add_argument("--horizon-days", type=float, default=30.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("synth", help="generate the synthetic moth corpus")
    p.add_argument("out_dir")
    p.add_argument("--positives", type=int, default=400)
    p.add_argument("--negatives", type=int, default=900)
    p.add_argument("--neg-size", type=int, default=96)
    p.add_argument("--scenes", type=int, default=4)
    p.add_argument("--scene-width", type=int, default=320)
    p.add_argument("--scene-height", type=int, default=240)
    p.add_argument("--moths-per-scene", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (BudgetTooSmall, L1PlanError) as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT


if __name__ == "__main__":
    sys.exit(main())
