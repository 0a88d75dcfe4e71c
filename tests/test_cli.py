import builtins
import contextlib
import copy
import functools
import hashlib
import inspect
import io
import json
import math
import itertools
import operator
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trapnode
from trapnode.cli import _fixed_point, _sim_rows, build_parser, main
from trapnode.cnngraph import SHIPPED_GRAPH, LayerGraph, graph_from_json
from trapnode.detector import detect
from trapnode.imaging import GrayImage, save_pgm
from trapnode.mcu import PlatformModel, platform_from_json
from trapnode.synthetic import synth_scene


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Tiny corpus + 2-stage cascade trained through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    rc = main(["synth", str(root / "corpus"), "--positives", "60",
               "--negatives", "30", "--neg-size", "64", "--scenes", "1",
               "--scene-width", "120", "--scene-height", "90",
               "--moths-per-scene", "2", "--seed", "3"])
    assert rc == 0
    rc = main(["train", str(root / "corpus" / "positives"),
               str(root / "corpus" / "negatives"),
               "--out", str(root / "cascade.json"),
               "--log-out", str(root / "train.log"),
               "--stages", "2", "--feature-subsample", "0.03",
               "--max-weak", "10", "--negatives-per-stage", "60",
               "--min-detection-rate", "0.95", "--seed", "1"])
    assert rc == 0
    return root


def run_to_file(argv, out: Path) -> bytes:
    rc = main(argv + ["--out", str(out)])
    assert rc == 0
    return out.read_bytes()


def test_detect_deterministic_and_worker_invariant(workdir):
    scene = workdir / "corpus" / "scenes" / "scene_00000.pgm"
    base = ["detect", str(scene), str(workdir / "cascade.json")]
    a = run_to_file(base + ["--workers", "1"], workdir / "a.csv")
    b = run_to_file(base + ["--workers", "8"], workdir / "b.csv")
    c = run_to_file(base + ["--workers", "1"], workdir / "c.csv")
    # worker flag shows up in the manifest; rows must match exactly
    rows_a = [l for l in a.decode().splitlines() if not l.startswith("#")]
    rows_b = [l for l in b.decode().splitlines() if not l.startswith("#")]
    assert rows_a == rows_b
    assert a == c


def test_detect_report_format(workdir):
    scene = workdir / "corpus" / "scenes" / "scene_00000.pgm"
    out = run_to_file(["detect", str(scene), str(workdir / "cascade.json")],
                      workdir / "fmt.csv").decode()
    lines = out.splitlines()
    assert lines[0].startswith("# trapnode")
    assert any(l.startswith("# command=detect") for l in lines)
    assert any(l.startswith("# input image=sha256:") for l in lines)
    header_idx = lines.index("image_id,x,y,w,h,level,score")
    for row in lines[header_idx + 1:]:
        fields = row.split(",")
        assert len(fields) == 7
        int(fields[1]); int(fields[2]); float(fields[6])


def test_train_rerun_byte_identical(workdir, tmp_path):
    args = ["train", str(workdir / "corpus" / "positives"),
            str(workdir / "corpus" / "negatives"),
            "--stages", "1", "--feature-subsample", "0.02",
            "--max-weak", "5", "--negatives-per-stage", "40",
            "--min-detection-rate", "0.95", "--seed", "9"]
    rc = main(args + ["--out", str(tmp_path / "c1.json"),
                      "--log-out", str(tmp_path / "l1.txt")])
    assert rc == 0
    rc = main(args + ["--out", str(tmp_path / "c2.json"),
                      "--log-out", str(tmp_path / "l2.txt")])
    assert rc == 0
    assert (tmp_path / "c1.json").read_bytes() == (tmp_path / "c2.json").read_bytes()
    assert (tmp_path / "l1.txt").read_bytes() == (tmp_path / "l2.txt").read_bytes()


def test_train_output_pinned(tmp_path, monkeypatch):
    """Criterion 12's train run, pinned by sha-256 of the cascade file and
    of the log. The corpus sits at a relative path, since the log's
    manifest names its directories."""
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "corpus", "--positives", "40", "--negatives", "20",
                 "--neg-size", "64", "--scenes", "1", "--scene-width", "100",
                 "--scene-height", "80", "--moths-per-scene", "1",
                 "--seed", "5"]) == 0
    assert main(["train", "corpus/positives", "corpus/negatives",
                 "--stages", "1", "--feature-subsample", "0.02",
                 "--max-weak", "4", "--negatives-per-stage", "40",
                 "--min-detection-rate", "0.95", "--seed", "2",
                 "--out", "c.json", "--log-out", "l.txt"]) == 0
    sha = lambda name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
    assert sha("c.json") == (
        "5d67fe501926c24371753add834bd5b9016bdfad4daa75c4ba25b66b903a7f0c")
    assert sha("l.txt") == (
        "2424b39fa5d74a7d65a5c57ffa5b827047a6e19bde53668f362e857333502ee9")


def test_eval_pipeline(workdir, tmp_path):
    scene = workdir / "corpus" / "scenes" / "scene_00000.pgm"
    preds = tmp_path / "preds.csv"
    run_to_file(["detect", str(scene), str(workdir / "cascade.json"),
                 "--group-iou", "0.3"], preds)
    gt = workdir / "corpus" / "scenes" / "ground_truth.csv"
    out = run_to_file(["eval", str(preds), str(gt), "--iou", "0.01"],
                      tmp_path / "eval.csv").decode()
    assert "matched,total_gt,total_pred,detection_rate,false_positives" in out
    rc = main(["eval", str(preds), str(gt), "--json-out",
               str(tmp_path / "eval.json"), "--out", str(tmp_path / "e2.csv")])
    assert rc == 0
    doc = json.loads((tmp_path / "eval.json").read_text())
    assert set(doc) == {"matched", "total_gt", "total_pred",
                        "detection_rate", "false_positives"}


def test_eval_exact_match_is_perfect(tmp_path):
    gt = tmp_path / "gt.csv"
    gt.write_text("img,5,6,20,20\nimg,40,40,20,20\n")
    preds = tmp_path / "p.csv"
    preds.write_text("img,5,6,20,20,0,1.0\nimg,40,40,20,20,0,0.9\n")
    out = tmp_path / "r.csv"
    assert main(["eval", str(preds), str(gt), "--out", str(out)]) == 0
    assert ",1.000000," in out.read_text()


@pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
def test_eval_rejects_non_finite_score(score, tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    gt.write_text("img,5,6,20,20\n")
    preds = tmp_path / "p.csv"
    preds.write_text(f"img,5,6,20,20,0,1.0\nimg,40,40,20,20,0,{score}\n")
    rc = main(["eval", str(preds), str(gt), "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{preds}:2:" in err and "finite" in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("bad", ["predictions", "ground_truth"])
def test_eval_rejects_non_ascii_file(bad, tmp_path, capsys):
    files = {"predictions": "img,5,6,20,20,0,1.0\n", "ground_truth": "img,5,6,20,20\n"}
    for name, text in files.items():
        (tmp_path / name).write_bytes(
            (text + "# caf\u00e9\n" if name == bad else text).encode())
    rc = main(["eval", str(tmp_path / "predictions"), str(tmp_path / "ground_truth"),
               "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{tmp_path / bad}:2: not ASCII" in err
    assert not (tmp_path / "r.csv").exists()


def test_cnn_defaults_reproduce_paper_point(tmp_path):
    out = run_to_file(["cnn"], tmp_path / "cnn.csv").decode()
    total = next(l for l in out.splitlines() if l.startswith("# total_cycles="))
    cycles = float(total.split("=")[1])
    assert abs(cycles - 35.3e6) / 35.3e6 <= 0.20
    wall = next(l for l in out.splitlines() if l.startswith("# wall_time_ms="))
    assert abs(float(wall.split("=")[1]) - 147.0) / 147.0 <= 0.20


def test_cnn_worker_cores_never_faster(tmp_path):
    acc = run_to_file(["cnn"], tmp_path / "a.csv").decode()
    cores = run_to_file(["cnn", "--engine", "worker_cores"], tmp_path / "c.csv").decode()
    def compute_of(text):
        return float(next(l for l in text.splitlines()
                          if l.startswith("# compute_cycles=")).split("=")[1])
    assert compute_of(cores) >= compute_of(acc)


def test_cnn_compare_budgets(tmp_path):
    out = run_to_file(["cnn", "--compare-budgets", "46700:267000",
                       "115600:1200000"], tmp_path / "cmp.csv").decode()
    speed = float(next(l for l in out.splitlines()
                       if l.startswith("# speedup=")).split("=")[1])
    assert 1.2 <= speed <= 1.6
    assert "# monotone=1" in out


@pytest.mark.parametrize("pairs,bad", [
    (["1:2:3", "46700:267000"], "'1:2:3'"),
    (["abc", "46700:267000"], "'abc'"),
    (["46700:267000", "5"], "'5'"),
    (["46700:267000"], "'46700:267000'"),
])
def test_cnn_rejects_bad_compare_budgets(pairs, bad, tmp_path, capsys):
    rc = main(["cnn", "--compare-budgets", *pairs, "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--compare-budgets" in err and bad in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("argv,digest", [
    pytest.param([], "1cb061332f35ee2e9d687008e1ac648c"
                     "958ed470a1238b7b747485703f967472", id="default"),
    pytest.param(["--l2", "267000"], "4ce043f33b929fca68518015c9c93c18"
                 "b0e1cb128cc8842e0f2fcdf99893d69e", id="l2-267000"),
])
def test_cnn_report_pinned(argv, digest, tmp_path):
    """The default report (nothing evicted) and one whose L2 budget forces
    evictions, pinned by sha-256."""
    out = run_to_file(["cnn"] + argv, tmp_path / "cnn.csv")
    assert hashlib.sha256(out).hexdigest() == digest


def test_cnn_sweep_reports_independent_of_call_order(tmp_path):
    """The 96 points of the `node` design sweep and the default report, run
    in one process forward and then in reverse, are byte-identical point by
    point, and the default equals a fresh-process `cnn` run."""
    points = [["--platform", platform, "--engine", engine, "--l1", str(l1),
               "--l2", str(l2)] + dma
              for platform, engines in (("gap9", ("conv_accelerator", "worker_cores")),
                                        ("gap8", ("worker_cores",)))
              for engine, l1, l2, dma in itertools.product(
                  engines, (46_700, 64_000, 90_000, 115_600),
                  (267_000, 512_000, 800_000, 1_200_000),
                  ([], ["--no-dma-overlap"]))]
    points.append([])
    assert len(points) == 97
    out = tmp_path / "cnn.csv"
    forward = [run_to_file(["cnn"] + argv, out) for argv in points]
    reverse = [run_to_file(["cnn"] + argv, out) for argv in reversed(points)]
    assert reverse[::-1] == forward
    src = Path(trapnode.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    fresh = tmp_path / "fresh.csv"
    subprocess.run([sys.executable, "-m", "trapnode.cli", "cnn", "--out", str(fresh)],
                   env=env, check=True)
    assert fresh.read_bytes() == forward[-1]


def test_cnn_gap8_l1_capped_at_tier_capacity(tmp_path):
    """gap8's L1 holds 64,000 B, so a larger --l1 plans the same tiles, and
    the manifest shows the overlap the model uses: gap8 has no DMA overlap."""
    def lines(l1):
        out = run_to_file(["cnn", "--platform", "gap8", "--l1", str(l1)],
                          tmp_path / f"{l1}.csv").decode()
        return [l for l in out.splitlines() if not l.startswith("# param l1=")]
    big = lines(115600)
    assert big == lines(64000)
    assert "# param dma_overlap=False" in big


def test_power_command_defaults(tmp_path):
    out = run_to_file(["power", "--wake-period", "900"], tmp_path / "p.csv").decode()
    daily = float(next(l for l in out.splitlines()
                       if l.startswith("# daily_j=")).split("=")[1])
    assert daily == pytest.approx(5.8, rel=0.01)
    days = int(next(l for l in out.splitlines()
                    if l.startswith("# lifetime_days=")).split("=")[1])
    assert days == 2300  # floor(13320 / 5.78966...)


def test_power_scenario_file(tmp_path):
    data_dir = Path(__file__).parent.parent / "src" / "trapnode" / "data"
    out = run_to_file(["power", "--scenario",
                       str(data_dir / "scenario_gap9_viola_low.json")],
                      tmp_path / "s.csv").decode()
    daily = float(next(l for l in out.splitlines()
                       if l.startswith("# daily_j=")).split("=")[1])
    assert daily == pytest.approx(5.8, rel=0.01)


def test_power_simulate_trace(tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_text("\n".join(str(3600 * i) for i in range(1, 25)))
    out = run_to_file(["power", "--simulate", str(trace),
                       "--horizon-days", "2"], tmp_path / "sim.csv").decode()
    assert "t_s,new_detections,wake_mj,battery_j_left" in out
    total = float(next(l for l in out.splitlines()
                       if l.startswith("# total_j=")).split("=")[1])
    assert total > 0


def test_exit_code_input_error(tmp_path, capsys):
    rc = main(["detect", str(tmp_path / "missing.pgm"),
               str(tmp_path / "missing.json")])
    assert rc == 3
    assert "error" in capsys.readouterr().err


def test_exit_code_constraint_violation(workdir, capsys):
    scene = workdir / "corpus" / "scenes" / "scene_00000.pgm"
    rc = main(["detect", str(scene), str(workdir / "cascade.json"),
               "--budget", "100"])
    assert rc == 4
    assert "constraint" in capsys.readouterr().err


def detect_with_cascade_file(workdir, body: bytes, tmp_path, capsys):
    """Run `detect` on the corpus scene with a cascade file holding `body`:
    its exit code, stderr, and whether it wrote a report."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(body)
    scene = workdir / "corpus" / "scenes" / "scene_00000.pgm"
    rc = main(["detect", str(scene), str(bad), "--out", str(tmp_path / "d.csv")])
    return rc, capsys.readouterr().err, (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("where,value,named", [
    pytest.param((), 5, "cascade must be a JSON object", id="not-an-object"),
    pytest.param(("window", "w"), "20", "window: w must be an integer",
                 id="window-string"),
    pytest.param(("stages",), {}, "cascade: stages must be a list",
                 id="stages-object"),
    pytest.param(("stages", 0, "weak", 0, "rects", 0, "x"), -1,
                 "stage 0 weak 0: rect origin must be >= 0", id="rect-negative"),
    pytest.param(("stages", 0, "weak", 0, "rects", 0, "w"), 2.0,
                 "stage 0 weak 0: w must be an integer", id="rect-float"),
    pytest.param(("stages", 0, "threshold"), "x",
                 "stage 0: threshold must be a finite number", id="threshold-string"),
    pytest.param(("stages", 0, "threshold"), math.nan,
                 "stage 0: threshold must be a finite number", id="threshold-nan"),
    pytest.param(("stages", 0, "weak", 0, "vote_pass"), math.inf,
                 "stage 0 weak 0: vote_pass must be a finite number", id="vote-inf"),
])
def test_detect_rejects_malformed_cascade(where, value, named, workdir, tmp_path,
                                          capsys):
    doc = json.loads((workdir / "cascade.json").read_text())
    if where:
        *parent, key = where
        functools.reduce(operator.getitem, parent, doc)[key] = value
    else:
        doc = value
    rc, err, wrote = detect_with_cascade_file(workdir, json.dumps(doc).encode(),
                                              tmp_path, capsys)
    assert rc == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not wrote


def test_detect_rejects_non_ascii_cascade(workdir, tmp_path, capsys):
    body = (workdir / "cascade.json").read_bytes().replace(
        b'"window"', '"wind\u00f6w"'.encode(), 1)
    rc, err, wrote = detect_with_cascade_file(workdir, body, tmp_path, capsys)
    assert rc == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not ASCII" in err
    assert not wrote


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--scale-factor", "--group-iou"])
def test_detect_rejects_non_finite_flags(flag, value, workdir, capsys):
    scene = workdir / "corpus" / "scenes" / "scene_00000.pgm"
    out = workdir / "non_finite.csv"
    rc = main(["detect", str(scene), str(workdir / "cascade.json"),
               f"{flag}={value}", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--min-detection-rate", "--max-fp-rate",
                                  "--feature-subsample"])
def test_train_rejects_non_finite_flags(flag, value, workdir, tmp_path, capsys):
    out = tmp_path / "cascade.json"
    rc = main(["train", str(workdir / "corpus" / "positives"),
               str(workdir / "corpus" / "negatives"), f"{flag}={value}",
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == f"error: {flag} must be a finite number, got {float(value)}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,named", [
    (["--group-iou=0"], "group_iou"),
    (["--group-iou=-1"], "group_iou"),
    (["--overlap", "5", "--budget", "6000"], "overlap 5"),
])
def test_detect_rejects_out_of_range_flags(argv, named, workdir, capsys):
    scene = workdir / "corpus" / "scenes" / "scene_00000.pgm"
    out = workdir / "out_of_range.csv"
    rc = main(["detect", str(scene), str(workdir / "cascade.json"), *argv,
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not out.exists()


def test_detect_flag_defaults_are_detect_defaults():
    args = build_parser().parse_args(["detect", "img.pgm", "c.json"])
    params = inspect.signature(detect).parameters
    for name in ("overlap", "step", "workers", "group_iou"):
        assert getattr(args, name) == params[name].default


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["detect"])  # missing required arguments
    assert err.value.code == 2


def test_cnn_rerun_byte_identical(tmp_path):
    a = run_to_file(["cnn"], tmp_path / "r1.csv")
    b = run_to_file(["cnn"], tmp_path / "r2.csv")
    assert a == b


def test_power_rerun_byte_identical(tmp_path):
    a = run_to_file(["power"], tmp_path / "p1.csv")
    b = run_to_file(["power"], tmp_path / "p2.csv")
    assert a == b


def _header(report: bytes) -> list[str]:
    """The `#` lines above a report's first table row."""
    lines = report.decode().splitlines()
    return lines[:next(i for i, l in enumerate(lines) if not l.startswith("#"))]


def test_power_manifest_names_every_resolved_parameter(tmp_path):
    """Two runs that differ only in a payload size print different headers,
    and every flag that changes the energy is written as a parameter."""
    argv = ["power", "--policy", "image_per_detection"]
    small = run_to_file(argv + ["--image-bytes", "5"], tmp_path / "a.csv")
    large = run_to_file(argv + ["--image-bytes", "99999"], tmp_path / "b.csv")
    assert b"\nradio,0.165000\n" in small and b"\nradio,3299.967000\n" in large
    assert _header(small) != _header(large)
    params = {l.split("=")[0][len("# param "):]
              for l in small.decode().splitlines() if l.startswith("# param ")}
    assert params == {"wake_period", "policy", "compute_mj", "camera_mj",
                      "tx_mj_per_byte", "overhead_mj", "counter_bytes",
                      "image_bytes", "detections_per_day", "sleep_uw",
                      "battery_mah", "battery_v"}
    trace = tmp_path / "trace.txt"
    trace.write_text("3600\n")
    sims = [run_to_file(["power", "--simulate", str(trace), "--horizon-days", days],
                        tmp_path / f"s{days}.csv") for days in ("1", "2")]
    assert b"\n# param horizon_days=1.0\n" in sims[0]
    assert _header(sims[0]) != _header(sims[1])


POWER_FLOATS = ["--compute-mj", "--camera-mj", "--tx-mj-per-byte",
                "--wake-overhead-mj", "--wake-period", "--detections-per-day",
                "--sleep-uw", "--battery-mah", "--battery-v", "--horizon-days"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", POWER_FLOATS)
def test_power_rejects_non_finite_flags(flag, value, tmp_path, capsys):
    rc = main(["power", f"{flag}={value}", "--out", str(tmp_path / "p.csv")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag in err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("section,key", [("phase_energy", "compute_mj"),
                                         ("duty_cycle", "wake_period_s"),
                                         ("battery", "capacity_mah"),
                                         ("battery", "voltage_v")])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_power_rejects_non_finite_scenario_numbers(section, key, literal,
                                                   tmp_path, capsys):
    data_dir = Path(__file__).parent.parent / "src" / "trapnode" / "data"
    doc = json.loads((data_dir / "scenario_gap9_viola_low.json").read_text())
    doc[section][key] = "LITERAL"
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc).replace('"LITERAL"', literal))
    rc = main(["power", "--scenario", str(scenario)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{section}.{key}" in err


# 3599 is finite but earlier than the 7200 before it.
@pytest.mark.parametrize("bad", ["nan", "inf", "abc", "3599"])
def test_power_rejects_bad_trace_line(bad, tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    trace.write_text(f"3600\n7200\n{bad}\n10800\n")
    rc = main(["power", "--simulate", str(trace), "--horizon-days", "1",
               "--out", str(tmp_path / "sim.csv")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{trace}:3:" in err and bad in err
    assert not (tmp_path / "sim.csv").exists()


def test_power_rejects_non_ascii_trace(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    trace.write_bytes("3600\n7200\u00e9\n".encode("utf-8"))
    rc = main(["power", "--simulate", str(trace), "--horizon-days", "1",
               "--out", str(tmp_path / "sim.csv")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith(f"error: {trace}:2: arrival time must be a finite")
    assert err.count("\n") == 1
    assert not (tmp_path / "sim.csv").exists()


@pytest.mark.parametrize("text,named", [
    ('{"phase_energy": {"compute_mj": 4.61}', "malformed JSON"),
    pytest.param("[" * 100_000, "malformed JSON", id="nested-too-deeply"),
    pytest.param('{"phase_energy": {"compute_mj": 4.61}, "\u00e9": 1}',
                 "malformed JSON", id="non-ascii"),
    ("{}", "phase_energy.compute_mj"),
    ('{"phase_energy": {"bogus": 1}}', "phase_energy.bogus"),
    ('{"phase_energy": {"compute_mj": 4.61}, '
     '"duty_cycle": {"counter_payload_bytes": 17.5}}',
     "duty_cycle.counter_payload_bytes must be int"),
])
def test_power_rejects_bad_scenario(text, named, tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(text, encoding="utf-8")
    rc = main(["power", "--scenario", str(scenario),
               "--out", str(tmp_path / "p.csv")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "p.csv").exists()


def test_power_rejects_overflowing_battery_energy(tmp_path, capsys):
    # Each flag is finite, but capacity x voltage in joules is not.
    rc = main(["power", "--battery-mah", "1e308", "--out", str(tmp_path / "p.csv")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "battery energy" in err
    assert not (tmp_path / "p.csv").exists()


def test_power_simulate_report_pinned(tmp_path):
    """A report of 87,248 wakes (two row blocks) whose battery dies on a
    wake, pinned by sha-256; some arrivals fall on wake instants."""
    trace = tmp_path / "trace.txt"
    arrivals = sorted({3600 * i for i in range(1, 960)}
                      | {2617 * i for i in range(1, 1320)})
    trace.write_text("\n".join(map(str, arrivals)) + "\n")
    out = run_to_file(["power", "--simulate", str(trace), "--horizon-days", "40",
                       "--battery-mah", "150"], tmp_path / "sim.csv")
    assert out.decode().endswith("# battery_exhausted_at_s=2617470.000\n")
    assert hashlib.sha256(out).hexdigest() == (
        "f09df7eab4cdaa41056156be04a363d623623bf54d657725d6e23d4a70063846")


def test_power_simulate_rounding_report_pinned(tmp_path, capsys):
    """A report whose float columns need rounding: 7.3 s wakes, image
    payloads and fractional energies over two row blocks (71,013 wakes),
    pinned by sha-256. The report on stdout is the same bytes as the file."""
    trace = tmp_path / "trace.txt"
    trace.write_text("\n".join(f"{997.3 * i:.1f}" for i in range(1, 500)) + "\n")
    argv = ["power", "--simulate", str(trace), "--horizon-days", "6",
            "--wake-period", "7.3", "--policy", "image_per_detection",
            "--compute-mj", "4.617", "--tx-mj-per-byte", "0.0123"]
    out = run_to_file(argv, tmp_path / "sim.csv")
    assert b"\n1000.100,1,160.827000,13319.168257\n" in out
    assert hashlib.sha256(out).hexdigest() == (
        "3df27ffd6e6f60c8aa6acdc3ed30ddbdf422fa3080b980d1d7c299574237d348")
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == out


def _percent_rows(columns) -> str:
    """The referee for the simulate row writer: Python's `%` formatter."""
    return "".join("%.3f,%d,%.6f,%.6f\n" % row
                   for row in zip(*(c.tolist() for c in columns)))


def _around(bound):
    """Floats within a few dozen ulps of `bound`, on both sides."""
    return st.integers(-40, 40).map(lambda k: bound + k * math.ulp(bound))


def _near_tie(k: int, m: int, ulps: int) -> float:
    """An odd multiple of 2**-m, moved by a few ulps. With m = p + 1 it
    times 10**p is exactly a half-integer, a tie at p decimals (0.0625 at
    three)."""
    tie = (2 * k + 1) / 2 ** m
    return tie + ulps * math.ulp(tie)


# Column values: report-sized, any magnitude, exact ties at 3 and 6
# decimals, and both sides of the fast path's bound 2**52 / 10**p.
_SIM_FLOATS = [
    st.floats(0.0, 1e7),
    st.floats(min_value=0.0, allow_infinity=False),
    st.builds(_near_tie, st.integers(0, 2 ** 30), st.sampled_from([4, 7]),
              st.integers(-3, 3)),
    _around(2.0 ** 52 / 1e3), _around(2.0 ** 52 / 1e6),
]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.sampled_from([0, 1, 37]))
def test_sim_rows_match_percent_formatter(data, n):
    """The numpy row writer spells every block of 0, 1 or 37 rows as `%`
    does, row by row, each column drawn from one kind of value."""
    columns = []
    for kind in range(4):
        if kind == 1:
            elements, dtype = st.one_of(st.integers(0, 99),
                                        st.integers(-2, 2 ** 53)), np.int64
        else:
            elements, dtype = data.draw(st.sampled_from(_SIM_FLOATS)), np.float64
        columns.append(np.array(data.draw(st.lists(elements, min_size=n, max_size=n)),
                                dtype=dtype))
    assert _sim_rows(columns) == _percent_rows(columns)


def test_sim_rows_round_products_on_half_integers():
    """A product that rounds onto a half-integer rounds the way its exact
    value lies, not to even; an exact tie rounds to even."""
    columns = [np.array([3377699720527.8726, 3377699720527.8745, 0.0625]),
               np.array([0, 2 ** 52 - 1, 7]),
               np.array([3377699720.5278726, 3377699720.5278754, 0.0000025]),
               np.array([0.1015625, 2.0 ** 52 / 1e6 * (1 - 2 ** -52), 0.5])]
    assert _sim_rows(columns) == _percent_rows(columns) == (
        "3377699720527.873,0,3377699720.527873,0.101562\n"
        "3377699720527.875,4503599627370495,3377699720.527875,4503599627.370495\n"
        "0.062,7,0.000003,0.500000\n")


@pytest.mark.parametrize("value,falls_back", [
    (0.0, False), (-0.0, True), (math.inf, True), (math.nan, True),
    (1e300, True), (-1.5, True)])
@pytest.mark.parametrize("column", [0, 2, 3])
def test_sim_rows_outside_exact_range(value, falls_back, column, recwarn):
    """A block holding -0.0, a negative, a non-finite or a huge value falls
    back to `%`, silently, and writes what `%` writes; 0.0 stays on the
    fast path."""
    columns = [np.linspace(0.0, 9.5, 37), np.arange(37), np.full(37, 21.61),
               np.linspace(13320.0, 13000.0, 37)]
    columns[column][17] = value
    decimals = 3 if column == 0 else 6
    assert (_fixed_point(columns[column], decimals) is None) == falls_back
    assert _sim_rows(columns) == _percent_rows(columns)
    assert not recwarn.list


@pytest.mark.parametrize("flags,named", [
    pytest.param(["--horizon-days", "-5"], "non-negative",
                 id="negative-horizon"),
    pytest.param(["--horizon-days", "1e9", "--battery-mah", "1e6"],
                 "cap of 10,000,000", id="wake-cap"),
])
def test_power_simulate_rejects_unbounded_or_negative_run(flags, named,
                                                          tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    trace.write_text("3600\n7200\n")
    start = time.perf_counter()
    rc = main(["power", "--simulate", str(trace), *flags,
               "--out", str(tmp_path / "sim.csv")])
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "sim.csv").exists()


@settings(max_examples=200, deadline=None)
@given(data=st.one_of(
    st.binary(max_size=200),
    st.text(alphabet="0123456789.e+-_ \t\r\nafinINF", max_size=60).map(str.encode)))
def test_power_simulate_trace_reader_fuzz(data, tmp_path_factory):
    """Any bytes as a trace, and number-like text: exit 0, 3 or 4, at most
    one line on stderr, and a report exactly when the exit is 0."""
    work = tmp_path_factory.mktemp("fuzz")
    trace = work / "trace.txt"
    trace.write_bytes(data)
    exits_cleanly(["power", "--simulate", str(trace), "--horizon-days", "1"],
                  work / "sim.csv")


def exits_cleanly(argv, out: Path) -> int:
    """Run the CLI with `--out out`: it exits 0, 3 or 4, writes at most one
    line and no traceback to stderr, and writes a report exactly on exit 0."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv + ["--out", str(out)])
    assert rc in (0, 3, 4)
    assert err.getvalue().count("\n") <= 1
    assert "Traceback" not in err.getvalue()
    assert out.exists() == (rc == 0)
    return rc


# A one-stage cascade that detect runs on an 8x8 window.
FUZZ_CASCADE = {
    "version": 1, "window": {"w": 8, "h": 8}, "variance_normalization": True,
    "stages": [{"threshold": 0.5, "weak": [{
        "rects": [{"x": 0, "y": 0, "w": 2, "h": 4, "weight": 1},
                  {"x": 2, "y": 0, "w": 2, "h": 4, "weight": -1}],
        "threshold": 0.0, "polarity": 1, "vote_pass": 1.0, "vote_fail": -1.0}]}],
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


def json_paths(value, prefix=()):
    """The path of every value inside a JSON document."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield prefix + (key,)
        yield from json_paths(item, prefix + (key,))


@st.composite
def mutated_docs(draw, doc, values) -> bytes:
    """The JSON document `doc` with one value replaced by one drawn from
    `values`, or deleted."""
    doc = copy.deepcopy(doc)
    *parent, key = draw(st.sampled_from(list(json_paths(doc))))
    holder = functools.reduce(operator.getitem, parent, doc)
    if draw(st.booleans()):
        holder[key] = draw(values)
    else:
        del holder[key]
    return json.dumps(doc).encode()


# A 32x24 scene that detect runs on with `FUZZ_CASCADE`.
FUZZ_PGM = save_pgm(GrayImage(
    np.random.default_rng(8).integers(0, 256, size=(24, 32), dtype=np.uint8)))


@pytest.fixture(scope="module")
def fuzz_scene(tmp_path_factory):
    path = tmp_path_factory.mktemp("scene") / "scene.pgm"
    path.write_bytes(FUZZ_PGM)
    return path


def test_fuzz_cascade_is_valid(fuzz_scene, tmp_path):
    cascade = tmp_path / "c.json"
    cascade.write_text(json.dumps(FUZZ_CASCADE))
    assert exits_cleanly(["detect", str(fuzz_scene), str(cascade)],
                         tmp_path / "d.csv") == 0


@settings(max_examples=200, deadline=None)
@given(data=st.one_of(st.binary(max_size=200),
                      JSON_VALUES.map(lambda v: json.dumps(v).encode()),
                      mutated_docs(FUZZ_CASCADE, JSON_VALUES)))
def test_detect_cascade_reader_fuzz(data, fuzz_scene, tmp_path_factory):
    """Any bytes, any JSON value and a valid cascade with one value changed
    or deleted, as a cascade file: `detect` exits cleanly."""
    work = tmp_path_factory.mktemp("fuzz")
    (work / "c.json").write_bytes(data)
    exits_cleanly(["detect", str(fuzz_scene), str(work / "c.json")],
                  work / "d.csv")


@st.composite
def mutated_pgms(draw) -> bytes:
    """`FUZZ_PGM` with one header token replaced, deleted or truncated."""
    magic, dims, maxval, pixels = FUZZ_PGM.split(b"\n", 3)
    tokens = [magic, *dims.split(), maxval]
    i = draw(st.integers(0, len(tokens) - 1))
    how = draw(st.sampled_from(["replace", "delete", "truncate"]))
    if how == "replace":
        tokens[i] = draw(st.binary(max_size=8) | st.sampled_from(
            [b"+40", b"2_0", b"-1", b"0", b"0008", b"99999999", b"65535", b"#"]))
    elif how == "delete":
        del tokens[i]
    else:
        tokens[i] = tokens[i][:draw(st.integers(0, len(tokens[i]) - 1))]
    return b" ".join(tokens) + b"\n" + pixels


@settings(max_examples=200, deadline=None)
@given(data=st.one_of(st.binary(max_size=200), mutated_pgms()))
def test_detect_pgm_reader_fuzz(data, tmp_path_factory):
    """Any bytes, and a valid PGM with one header token replaced, deleted or
    truncated, as the `detect` image: it exits cleanly."""
    work = tmp_path_factory.mktemp("fuzz")
    (work / "img.pgm").write_bytes(data)
    (work / "c.json").write_text(json.dumps(FUZZ_CASCADE))
    exits_cleanly(["detect", str(work / "img.pgm"), str(work / "c.json")],
                  work / "d.csv")


@pytest.mark.parametrize("field", [b"+40", b"2_0"])
def test_detect_rejects_pgm_header_field_int_would_take(field, tmp_path, capsys):
    """int() reads b"+40" as 40 and b"2_0" as 20; as PGM header fields they
    exit 3 with one line."""
    image = tmp_path / "img.pgm"
    image.write_bytes(b"P5 " + field + b" " + field + b" 255\n" + bytes(40 * 40))
    (tmp_path / "c.json").write_text(json.dumps(FUZZ_CASCADE))
    rc = main(["detect", str(image), str(tmp_path / "c.json"),
               "--out", str(tmp_path / "d.csv")])
    assert rc == 3
    assert capsys.readouterr().err == (
        f"error: {image}: non-numeric header field {field!r}\n")
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("weight", [10 ** 30, 10 ** 400], ids=["1e30", "1e400"])
def test_detect_rejects_feature_weights_too_large(weight, fuzz_scene, tmp_path):
    doc = copy.deepcopy(FUZZ_CASCADE)
    for rect in doc["stages"][0]["weak"][0]["rects"]:
        rect["weight"] *= weight
    (tmp_path / "c.json").write_text(json.dumps(doc))
    rc = exits_cleanly(["detect", str(fuzz_scene), str(tmp_path / "c.json")],
                       tmp_path / "d.csv")
    assert rc == 3


def eval_inputs(tmp_path) -> list[str]:
    (tmp_path / "p.csv").write_text("img,5,6,20,20,0,1.0\n")
    (tmp_path / "g.csv").write_text("img,5,6,20,20\n")
    return [str(tmp_path / "p.csv"), str(tmp_path / "g.csv")]


@pytest.mark.parametrize("command", ["detect", "eval", "eval --json-out", "cnn"])
def test_report_into_missing_directory(command, fuzz_scene, tmp_path, capsys):
    missing = tmp_path / "nodir" / "x.out"
    if command == "detect":
        (tmp_path / "c.json").write_text(json.dumps(FUZZ_CASCADE))
        argv = ["detect", str(fuzz_scene), str(tmp_path / "c.json"), "--out", str(missing)]
    elif command == "eval":
        argv = ["eval", *eval_inputs(tmp_path), "--out", str(missing)]
    elif command == "eval --json-out":
        argv = ["eval", *eval_inputs(tmp_path), "--out", str(tmp_path / "r.csv"),
                "--json-out", str(missing)]
    else:
        argv = ["cnn", "--out", str(missing)]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 3
    assert err == f"error: cannot write {missing}: No such file or directory\n"
    assert not (tmp_path / "nodir").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("empty", [False, True])
def test_eval_rejects_non_finite_iou(value, empty, tmp_path, capsys):
    inputs = eval_inputs(tmp_path)
    if empty:
        for path in inputs:
            Path(path).write_text("")
    rc = main(["eval", *inputs, f"--iou={value}", "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == f"error: --iou must be a finite number, got {float(value)}\n"
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("fuzzed", ["predictions", "ground_truth"])
@settings(max_examples=200, deadline=None)
@given(data=st.one_of(
    st.binary(max_size=200),
    st.text(alphabet="0123456789,.e+-_ \t\r\n#afinINFimg", max_size=80).map(str.encode)))
def test_eval_csv_reader_fuzz(fuzzed, data, tmp_path_factory):
    """Any bytes, and CSV-like text, as either `eval` input: it exits
    cleanly."""
    work = tmp_path_factory.mktemp("fuzz")
    files = {"predictions": b"img,5,6,20,20,0,1.0\n",
             "ground_truth": b"img,5,6,20,20\n", fuzzed: data}
    for name, body in files.items():
        (work / name).write_bytes(body)
    exits_cleanly(["eval", str(work / "predictions"), str(work / "ground_truth")],
                  work / "r.csv")


DATA = Path(__file__).parent.parent / "src" / "trapnode" / "data"
GAP9 = json.loads((DATA / "gap9.json").read_text())


def gap9_with(**fields) -> str:
    return json.dumps({**GAP9, **fields})


RELU = {"name": "r", "op_kind": "relu", "inputs": ["input"],
        "in_shape": [1, 4, 4], "out_shape": [1, 4, 4]}
# A padded 1x1 conv that reads an input raster of height 0.
CONV_ON_EMPTY = {"name": "c", "op_kind": "conv2d", "inputs": ["input"],
                 "in_shape": [1, 0, 4], "out_shape": [1, 2, 6], "padding": 1,
                 "param_count": 2}


@pytest.mark.parametrize("flag,body,named", [
    pytest.param("--graph", "{bad", "malformed JSON", id="--graph"),
    pytest.param("--platform", "{bad", "malformed JSON", id="--platform"),
    pytest.param("--graph", "[" * 100_000, "malformed JSON", id="--graph-deep"),
    pytest.param("--graph", '{"name": "g\u00e9"}', "malformed JSON",
                 id="--graph-non-ascii"),
    pytest.param("--graph", "{}", "graph.name is missing", id="--graph-empty"),
    pytest.param("--graph", "[]", "graph must be a JSON object",
                 id="--graph-list"),
    pytest.param("--graph", json.dumps({
        "name": "g", "input_shape": [1, 4, 4],
        "layers": [{**RELU, "param_count": "x"}]}),
        "graph.layers[0].param_count must be int", id="--graph-field"),
    pytest.param("--graph", json.dumps({
        "name": "g", "input_shape": [1, 4, 4], "layers": [RELU],
        "calibrated": {}}),
        "unknown key graph.calibrated", id="--graph-calibrated"),
    pytest.param("--platform", "{}", "platform.name is missing",
                 id="--platform-empty"),
    pytest.param("--platform", "[]", "platform must be a JSON object",
                 id="--platform-list"),
    pytest.param("--platform", gap9_with(tiers=5),
                 "platform.tiers must be a list", id="--platform-tiers"),
    pytest.param("--platform", gap9_with(tiers=[{"name": "l1"}]),
                 "platform.tiers[0].capacity is missing", id="--platform-tier"),
    pytest.param("--platform", gap9_with(clock_hz=0), "platform gap9: clock_hz must be",
                 id="--platform-value"),
    pytest.param("--platform", gap9_with(
        tiers=[t for t in GAP9["tiers"] if t["name"] != "flash"]),
        "platform gap9 has no tier 'flash'", id="--platform-no-flash"),
    pytest.param("--platform", gap9_with(
        engines=[e for e in GAP9["engines"] if e["kind"] != "worker_cores"]),
        "platform gap9 has no worker_cores engine", id="--platform-no-cores"),
    pytest.param("--graph", json.dumps({
        "name": "g", "input_shape": [1, 4, 4],
        "layers": [{**RELU, "out_shape": [1, 0, 4]}]}),
        "layer r: empty output", id="--graph-value"),
    pytest.param("--graph", json.dumps({
        "name": "g", "input_shape": [1, 0, 4], "layers": [CONV_ON_EMPTY]}),
        "empty input (1, 0, 4)", id="--graph-empty-input"),
    pytest.param("--platform", gap9_with(engines=[
        {**e, "elementwise_bytes_per_cycle": 0} for e in GAP9["engines"]]),
        "elementwise_bytes_per_cycle must be positive", id="--platform-elementwise"),
])
def test_cnn_rejects_malformed_json_file(flag, body, named, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(body, encoding="utf-8")
    rc = main(["cnn", flag, str(bad), "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{bad}: {named}" in err
    assert not (tmp_path / "r.csv").exists()


def test_cnn_rejects_malformed_graph_on_every_call(tmp_path, capsys):
    """A `--graph` file whose fields check out but whose graph does not
    (the parse cache never holds an error) exits 3 with the same one line
    on two calls in a row in one process."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "g", "input_shape": [1, 4, 4],
                               "layers": [{**RELU, "out_shape": [1, 0, 4]}]}))
    errors = []
    for _ in range(2):
        rc = main(["cnn", "--graph", str(bad), "--out", str(tmp_path / "r.csv")])
        errors.append(capsys.readouterr().err)
        assert rc == 3
        assert not (tmp_path / "r.csv").exists()
    assert errors[0] == errors[1] == f"error: {bad}: layer r: empty output (1, 0, 4)\n"


def test_cnn_rejects_unchecked_graph_on_every_call(tmp_path, capsys):
    """A `--graph` file whose fields fail the check exits 3 with the same
    one line on two calls in a row in one process: the graph reader's parse
    cache never holds an error."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "g", "input_shape": [1, 4, 4],
                               "layers": [{**RELU, "colour": 1}]}))
    errors = []
    for _ in range(2):
        rc = main(["cnn", "--graph", str(bad), "--out", str(tmp_path / "r.csv")])
        errors.append(capsys.readouterr().err)
        assert rc == 3
    assert errors[0] == errors[1] == f"error: {bad}: unknown key graph.layers[0].colour\n"


def test_cnn_checked_graph_copy_matches_default(tmp_path):
    """A copy of the shipped graph named by `--graph`, twice (the second
    time from the parse cache), reports the same bytes as the default, which
    reads the shipped graph through the same checked reader."""
    copy_path = tmp_path / "graph.json"
    copy_path.write_bytes(SHIPPED_GRAPH.read_bytes())
    default = run_to_file(["cnn"], tmp_path / "default.csv")
    for name in ("c1.csv", "c2.csv"):
        assert run_to_file(["cnn", "--graph", str(copy_path)], tmp_path / name) == default


@pytest.mark.parametrize("name", ["mbnv3_ssdlite_320x240",
                                  "scenario_gap9_viola_low"])
def test_cnn_rejects_data_file_that_is_not_a_platform(name, tmp_path, capsys):
    rc = main(["cnn", "--platform", name, "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: unknown platform") and err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()


# Each input file a command reads, as (argument name, the name of it in a
# "not found" error).
INPUT_FILES = [("image", "image"), ("cascade", "cascade"), ("graph", "graph"),
               ("predictions", "file"), ("trace", "trace file"),
               ("scenario", "scenario file")]


def reading(name: str, path: Path, scene: Path, tmp_path: Path) -> list[str]:
    """A command that reads `path` as its input file `name`; its other
    inputs are valid."""
    (tmp_path / "c.json").write_text(json.dumps(FUZZ_CASCADE))
    return {"image": ["detect", str(path), str(tmp_path / "c.json")],
            "cascade": ["detect", str(scene), str(path)],
            "graph": ["cnn", "--graph", str(path)],
            "predictions": ["eval", str(path), eval_inputs(tmp_path)[1]],
            "trace": ["power", "--simulate", str(path), "--horizon-days", "1"],
            "scenario": ["power", "--scenario", str(path)]}[name]


@pytest.mark.parametrize("name,what", INPUT_FILES)
@pytest.mark.parametrize("how", ["directory", "unreadable"])
def test_unusable_input_file(how, name, what, fuzz_scene, tmp_path, capsys,
                             monkeypatch):
    """A directory given as an input file exits 3 as a missing file does,
    and a file that cannot be read (every open of it raises PermissionError
    here) exits 3 naming it; neither writes a report."""
    path = tmp_path / "input"
    if how == "directory":
        path.mkdir()
        expected = f"error: {what} not found: {path}\n"
    else:
        path.write_text("")
        expected = f"error: cannot read {path}: Permission denied\n"

        def denying(real_open):
            def open_unless_path(file, *args, **kwargs):
                if str(file) == str(path):
                    raise PermissionError(13, "Permission denied", str(file))
                return real_open(file, *args, **kwargs)
            return open_unless_path

        # Path.read_bytes and read_text go through Path.open, which on
        # Python 3.10 holds its own reference to io.open; load_cascade
        # calls the builtin open.
        monkeypatch.setattr(Path, "open", denying(Path.open))
        monkeypatch.setattr(builtins, "open", denying(builtins.open))
    rc = main(reading(name, path, fuzz_scene, tmp_path)
              + ["--out", str(tmp_path / "r.out")])
    assert rc == 3
    assert capsys.readouterr().err == expected
    assert not (tmp_path / "r.out").exists()


# The values a fuzzed model file gets in place of one of its own: each other
# JSON type, zero, negative, the largest and the smallest positive float, and
# an integer no float64 holds exactly.
MODEL_VALUES = st.sampled_from([None, True, "x", [], {}, 0, -1, 1e308, 5e-324,
                                10 ** 30])


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from([
    ("cnn", "--graph", "mbnv3_ssdlite_320x240.json"),
    ("cnn", "--platform", "gap8.json"), ("cnn", "--platform", "gap9.json"),
    ("power", "--scenario", "scenario_gap9_viola_low.json"),
    ("power", "--scenario", "scenario_gap9_viola_high.json"),
    ("power", "--scenario", "scenario_gap9_cnn_high_images.json")]),
    data=st.data())
def test_model_file_reader_fuzz(case, data, tmp_path_factory):
    """A shipped graph, platform or scenario file with one key dropped or
    one value replaced, as `cnn --graph`, `cnn --platform` or
    `power --scenario`: it exits cleanly. A graph or platform text read
    directly returns a model or raises a ValueError."""
    command, flag, name = case
    doc = json.loads((DATA / name).read_text())
    work = tmp_path_factory.mktemp("fuzz")
    text = data.draw(mutated_docs(doc, MODEL_VALUES))
    (work / name).write_bytes(text)
    exits_cleanly([command, flag, str(work / name)], work / "r.out")
    if command == "cnn":
        reader, model = {"--graph": (graph_from_json, LayerGraph),
                         "--platform": (platform_from_json, PlatformModel)}[flag]
        try:
            assert isinstance(reader(text.decode()), model)
        except ValueError:
            pass


@pytest.mark.parametrize("key,flag,value", [
    ("sleep_power_uw", "--sleep-uw", -10.0),
    ("detections_per_day", "--detections-per-day", -0.5)])
@pytest.mark.parametrize("source", ["flag", "scenario"])
def test_power_rejects_negative_duty_cycle_values(source, key, flag, value,
                                                  tmp_path, capsys):
    """A negative sleep power or detection rate exits with one line: 4
    from a flag, as a negative phase energy does, and 3 naming the file from
    a scenario file, as any value a model file's reader rejects does."""
    argv = ["power", "--policy", "image_per_detection", flag, str(value)]
    if source == "scenario":
        doc = json.loads((DATA / "scenario_gap9_viola_low.json").read_text())
        doc["duty_cycle"].update({"payload_policy": "image_per_detection", key: value})
        (tmp_path / "s.json").write_text(json.dumps(doc))
        argv = ["power", "--scenario", str(tmp_path / "s.json")]
    rc = main(argv + ["--out", str(tmp_path / "p.csv")])
    expected = f"{key} must be non-negative"
    if source == "scenario":
        assert rc == 3
        expected = f"{tmp_path / 's.json'}: {expected}"
    else:
        assert rc == 4
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not (tmp_path / "p.csv").exists()
