"""trapnode benchmark: one workload per process, metrics as a JSON last line.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --repeat 5 --out base.json

Workloads (see BENCHMARK.json for why each was chosen):
  scan   synthetic 320x240 frames through `detector.detect` at the paper
         operating point with the fixed bench cascade, scored by
         `evaluator.match_detections`;
  train  repeated `trainer.train_cascade` calls on a fixed reference
         corpus, then scoring of the cascade on a seeded held-out set;
  node   in-process `trapnode.cli.main` calls: a seeded `cnn` design sweep
         and 30-day and one-year `power --simulate` runs.

With --trace 0 the last line carries the end-to-end metrics:
  setup_s      median set-up time (inputs, cascade load, warm-up), sampled
               in fresh processes through the run
  peak_rss_mb  ru_maxrss of the workload process
  op_ms_p50    per-operation latency: one frame's `detect` (scan), one
  op_ms_p90    `train_cascade` call (train), one `cnn` call (node)
  work_per_s   frames per second of `detect` (scan), trained stages per
               second (train), simulated wakes per host second (node)
The lines above it print each figure with its sample count and its
workload's own name (frame_ms_p50, train_s, cnn_ms_p50, sim_wakes_per_s,
...), then detection quality (scan_recall, scan_fp_per_frame,
heldout_detection, heldout_window_fp), which has no bound. With --trace 1
the last line carries the per-layer metrics of one fixed batch of
operations, and the spans are written to perfbench/out/. Failed operations and failed output checks are counted in
`failed`; any failure makes `correct` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("scan", "train", "node")

# A workload's own name for a generic end-to-end metric, used only when
# printing: metric -> (name, scale, unit).
OWN_NAMES = {
    "scan": {"op_ms_p50": ("frame_ms_p50", 1.0, "ms"),
             "op_ms_p90": ("frame_ms_p90", 1.0, "ms")},
    "train": {"op_ms_p50": ("train_s", 1e-3, "s")},
    "node": {"op_ms_p50": ("cnn_ms_p50", 1.0, "ms"),
             "op_ms_p90": ("cnn_ms_p90", 1.0, "ms"),
             "work_per_s": ("sim_wakes_per_s", 1.0, "1/s")},
}


def _cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the usable core count; must precede numpy."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _git_sha() -> str:
    """Commit of the checkout, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _environment(nproc: int) -> dict:
    import numpy
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": _git_sha(),
            "omp_num_threads": os.environ["OMP_NUM_THREADS"]}


def _import_program():
    """Import trapnode from this checkout's src/, or exit with a message."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import trapnode
    except ImportError as exc:
        sys.exit(f"cannot import trapnode from {src}: {exc}")
    if Path(trapnode.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"trapnode was imported from {trapnode.__file__}, not {src}")


def run_one(args) -> int:
    nproc = _cap_threads()
    _import_program()
    import layers
    import workloads

    result = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                                 bool(args.trace))
    ledger = result["ledger"]
    env = _environment(nproc)
    setup_times = result["setup_times"]
    measured = {"setup_s": {"value": statistics.median(setup_times), "unit": "s",
                            "n": len(setup_times)},
                "peak_rss_mb": {"value": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB",
                    "n": 1}}
    measured.update(result.get("metrics", {}))
    quality = result.get("quality", {})

    out_dir = workloads.OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    absent: list[str] = []
    if args.trace:
        metrics, absent = layers.layer_metrics(result["tracer"],
                                               result["overhead_pct"])
        result["tracer"].write_spans(out_dir / f"{stem}-spans.json")
    else:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = {m["name"]: measured[m["name"]] for m in spec["end_to_end"]}

    print(f"env {' '.join(f'{k}={v}' for k, v in env.items())}")
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} digest={result.get('digest', '-')}")
    own = OWN_NAMES[args.workload]
    for name, m in measured.items():
        alias = ""
        if name in own:
            alias_name, scale, unit = own[name]
            alias = f"  = {alias_name} {m['value'] * scale:.6g} {unit}"
        print(f"  {name:<20} {m['value']:.6g} {m['unit']} (n={m['n']}){alias}")
    for name, m in quality.items():
        print(f"  {name:<20} {m['value']:.6g} {m['unit']} (n={m['n']}, "
              f"{m['better']} is better, no bound)")
    if args.trace:
        for name, m in metrics.items():
            print(f"  layer {name:<34} {m['value']:.6g} {m['unit']}")
        if absent:
            print(f"  absent layer metrics (wrapped name gone): {', '.join(absent)}")
        for target, error in result["tracer"].hook_errors.items():
            print(f"  count hook failed at {target}: {error}")

    correct = ledger.failed == 0
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "correct": correct, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics,
              "quality": quality, "setup_samples_s": setup_times,
              "absent": absent, "digest": result.get("digest"),
              "hook_errors": result["tracer"].hook_errors if args.trace else {}}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                                  for name, m in metrics.items()}}))
    return 0 if correct else 1


def run_many(args) -> int:
    """Each workload and repeat in its own process; optional result file."""
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    runs, status = [], 0
    for rep in range(args.repeat):
        for name in names:
            seed = args.seed + rep
            record = BENCH_DIR / "out" / f"{name}-seed{seed}-trace{args.trace}.json"
            record.unlink(missing_ok=True)
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   name, "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            status = status or proc.returncode
            if record.is_file():
                runs.append(json.loads(record.read_text()))
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {f"{r['workload']}/{k}": {"value": m["value"], "unit": m["unit"]}
               for r in runs[-len(names):] for k, m in r["metrics"].items()}
    print(json.dumps({"correct": status == 0 and failed == 0,
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed, seed+1, ...")
    parser.add_argument("--out", default=None,
                        help="write every run's record to this result file")
    args = parser.parse_args(argv)
    if args.workload == "all" or args.repeat > 1 or args.out:
        return run_many(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
