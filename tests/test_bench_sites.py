"""The program names the benchmark's traced run wraps still resolve."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Wrapped names whose code is gone; their layer metrics read 0.
DEAD_SITES = {"trapnode.integral.padded_plane", "trapnode.detector.padded_plane",
              "trapnode.detector.eval_grid"}


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_wrapped_names_resolve():
    """Every name in `perfbench/layers.py`'s SITES resolves the way the
    tracer resolves it, except the known dead ones, so a refactor cannot
    silently drop a traced name such as `cli.load_graph`."""
    layers, tracing = _bench_module("layers"), _bench_module("tracing")
    targets = {t for _, _, wrapped, _ in layers.SITES for t in wrapped}
    assert {"trapnode.cli.load_graph", "trapnode.sched.transfer_cycles",
            "trapnode.cli.plan_schedule", "trapnode.cli.estimate_latency"} <= targets
    assert {t for t in targets if tracing._resolve(t) is None} == DEAD_SITES
