"""Where the traced run wraps the program, and how spans become layer metrics.

Each site lists the dotted attributes it is installed at: the defining
module and every module that imported the name. Hooks turn arguments and
results into work counts at the boundary where the work happens.
"""

from __future__ import annotations

import numpy as np

# Stages of the fixed bench cascade (perfbench/data/bench_cascade.json).
BENCH_STAGES = 13


def _downscale(t, args, result):
    t.add("imaging.downscale.px_out", args[1] * args[2])


def _build_integral(t, args, result):
    t.add("integral.build.px", args[0].width * args[0].height)


def _eval_grid(t, args, result):
    cascade, xs = args[0], args[3]
    accepted, stage_idx = result[0], result[1]
    t.add("cascade.windows_in", xs.shape[0])
    t.add("cascade.accepted", int(accepted.sum()))
    # Windows reaching stage k are those whose last evaluated stage is >= k.
    last = np.bincount(stage_idx, minlength=len(cascade.stages))
    reach = last[::-1].cumsum()[::-1]
    for k, stage in enumerate(cascade.stages):
        t.add(f"cascade.stage_reach.{k}", int(reach[k]))
        t.add("cascade.weak_evals", int(reach[k]) * len(stage.weak))


def _plan_tiles(t, args, result):
    t.add("detector.tiles", len(result))


def _group(t, args, result):
    t.add("detector.hits_pre_group", len(args[0]))


def _mine(t, args, result):
    t.add("trainer.mine.windows_kept", len(result))


def _window_stack(t, args, result):
    n = args[1].shape[0]
    t.add("trainer.windowstack.windows", n)
    if t.current_span() == "trainer.mine":
        t.add("trainer.mine.windows_scanned", n)


def _stump_round(t, args, result):
    t.add("trainer.stump_search.rounds", 1)


def _train_cascade(t, args, result):
    t.add("trainer.stages", len(result.cascade.stages))


def _plan_schedule(t, args, result):
    ext = sum(1 for home in result.tensor_homes.values() if home == "ext_ram")
    t.add("sched.ext_resident_tensors", ext + len(result.evictions))


def _estimate_latency(t, args, result):
    t.add("sched.sim_total_cycles", result.total_cycles)


def _simulate(t, args, result):
    t.add("power.simulate.wakes", len(result.timeline))
    t.add("power.sim_days", result.days_simulated)


def _emit(t, args, result):
    t.add("cli.report_bytes", len(args[0]))


P = "trapnode."
_PROBE = P + "trainer._PoolProbe."

# (label, records a span, wrapped attributes, hook). A site that records no
# span leaves its call's time with the caller's self time; its label only
# names it. A span site's label is the span name.
SITES = [
    ("imaging.downscale", True, [P + "imaging.downscale", P + "detector.downscale",
                                 P + "trainer.downscale"], _downscale),
    ("integral.build", True, [P + "integral.build_integral",
                              P + "detector.build_integral"], _build_integral),
    ("integral.padded_plane", True, [P + "integral.padded_plane",
                                     P + "detector.padded_plane"], None),
    ("cascade.eval_grid", True, [P + "cascade.eval_grid",
                                 P + "detector.eval_grid"], _eval_grid),
    ("detector.detect", True, [P + "detector.detect"], None),
    ("detector.scan_tile", True, [P + "detector.scan_tile"], None),
    ("detector.build_pyramid", True, [P + "detector.build_pyramid"], None),
    ("detector.plan_tiles", False, [P + "detector.plan_tiles"], _plan_tiles),
    ("detector.group", False, [P + "detector._group_by_iou"], _group),
    ("trainer.train_cascade", True, [P + "trainer.train_cascade"], _train_cascade),
    ("trainer.mine", True, [P + "trainer._mine_negatives"], _mine),
    ("trainer.windowstack", True, [P + "trainer.WindowStack.__init__"],
     _window_stack),
    ("trainer.stump_search", True, [P + "trainer.StumpSearcher.__init__"], None),
    ("trainer.stump_search", True, [P + "trainer.StumpSearcher.best"],
     _stump_round),
    ("trainer.boost", True, [P + "trainer._boost_stage"], None),
    ("trainer.probe", True, [_PROBE + m for m in (
        "__init__", "begin_stage", "add_weak", "fp_rate", "alive_scores",
        "commit_stage")], None),
    ("evaluator.match", True, [P + "evaluator.match_detections"], None),
    ("cnngraph.load_graph", True, [P + "cnngraph.load_graph",
                                   P + "cli.load_graph"], None),
    ("mcu.transfer_cycles", True, [P + "mcu.transfer_cycles",
                                   P + "sched.transfer_cycles"], None),
    ("sched.plan_schedule", True, [P + "sched.plan_schedule",
                                   P + "cli.plan_schedule"], _plan_schedule),
    ("sched.estimate_latency", True, [P + "sched.estimate_latency",
                                      P + "cli.estimate_latency"],
     _estimate_latency),
    ("power.simulate", True, [P + "power.simulate", P + "cli.simulate"],
     _simulate),
    ("cli.main", True, [P + "cli.main"], None),
    ("cli.emit", False, [P + "cli._emit"], _emit),
]


def _m(name, unit, better, site, kind, key=None):
    return name, unit, better, site, kind, key


# (metric, unit, better, site label, kind, key). Kinds: "calls", "s" and
# "self_s" read the site's span totals; "count" reads a hook's count `key`;
# "ratio" divides two counts; "overhead" is the tracing overhead.
PER_LAYER = [
    _m("imaging.downscale.calls", "count", "lower", "imaging.downscale", "calls"),
    _m("imaging.downscale.self_s", "s", "lower", "imaging.downscale", "self_s"),
    _m("imaging.downscale.px_out", "count", "lower", "imaging.downscale", "count",
       "imaging.downscale.px_out"),
    _m("integral.build.calls", "count", "lower", "integral.build", "calls"),
    _m("integral.build.px", "count", "lower", "integral.build", "count",
       "integral.build.px"),
    _m("integral.build.self_s", "s", "lower", "integral.build", "self_s"),
    _m("integral.padded_plane.self_s", "s", "lower", "integral.padded_plane",
       "self_s"),
    _m("cascade.eval_grid.calls", "count", "lower", "cascade.eval_grid", "calls"),
    _m("cascade.eval_grid.self_s", "s", "lower", "cascade.eval_grid", "self_s"),
    _m("cascade.windows_in", "count", "lower", "cascade.eval_grid", "count",
       "cascade.windows_in"),
    *[_m(f"cascade.stage_reach.{k}", "count", "lower", "cascade.eval_grid",
         "count", f"cascade.stage_reach.{k}") for k in range(BENCH_STAGES)],
    _m("cascade.weak_evals", "count", "lower", "cascade.eval_grid", "count",
       "cascade.weak_evals"),
    _m("cascade.accept_ratio", "ratio", "lower", "cascade.eval_grid", "ratio",
       ("cascade.accepted", "cascade.windows_in")),
    _m("detector.detect.self_s", "s", "lower", "detector.detect", "self_s"),
    _m("detector.scan_tile.self_s", "s", "lower", "detector.scan_tile", "self_s"),
    _m("detector.build_pyramid.s", "s", "lower", "detector.build_pyramid", "s"),
    _m("detector.tiles", "count", "lower", "detector.plan_tiles", "count",
       "detector.tiles"),
    _m("detector.hits_pre_group", "count", "lower", "detector.group", "count",
       "detector.hits_pre_group"),
    _m("trainer.mine.self_s", "s", "lower", "trainer.mine", "self_s"),
    _m("trainer.mine.windows_scanned", "count", "lower", "trainer.windowstack",
       "count", "trainer.mine.windows_scanned"),
    _m("trainer.mine.windows_kept", "count", "higher", "trainer.mine", "count",
       "trainer.mine.windows_kept"),
    _m("trainer.windowstack.windows", "count", "lower", "trainer.windowstack",
       "count", "trainer.windowstack.windows"),
    _m("trainer.windowstack.s", "s", "lower", "trainer.windowstack", "s"),
    _m("trainer.stump_search.s", "s", "lower", "trainer.stump_search", "s"),
    _m("trainer.stump_search.rounds", "count", "lower", "trainer.stump_search",
       "count", "trainer.stump_search.rounds"),
    _m("trainer.boost.self_s", "s", "lower", "trainer.boost", "self_s"),
    _m("trainer.probe.s", "s", "lower", "trainer.probe", "s"),
    _m("trainer.stages", "count", "higher", "trainer.train_cascade", "count",
       "trainer.stages"),
    _m("evaluator.match.calls", "count", "lower", "evaluator.match", "calls"),
    _m("evaluator.match.self_s", "s", "lower", "evaluator.match", "self_s"),
    _m("cnngraph.load_graph.s", "s", "lower", "cnngraph.load_graph", "s"),
    _m("mcu.transfer_cycles.calls", "count", "lower", "mcu.transfer_cycles",
       "calls"),
    _m("mcu.transfer_cycles.s", "s", "lower", "mcu.transfer_cycles", "s"),
    _m("sched.plan_schedule.s", "s", "lower", "sched.plan_schedule", "s"),
    _m("sched.estimate_latency.s", "s", "lower", "sched.estimate_latency", "s"),
    _m("sched.ext_resident_tensors", "count", "lower", "sched.plan_schedule",
       "count", "sched.ext_resident_tensors"),
    _m("sched.sim_total_cycles", "cycles", "lower", "sched.estimate_latency",
       "count", "sched.sim_total_cycles"),
    _m("power.simulate.s", "s", "lower", "power.simulate", "s"),
    _m("power.simulate.wakes", "count", "higher", "power.simulate", "count",
       "power.simulate.wakes"),
    _m("power.sim_days", "days", "higher", "power.simulate", "count",
       "power.sim_days"),
    _m("cli.main.self_s", "s", "lower", "cli.main", "self_s"),
    _m("cli.report_bytes", "B", "lower", "cli.emit", "count", "cli.report_bytes"),
    _m("trace.overhead_pct", "%", "lower", None, "overhead"),
]


def install(tracer) -> None:
    for label, records_span, targets, hook in SITES:
        for target in targets:
            tracer.wrap(target, label if records_span else None, hook)


def layer_metrics(tracer, overhead_pct: float) -> tuple[dict, list[str]]:
    """Every PER_LAYER metric as {name: {value, unit}}, plus the absent ones.

    A metric is absent when every attribute its site wraps no longer exists;
    it then reads 0, because the program made no such call.
    """
    present = {label for label, _, targets, _ in SITES
               if any(t not in tracer.absent for t in targets)}
    totals = tracer.span_totals()
    counts = tracer.counts
    metrics: dict[str, dict] = {}
    absent: list[str] = []
    for name, unit, _better, site, kind, key in PER_LAYER:
        if kind == "overhead":
            value = overhead_pct
        elif kind == "count":
            value = counts.get(key, 0)
        elif kind == "ratio":
            den = counts.get(key[1], 0)
            value = counts.get(key[0], 0) / den if den else 0.0
        else:
            value = totals.get(site, {}).get(kind, 0)
        if site is not None and site not in present:
            absent.append(name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent
