import math

import numpy as np
import pytest

from trapnode.cnngraph import (SHIPPED_GRAPH, Layer, LayerGraph,
                               conv_param_count, count_macs, load_graph)
from trapnode.mcu import ComputeEngine, MemoryTier, PlatformModel, builtin_platform
from trapnode.sched import (BudgetConfig, L1PlanError, compare_budgets,
                            estimate_latency, plan_schedule, run_model)


def make_platform(l2_bw=2.0, ext_overhead=0.0, util=1.0, fast=False):
    bw = 1e12 if fast else 1.0
    return PlatformModel(
        name="test", clock_hz=1e6, voltage_v=1.0,
        tiers=(
            MemoryTier("l1", 1_000_000, 1e12 if fast else 8.0,
                       1e12 if fast else 8.0, 0.0),
            MemoryTier("l2", 10_000_000, 1e12 if fast else l2_bw,
                       1e12 if fast else l2_bw, 0.0),
            MemoryTier("ext_ram", 100_000_000, bw, bw, ext_overhead),
            MemoryTier("flash", 100_000_000, bw, bw, ext_overhead),
        ),
        engines=(
            ComputeEngine("cores", "worker_cores", 2.0, num_workers=8,
                          supported_ops=frozenset({
                              "conv2d", "depthwise_conv2d", "pointwise_conv2d",
                              "pool", "hsigmoid", "hswish", "relu", "add",
                              "resize", "ssd_head", "reshape"}),
                          elementwise_bytes_per_cycle=4.0),
            ComputeEngine("acc", "conv_accelerator", 150.0,
                          depthwise_derate=1 / 16,
                          supported_ops=frozenset({
                              "conv2d", "depthwise_conv2d", "pointwise_conv2d"}),
                          utilization_std=util, utilization_dw=util),
        ),
        active_power_mw={"cnn": 1.0}, dma_overlap=True,
    )


def chain_graph(channels=(8, 8, 8), hw=20, k=3):
    layers = []
    prev = "input"
    cin = channels[0]
    for i, cout in enumerate(channels[1:], 1):
        pad = k // 2
        layers.append(Layer(
            name=f"c{i}", op_kind="conv2d", inputs=(prev,),
            in_shape=(cin, hw, hw), out_shape=(cout, hw, hw),
            kernel=(k, k), stride=1, padding=pad,
            param_count=conv_param_count((k, k), cin, cout, 1),
        ))
        prev = f"c{i}"
        cin = cout
    return LayerGraph("chain", (channels[0], hw, hw), tuple(layers))


def test_everything_fits_l2_all_resident():
    g = chain_graph()
    p = make_platform()
    schedule = plan_schedule(g, p, BudgetConfig(l1_bytes=50_000, l2_bytes=1_000_000))
    assert all(pl.transfer_class == "l2_resident" for pl in schedule.placements)
    assert schedule.peak_ext_bytes == 0


def test_oversized_tensor_spills_to_ext():
    g = chain_graph(channels=(8, 64, 8), hw=40)  # middle tensor 102400 B
    p = make_platform()
    budget = BudgetConfig(l1_bytes=30_000, l2_bytes=50_000)
    schedule = plan_schedule(g, p, budget)
    assert schedule.tensor_homes["c1"] == "ext_ram"
    consumer = schedule.placement("c2")
    assert consumer.transfer_class in ("ext_1d", "ext_2d")
    assert schedule.peak_ext_bytes >= 64 * 40 * 40


def simulate_occupancy(graph, schedule, budget):
    """Independent liveness walk checking capacity safety and greedy policy."""
    last_use = {"input": -1}
    for i, layer in enumerate(graph.layers):
        last_use[layer.name] = i
        for src in layer.inputs:
            last_use[src] = max(last_use.get(src, -1), i)
    live = {}
    peak_l2 = 0
    evicted_at = dict(schedule.evictions)

    def l2_bytes_now():
        return sum(b for name, b in live.items()
                   if schedule.tensor_homes[name] == "l2"
                   and name not in evicted_at)

    tensors = [("input", graph.input_shape, -1)] + [
        (l.name, l.out_shape, i) for i, l in enumerate(graph.layers)
    ]
    for name, shape, produced_at in tensors:
        for dead in [n for n, last in list(last_use.items())
                     if last < produced_at and n in live]:
            live.pop(dead)
        for t, at in evicted_at.items():
            if at <= produced_at and t in live:
                live.pop(t)
        if schedule.tensor_homes[name] == "l2":
            live[name] = graph.tensor_bytes(shape)
            peak_l2 = max(peak_l2, l2_bytes_now())
    return peak_l2


def random_graph(rng, n_layers=6):
    layers = []
    prev = "input"
    cin = int(rng.integers(2, 12))
    hw = int(rng.integers(8, 30))
    in_shape = (cin, hw, hw)
    for i in range(n_layers):
        kind = rng.choice(["conv", "dw", "pw", "act"])
        if kind == "act":
            layers.append(Layer(f"l{i}", "relu", (prev,), (cin, hw, hw),
                                (cin, hw, hw), elementwise=True))
        else:
            k = int(rng.choice([1, 3])) if kind != "pw" else 1
            cout = cin if kind == "dw" else int(rng.integers(2, 16))
            groups = cin if kind == "dw" else 1
            pad = k // 2
            op = {"conv": "conv2d" if k > 1 else "pointwise_conv2d",
                  "dw": "depthwise_conv2d",
                  "pw": "pointwise_conv2d"}[kind]
            layers.append(Layer(
                f"l{i}", op, (prev,), (cin, hw, hw), (cout, hw, hw),
                kernel=(k, k), stride=1, padding=pad, groups=groups,
                param_count=conv_param_count((k, k), cin, cout, groups),
            ))
            cin = cout
        prev = f"l{i}"
    return LayerGraph("rand", in_shape, tuple(layers))


def test_capacity_safety_and_greedy_policy_on_random_graphs():
    rng = np.random.default_rng(70)
    p = make_platform()
    for _ in range(40):
        g = random_graph(rng)
        l2 = int(rng.integers(500, 8_000))
        budget = BudgetConfig(l1_bytes=499, l2_bytes=l2)
        try:
            schedule = plan_schedule(g, p, budget)
        except L1PlanError:
            continue
        assert schedule.peak_l2_bytes <= l2
        peak = simulate_occupancy(g, schedule, budget)
        assert peak <= l2


def test_latency_ideal_accelerator_formula():
    # one conv of exactly 1.5 M MACs (5*5 * 6->10 channels * 25x40 output)
    # at peak 150 MAC/cycle and utilization 1, transfers vanishing:
    # 1 500 000 / 150 = 10 000 cycles
    g = LayerGraph("one", (6, 25, 40), (Layer(
        "c", "conv2d", ("input",), (6, 25, 40), (10, 25, 40),
        kernel=(5, 5), stride=1, padding=2,
        param_count=conv_param_count((5, 5), 6, 10, 1),
    ),))
    assert count_macs(g.layers[0]) == 1_500_000
    p = make_platform(fast=True)
    rep = run_model(g, p, BudgetConfig(l1_bytes=900_000, l2_bytes=9_000_000,
                                       engine="conv_accelerator",
                                       dma_overlap=True))
    assert rep.total_cycles == pytest.approx(10_000.0)


def test_depthwise_derate_and_unsupported_ops_on_cores():
    p = make_platform(fast=True)
    dw = Layer("d", "depthwise_conv2d", ("input",), (16, 10, 10), (16, 10, 10),
               kernel=(3, 3), padding=1, groups=16,
               param_count=conv_param_count((3, 3), 16, 16, 16))
    act = Layer("h", "hsigmoid", ("d",), (16, 10, 10), (16, 10, 10),
                elementwise=True)
    g = LayerGraph("t", (16, 10, 10), (dw, act))
    rep = run_model(g, p, BudgetConfig(l1_bytes=900_000, l2_bytes=9_000_000,
                                       engine="conv_accelerator", dma_overlap=True))
    dw_cost = rep.layers[0]
    act_cost = rep.layers[1]
    assert dw_cost.compute_cycles == pytest.approx(14_400 / (150.0 / 16))
    # hsigmoid is not in the accelerator's supported set: billed on cores
    assert act_cost.compute_cycles == pytest.approx(1600 / 4.0)


def test_engine_dominance():
    g = chain_graph(channels=(8, 16, 16, 8), hw=24)
    p = make_platform()
    budget_acc = BudgetConfig(l1_bytes=64_000, l2_bytes=1_000_000,
                              engine="conv_accelerator")
    budget_cores = BudgetConfig(l1_bytes=64_000, l2_bytes=1_000_000,
                                engine="worker_cores")
    acc = run_model(g, p, budget_acc)
    cores = run_model(g, p, budget_cores)
    assert acc.compute_cycles <= cores.compute_cycles


def test_2d_transfer_penalty_by_construction():
    # Shrink the budget so the big input streams from external memory in
    # many row chunks; with the per-row overhead calibrated against the
    # chunk payload, the strided fetch costs ~4.6x the contiguous stream.
    g = chain_graph(channels=(64, 4), hw=64, k=3)  # input tensor 262144 B
    tier_rows = 64 * 5  # channels x spatial passes (below)
    p_no = make_platform(ext_overhead=0.0)
    p_2d = make_platform(ext_overhead=0.0)

    budget = BudgetConfig(l1_bytes=60_000, l2_bytes=100_000)
    sched = plan_schedule(g, p_no, budget)
    assert sched.tensor_homes["input"] == "ext_ram"
    consumer = sched.placement("c1")
    assert consumer.transfer_class == "ext_2d"
    rows = 64 * consumer.tile.spatial_passes
    base = estimate_latency(sched, g, p_no, budget).layers[0].transfer_cycles

    # overhead sized so rows * overhead = 3.6x the ext payload cycles
    ext_payload = g.tensor_bytes(g.input_shape) / 1.0
    overhead = 3.6 * ext_payload / rows
    p_cal = make_platform(ext_overhead=overhead)
    withov = estimate_latency(sched, g, p_cal, budget).layers[0].transfer_cycles
    assert withov - base == pytest.approx(3.6 * ext_payload, rel=0.01)


def test_budget_monotonicity_on_random_graphs():
    rng = np.random.default_rng(71)
    p = make_platform()
    for _ in range(25):
        g = random_graph(rng)
        budgets = [
            BudgetConfig(l1_bytes=1_000, l2_bytes=3_000),
            BudgetConfig(l1_bytes=4_000, l2_bytes=20_000),
            BudgetConfig(l1_bytes=16_000, l2_bytes=200_000),
        ]
        try:
            comparison = compare_budgets(g, p, budgets)
        except L1PlanError:
            continue
        assert comparison.monotone_nonincreasing


def test_breakdown_conservation():
    g = load_graph(SHIPPED_GRAPH)
    p = builtin_platform("gap9")
    budget = BudgetConfig(dma_overlap=True)
    rep = run_model(g, p, budget)
    assert sum(rep.class_cycles.values()) == pytest.approx(rep.total_cycles)
    assert sum(rep.class_transfer_cycles.values()) == pytest.approx(rep.transfer_cycles)


def test_identical_budgets_identical_reports():
    g = chain_graph()
    p = make_platform()
    b = BudgetConfig(l1_bytes=8_000, l2_bytes=50_000)
    comparison = compare_budgets(g, p, [b, b])
    assert comparison.reports[0] == comparison.reports[1]


def test_l1_plan_error_identifies_layer():
    g = chain_graph(channels=(256, 256), hw=64)
    p = make_platform()
    with pytest.raises(L1PlanError) as err:
        plan_schedule(g, p, BudgetConfig(l1_bytes=100, l2_bytes=10_000_000))
    assert "c1" in str(err.value)


def test_shipped_graph_ext_arena_bound():
    g = load_graph(SHIPPED_GRAPH)
    p = builtin_platform("gap9")
    schedule = plan_schedule(g, p, BudgetConfig(dma_overlap=True))
    # the externally allocated arena stays within 1.6 MB
    assert schedule.peak_ext_bytes <= int(1.6 * 2 ** 20)
    assert schedule.peak_l2_bytes <= 1_200_000


def test_input_home_follows_evictions():
    """A placement's input_home is the tier its first input is read from:
    external RAM once that input was evicted at an earlier layer."""
    g = load_graph(SHIPPED_GRAPH)
    schedule = plan_schedule(g, builtin_platform("gap9"),
                             BudgetConfig(l2_bytes=267_000))
    read_evicted = 0
    for i, (layer, p) in enumerate(zip(g.layers, schedule.placements)):
        assert p.input_home == schedule.home_at(layer.inputs[0], i)
        read_evicted += schedule.evictions.get(layer.inputs[0], i) < i
    assert read_evicted
