import hashlib
import itertools
import math

import numpy as np
import pytest

from trapnode import sched
from trapnode.cnngraph import (CONV_KINDS, SHIPPED_GRAPH, Layer, LayerGraph,
                               conv_param_count, count_macs, load_graph)
from trapnode.mcu import ComputeEngine, MemoryTier, PlatformModel, builtin_platform
from trapnode.sched import (BudgetConfig, L1PlanError, TilePlan, _halo_rows,
                            _plan_l1_tile, compare_budgets, estimate_latency,
                            plan_schedule, run_model)


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
    budget = BudgetConfig(l1_bytes=50_000, l2_bytes=1_000_000)
    schedule = plan_schedule(g, p, budget)
    report = estimate_latency(schedule, g, p, budget)
    assert all(c.transfer_class == "l2_resident" for c in report.layers)
    assert schedule.peak_ext_bytes == 0


def test_oversized_tensor_spills_to_ext():
    g = chain_graph(channels=(8, 64, 8), hw=40)  # middle tensor 102400 B
    p = make_platform()
    budget = BudgetConfig(l1_bytes=30_000, l2_bytes=50_000)
    schedule = plan_schedule(g, p, budget)
    assert schedule.tensor_homes["c1"] == "ext_ram"
    consumer = estimate_latency(schedule, g, p, budget).layers[1]
    assert consumer.name == "c2"
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
    cost = estimate_latency(sched, g, p_no, budget).layers[0]
    assert cost.transfer_class == "ext_2d"
    rows = 64 * consumer.tile.spatial_passes
    base = cost.transfer_cycles

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


def test_depthwise_read_from_ext_in_one_spatial_pass_is_ext_1d():
    """A depthwise layer whose input lives in external RAM, tiled into
    channel slices that each cover every row, fetches one contiguous copy
    per slice: `ext_1d`, however many channel passes it takes."""
    dw = Layer("d", "depthwise_conv2d", ("input",), (64, 16, 16), (64, 16, 16),
               kernel=(3, 3), padding=1, groups=64,
               param_count=conv_param_count((3, 3), 64, 64, 64))
    g = LayerGraph("dw", (64, 16, 16), (dw,))
    p = make_platform(ext_overhead=5.0)
    budget = BudgetConfig(l1_bytes=5_000, l2_bytes=10_000)
    schedule = plan_schedule(g, p, budget)
    placement = schedule.placement("d")
    assert placement.input_home == "ext_ram"
    assert placement.tile.spatial_passes == 1 and placement.tile.cout_passes > 1
    assert estimate_latency(schedule, g, p, budget).layers[0].transfer_class == "ext_1d"


def test_fused_layer_billed_no_external_copy_is_l2_resident():
    """An activation fused onto its producer's L1 tile is billed no fetch and
    no writeback, so it is `l2_resident` even though its output's home is
    external RAM."""
    conv = Layer("c", "pointwise_conv2d", ("input",), (1, 16, 16), (64, 16, 16),
                 param_count=conv_param_count((1, 1), 1, 64, 1))
    act = Layer("r", "relu", ("c",), (64, 16, 16), (64, 16, 16), elementwise=True)
    g = LayerGraph("fused", (1, 16, 16), (conv, act))
    p = make_platform()
    budget = BudgetConfig(l1_bytes=2_000, l2_bytes=10_000)
    schedule = plan_schedule(g, p, budget)
    assert schedule.placement("r").fused_input == "c"
    assert schedule.tensor_homes["r"] == "ext_ram"
    cost = estimate_latency(schedule, g, p, budget).layers[1]
    assert cost.transfer_cycles == 0
    assert cost.transfer_class == "l2_resident"


def test_node_sweep_cycles_pinned():
    """Per-layer compute, transfer and total cycles of the shipped graph over
    the 96 platform/engine/L1/L2/overlap points of the `node` design sweep,
    pinned by sha-256 of their exact float reprs."""
    g = load_graph(SHIPPED_GRAPH)
    digest = hashlib.sha256()
    for name, engines in (("gap9", ("conv_accelerator", "worker_cores")),
                          ("gap8", ("worker_cores",))):
        p = builtin_platform(name)
        for engine, l1, l2, overlap in itertools.product(
                engines, (46_700, 64_000, 90_000, 115_600),
                (267_000, 512_000, 800_000, 1_200_000), (True, False)):
            for c in run_model(g, p, BudgetConfig(l1, l2, engine, overlap)).layers:
                digest.update(f"{c.name},{c.compute_cycles!r},{c.transfer_cycles!r},"
                              f"{c.total_cycles!r}\n".encode())
    assert digest.hexdigest() == ("4f385c6c99d7798f6a64ad680bb897a2"
                                  "b3a81439151a01b9fd8d4e88e1e1dd3f")


def test_node_sweep_placements_pinned():
    """Peak L2 and external-RAM bytes, evictions and tensor homes of the
    shipped graph over the 96 points of the `node` design sweep, pinned by
    sha-256 of their sorted items."""
    g = load_graph(SHIPPED_GRAPH)
    digest = hashlib.sha256()
    for name, engines in (("gap9", ("conv_accelerator", "worker_cores")),
                          ("gap8", ("worker_cores",))):
        p = builtin_platform(name)
        for engine, l1, l2, overlap in itertools.product(
                engines, (46_700, 64_000, 90_000, 115_600),
                (267_000, 512_000, 800_000, 1_200_000), (True, False)):
            s = plan_schedule(g, p, BudgetConfig(l1, l2, engine, overlap))
            digest.update(f"{s.peak_l2_bytes},{s.peak_ext_bytes},"
                          f"{sorted(s.evictions.items())},"
                          f"{sorted(s.tensor_homes.items())}\n".encode())
    assert digest.hexdigest() == ("1c4c4ada3e4999f39611c54e89327813"
                                  "7cacf98c96445b1a81732334f0ca45e3")


def _searched_l1_tile(layer, element_bytes, l1_bytes):
    """The reference tile plan: the most rows that fit a 1-channel slice,
    then the widest slice at that row count by binary search over `fits`."""
    cin, hin, win = layer.in_shape
    cout, hout, wout = layer.out_shape
    kh, kw = layer.kernel
    per_cout_weight = kh * kw * (cin // layer.groups) * element_bytes + element_bytes

    def fits(rows, m):
        in_rows = min(_halo_rows(layer, rows), hin)
        cin_slice = m if layer.op_kind == "depthwise_conv2d" else cin
        return (cin_slice * in_rows * win * element_bytes
                + m * rows * wout * element_bytes
                + per_cout_weight * m) <= l1_bytes

    for rows in range(hout, 0, -1):
        if not fits(rows, 1):
            continue
        lo, hi = 1, cout
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if fits(rows, mid):
                lo = mid
            else:
                hi = mid - 1
        return TilePlan(rows=rows, cout_slice=lo, spatial_passes=math.ceil(hout / rows),
                        cout_passes=math.ceil(cout / lo))
    return None


def test_l1_tile_slice_matches_binary_search():
    """The closed-form row count and channel slice equal the row scan and
    binary search over `fits`: for every conv layer of the shipped graph at
    the 32 (L1, L2) budgets of the `node` sweep, and for small layers at
    every L1 budget from 0 B, where no tile fits, up to the one where a
    single pass holds the whole layer."""
    g = load_graph(SHIPPED_GRAPH)
    checked = 0
    for name in ("gap9", "gap8"):
        p = builtin_platform(name)
        for l1, l2 in itertools.product((46_700, 64_000, 90_000, 115_600),
                                        (267_000, 512_000, 800_000, 1_200_000)):
            l1_cap = min(l1, p.tier("l1").capacity)
            schedule = plan_schedule(g, p, BudgetConfig(l1, l2))
            for layer, placement in zip(g.layers, schedule.placements):
                if layer.op_kind in CONV_KINDS:
                    assert placement.tile == _searched_l1_tile(
                        layer, g.element_bytes, l1_cap), layer.name
                    checked += 1
    assert checked == 32 * sum(layer.op_kind in CONV_KINDS for layer in g.layers) > 0
    dw = Layer("d", "depthwise_conv2d", ("input",), (24, 12, 12), (24, 6, 6),
               kernel=(3, 3), stride=2, padding=1, groups=24,
               param_count=conv_param_count((3, 3), 24, 24, 24))
    # Stride 2: the halo of the last rows, 2 * rows + 1, reaches hin = 13.
    strided = Layer("s", "conv2d", ("input",), (6, 13, 13), (10, 7, 7),
                    kernel=(3, 3), stride=2, padding=1,
                    param_count=conv_param_count((3, 3), 6, 10, 1))
    # 5x5: the halo, rows + 4, reaches hin = 9 from 5 output rows on.
    wide = Layer("w", "conv2d", ("input",), (4, 9, 9), (6, 9, 9),
                 kernel=(5, 5), padding=2,
                 param_count=conv_param_count((5, 5), 4, 6, 1))
    for layer in chain_graph(channels=(16, 24, 8), hw=12).layers + (dw, strided, wide):
        outcomes = set()
        l1 = 0
        while True:
            expected = _searched_l1_tile(layer, 1, l1)
            if expected is None:
                with pytest.raises(L1PlanError):
                    _plan_l1_tile(layer, 1, l1)
            else:
                assert _plan_l1_tile(layer, 1, l1) == expected, (layer.name, l1)
            outcomes.add(expected and expected.rows)
            if expected and expected.spatial_passes == expected.cout_passes == 1:
                break
            l1 += 1
        # Every row count from none to the full height was met.
        assert outcomes == {None, *range(1, layer.out_shape[1] + 1)}, layer.name


def _fresh(graph):
    """An equal graph object, so its layer table is built anew."""
    return LayerGraph(graph.name, graph.input_shape, graph.layers,
                      graph.element_bytes)


def test_alternating_graphs_get_their_own_tables():
    """Two graph objects of one name and length, planned alternately, each
    get their own schedule and report, equal to those from a freshly built
    table."""
    p = make_platform()
    rng = np.random.default_rng(72)
    graphs = [random_graph(rng, n_layers=8), random_graph(rng, n_layers=8)]
    budget = BudgetConfig(l1_bytes=30_000, l2_bytes=50_000)
    expected = []
    for g in graphs:
        fresh = _fresh(g)
        schedule = plan_schedule(fresh, p, budget)
        expected.append((schedule, estimate_latency(schedule, fresh, p, budget)))
    for _ in range(2):
        for g, (schedule, report) in zip(graphs, expected):
            got = plan_schedule(g, p, budget)
            assert got == schedule
            assert estimate_latency(got, g, p, budget) == report
            assert sched.layer_table(g).graph is g
    assert expected[0][0] != expected[1][0]


def test_l1_plan_error_is_not_cached():
    """A cap that raises `L1PlanError` raises again on repeat and leaves a
    later valid cap's plan as a fresh table gives it."""
    g = chain_graph(channels=(256, 256), hw=64)
    p = make_platform()
    for _ in range(2):
        with pytest.raises(L1PlanError, match="c1"):
            plan_schedule(g, p, BudgetConfig(l1_bytes=100, l2_bytes=10_000_000))
    assert 100 not in sched.layer_table(g)._caps
    budget = BudgetConfig(l1_bytes=200_000, l2_bytes=10_000_000)
    assert plan_schedule(g, p, budget) == plan_schedule(_fresh(g), p, budget)


def test_layer_tables_stay_within_their_bounds():
    """More graphs than `TABLE_CACHE_SIZE` and more L1 caps than
    `CAPS_PER_TABLE` keep both caches at their bounds, and every plan
    still equals a fresh table's."""
    p = make_platform()
    rng = np.random.default_rng(73)
    graphs = [random_graph(rng) for _ in range(sched.TABLE_CACHE_SIZE + 3)]
    budget = BudgetConfig(l1_bytes=4_000, l2_bytes=20_000)
    for g in graphs:
        assert plan_schedule(g, p, budget) == plan_schedule(_fresh(g), p, budget)
        assert len(sched._TABLES) <= sched.TABLE_CACHE_SIZE
    assert sched.layer_table(graphs[-1]) is sched.layer_table(graphs[-1])
    g = graphs[-1]
    for l1 in range(4_000, 4_000 + 100 * (sched.CAPS_PER_TABLE + 3), 100):
        budget = BudgetConfig(l1_bytes=l1, l2_bytes=20_000)
        assert plan_schedule(g, p, budget) == plan_schedule(_fresh(g), p, budget)
        assert len(sched.layer_table(g)._caps) <= sched.CAPS_PER_TABLE
    assert len(sched.layer_table(g)._caps) == sched.CAPS_PER_TABLE


def test_result_rows_are_immutable():
    g = chain_graph()
    p = make_platform()
    budget = BudgetConfig(l1_bytes=50_000, l2_bytes=1_000_000)
    schedule = plan_schedule(g, p, budget)
    placement = schedule.placements[0]
    with pytest.raises(AttributeError):
        placement.weight_home = "l2"
    with pytest.raises(AttributeError):
        placement.tile.rows = 1
    with pytest.raises(AttributeError):
        estimate_latency(schedule, g, p, budget).layers[0].total_cycles = 0.0
    assert placement == (placement.name, placement.weight_home, placement.input_home,
                         placement.output_home, placement.tile, None)
