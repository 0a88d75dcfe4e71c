"""Memory placement and latency estimation for layer-by-layer inference.

Placement is greedy in topological order over one lifetime table, built in a
single pass over the layers: each tensor's consumer indices, and the layer
after which it dies (its last consumer, or its producer if nothing consumes
it). Activations live in L2 while the occupancy of the live tensors fits the
budget. To make room for an output, the live L2 tensor whose last use lies
farthest ahead moves to external RAM (Belady's rule, ties to the larger
name); an output that still does not fit spills there. An output whose only
consumer is the next, elementwise, layer stays in L1. A layer reads a tensor
from external RAM once it was evicted at an earlier layer, else from the tier
it was placed in; the latency estimate, the reported input home and
`Schedule.home_at` all apply that one rule. Per-layer weights prefetch
FLASH->L2 when the residual L2 budget allows, else stream from FLASH. The
occupancy of each tier is a running sum, and a tensor leaves it after the
layer at which it dies.

Each conv layer gets an L1 tile plan (output row bands times output-channel
slices) sized to the L1 budget in closed form. A 1-channel slice of r output
rows holds min((r - 1) * stride + kh, hin) source rows of the input channels
it reads, r output rows and one channel's weights. Those bytes are the
smaller of two lines in r, so the most rows that fit is the larger of the
two lines' integer roots, capped at the layer's height. At that row count
the bytes are linear in the slice width, so the widest slice is one more
division.

Transfers route through the hierarchy (external memory reaches L1 via L2).
An external input fetched in a single spatial pass is a contiguous 1D
stream; one fetched in several row-band passes is a strided 2D pattern
billed one 1D copy per channel row-chunk, which is where the per-row DMA
overhead bites. A layer's transfer class is read off that bill: `ext_2d` if
any of its operand fetches or its writeback crossed external RAM split into
rows, `ext_1d` if each that crossed was one contiguous copy, else
`l2_resident`. Layer cost is compute + transfer, or max of the two when DMA
double-buffering is enabled on both the platform and the run config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cnngraph import CONV_KINDS, Layer, LayerGraph, count_macs
from .mcu import PlatformModel, transfer_cycles

TRANSFER_CLASSES = ("l2_resident", "ext_1d", "ext_2d")
ROUTED_TIERS = ("l1", "l2", "ext_ram", "flash")
_EXTERNAL = ("ext_ram", "flash")  # tiers reached through L2


class L1PlanError(ValueError):
    """A layer's minimal working set does not fit the L1 budget."""


@dataclass(frozen=True)
class BudgetConfig:
    l1_bytes: int = 115_600
    l2_bytes: int = 1_200_000
    engine: str = "conv_accelerator"
    dma_overlap: bool = False

    def __post_init__(self):
        if self.l1_bytes <= 0 or self.l2_bytes <= 0:
            raise ValueError("budgets must be positive")
        if self.l1_bytes >= self.l2_bytes:
            raise ValueError("l1 budget must be smaller than l2")
        if self.engine not in ("worker_cores", "conv_accelerator"):
            raise ValueError(f"unknown engine {self.engine!r}")


@dataclass(frozen=True)
class TilePlan:
    rows: int          # output rows per pass
    cout_slice: int    # output channels per pass
    spatial_passes: int
    cout_passes: int


@dataclass(frozen=True)
class LayerPlacement:
    name: str
    weight_home: str    # "l2" (prefetched) or "flash" (streamed per tile)
    input_home: str
    output_home: str
    tile: TilePlan
    fused_input: str | None = None  # operand consumed in-flight from the
                                    # producing layer's L1 tile (elementwise
                                    # ops running before writeback)


@dataclass(frozen=True)
class Schedule:
    placements: tuple[LayerPlacement, ...]
    tensor_homes: dict
    peak_l2_bytes: int
    peak_ext_bytes: int
    evictions: dict  # tensor -> layer index at which it moved L2 -> ext

    def placement(self, name: str) -> LayerPlacement:
        for p in self.placements:
            if p.name == name:
                return p
        raise KeyError(name)

    def home_at(self, tensor: str, layer_index: int) -> str:
        """Tier a consumer at `layer_index` reads the tensor from."""
        return _read_home(self.tensor_homes, self.evictions, tensor, layer_index)


@dataclass(frozen=True)
class LayerCost:
    name: str
    transfer_class: str
    compute_cycles: float
    transfer_cycles: float
    total_cycles: float


@dataclass(frozen=True)
class LatencyReport:
    layers: tuple[LayerCost, ...]
    total_cycles: float
    compute_cycles: float
    transfer_cycles: float
    class_cycles: dict
    class_transfer_cycles: dict
    total_macs: int
    wall_time_s: float

    @property
    def mac_per_cycle(self) -> float:
        return self.total_macs / self.total_cycles if self.total_cycles else 0.0


def require_routable(platform: PlatformModel) -> PlatformModel:
    """`platform` itself, if it has every tier the scheduler routes data
    through and the worker cores; else a ValueError naming what it lacks."""
    names = {t.name for t in platform.tiers}
    for tier in ROUTED_TIERS:
        if tier not in names:
            raise ValueError(f"platform {platform.name} has no tier {tier!r}")
    if not platform.has_engine("worker_cores"):
        raise ValueError(f"platform {platform.name} has no worker_cores engine")
    return platform


def _weight_bytes(layer: Layer, element_bytes: int) -> int:
    return layer.param_count * element_bytes if layer.op_kind in CONV_KINDS else 0


def _halo_rows(layer: Layer, out_rows: int) -> int:
    # source rows needed to produce `out_rows` output rows
    if layer.op_kind in CONV_KINDS:
        return (out_rows - 1) * layer.stride + layer.kernel[0]
    return out_rows


def _plan_l1_tile(layer: Layer, element_bytes: int, l1_bytes: int) -> TilePlan:
    cin, hin, win = layer.in_shape
    cout, hout, wout = layer.out_shape
    if layer.op_kind not in CONV_KINDS:
        # Elementwise/marker ops stream flat chunks; any chunk size works.
        return TilePlan(rows=hout, cout_slice=cout, spatial_passes=1, cout_passes=1)

    kh, kw = layer.kernel
    per_cout_weight = kh * kw * (cin // layer.groups) * element_bytes + element_bytes
    depthwise = layer.op_kind == "depthwise_conv2d"
    # A 1-channel slice of `rows` output rows holds
    #   in_row * min(halo(rows), hin) + out_row * rows + per_cout_weight
    # bytes of L1 (a depthwise slice reads one input channel). That is the
    # smaller of two lines in `rows`, so the most rows that fit is the larger
    # of the two lines' integer roots.
    in_row = (1 if depthwise else cin) * win * element_bytes
    out_row = wout * element_bytes
    free = l1_bytes - per_cout_weight
    halo_bound = (free - in_row * (kh - layer.stride)) // (in_row * layer.stride + out_row)
    full_bound = (free - in_row * hin) // out_row
    rows = min(hout, max(halo_bound, full_bound))
    if rows < 1:
        raise L1PlanError(
            f"layer {layer.name}: even a 1-row, 1-channel tile exceeds "
            f"{l1_bytes} B of L1"
        )
    # At that row count an m-channel slice holds fixed + per_cout * m bytes
    # of L1, so the widest slice is one division. A depthwise slice holds
    # only its own input channels.
    in_channel = min(_halo_rows(layer, rows), hin) * win * element_bytes
    per_cout = per_cout_weight + rows * out_row
    if depthwise:
        fixed, per_cout = 0, per_cout + in_channel
    else:
        fixed = cin * in_channel
    m = min(cout, (l1_bytes - fixed) // per_cout)
    return TilePlan(
        rows=rows, cout_slice=m,
        spatial_passes=math.ceil(hout / rows),
        cout_passes=math.ceil(cout / m),
    )


def _read_home(homes: dict, evictions: dict, tensor: str, layer_index: int) -> str:
    """Tier a layer at `layer_index` reads `tensor` from: external RAM once
    the tensor was evicted at an earlier layer, else the tier it was placed in."""
    if tensor in evictions and evictions[tensor] < layer_index:
        return "ext_ram"
    return homes[tensor]


def plan_schedule(graph: LayerGraph, platform: PlatformModel,
                  budget: BudgetConfig) -> Schedule:
    """Greedy topological placement of activations and weights.

    The L1 and L2 budgets are capped at the platform's tier capacities.
    """
    eb = graph.element_bytes
    l1_cap = min(budget.l1_bytes, platform.tier("l1").capacity)
    l2_cap = min(budget.l2_bytes, platform.tier("l2").capacity)

    # The lifetime table: each tensor's consumer indices in layer order, and
    # the index after which it dies: its last consumer's, or its producer's
    # if nothing consumes it.
    uses: dict[str, list[int]] = {"input": []}
    dies: dict[str, int] = {"input": -1}
    for i, layer in enumerate(graph.layers):
        for src in layer.inputs:
            uses[src].append(i)
            dies[src] = i
        uses[layer.name] = []
        dies[layer.name] = i

    dying: dict[int, list[str]] = {}
    for name, at in dies.items():
        dying.setdefault(at, []).append(name)

    homes: dict[str, str] = {}
    # Live tensors and their bytes by tier, with their running sum and peak.
    live: dict[str, dict[str, int]] = {"l2": {}, "ext_ram": {}}
    used = {"l2": 0, "ext_ram": 0}
    peak = {"l2": 0, "ext_ram": 0}
    evictions: dict[str, int] = {}

    def hold(tier: str, name: str, nbytes: int) -> None:
        live[tier][name] = nbytes
        used[tier] += nbytes
        peak[tier] = max(peak[tier], used[tier])

    def place(name: str, nbytes: int) -> None:
        homes[name] = "l2" if used["l2"] + nbytes <= l2_cap else "ext_ram"
        hold(homes[name], name, nbytes)

    place("input", graph.tensor_bytes(graph.input_shape))
    placements = []
    for i, layer in enumerate(graph.layers):
        # Operands produced by the immediately preceding layer are tapped in
        # L1 before writeback, so elementwise consumers fetch them for free.
        prev = graph.layers[i - 1].name if i else None
        fused_input = prev if layer.elementwise and prev in layer.inputs else None

        if uses[layer.name] == [i + 1] and graph.layers[i + 1].elementwise:
            # Chained through the L1 tile pipeline into its only consumer,
            # the next layer; never written to L2 or external memory.
            homes[layer.name] = "l1"
        else:
            nbytes = graph.tensor_bytes(layer.out_shape)
            # Belady's rule: until the output fits, move the live L2 tensor
            # whose last use lies farthest ahead out to external RAM.
            while nbytes <= l2_cap and used["l2"] + nbytes > l2_cap:
                victim = max(((dies[t], t) for t in live["l2"] if dies[t] > i),
                             default=None)
                if victim is None:
                    break
                _, name = victim
                moved = live["l2"].pop(name)
                used["l2"] -= moved
                hold("ext_ram", name, moved)
                evictions[name] = i
            place(layer.name, nbytes)
        wbytes = _weight_bytes(layer, eb)
        weight_home = "l2" if wbytes and used["l2"] + wbytes <= l2_cap else "flash"
        tile = _plan_l1_tile(layer, eb, l1_cap)

        placements.append(LayerPlacement(
            name=layer.name, weight_home=weight_home,
            input_home=_read_home(homes, evictions, layer.inputs[0], i),
            output_home=homes[layer.name], tile=tile, fused_input=fused_input,
        ))
        for name in dying.get(i, ()):  # the tensors that die at this layer
            for tier, tensors in live.items():
                if name in tensors:
                    used[tier] -= tensors.pop(name)

    return Schedule(tuple(placements), homes, peak["l2"], peak["ext_ram"],
                    evictions)


def _dma(platform: PlatformModel, src: str, dst: str, nbytes: int,
         rows: int = 1) -> tuple[float, int]:
    """Cycles to move `nbytes` from tier `src` to tier `dst`, and the copies
    billed on the external hop (0 if there is none).

    An external tier reaches L1 through L2 (IO-DMA, then cluster DMA), and the
    two hops' costs add: both cross the shared L2 port. The external hop moves `rows` equal copies, the
    bytes padded to whole rows. An operand already at `dst` costs nothing.
    """
    if nbytes <= 0 or src == dst:
        return 0.0, 0
    if src not in _EXTERNAL and dst not in _EXTERNAL:
        return transfer_cycles(platform, src, dst, nbytes, rows=1), 0
    rows = min(rows, nbytes)
    nbytes += -nbytes % rows  # pad to whole rows
    if src in _EXTERNAL:
        cycles = transfer_cycles(platform, src, "l2", nbytes, rows=rows)
        if dst != "l2":
            cycles += transfer_cycles(platform, "l2", dst, nbytes, rows=1)
    else:
        cycles = transfer_cycles(platform, "l2", dst, nbytes, rows=rows)
        if src != "l2":
            cycles += transfer_cycles(platform, src, "l2", nbytes, rows=1)
    return cycles, rows


def _mac_rates(platform: PlatformModel, engine_kind: str) -> dict[str, float]:
    """MACs per cycle on each conv kind: the accelerator's efficiency where
    the run asks for it and it supports the kind, else the worker cores'
    peak."""
    rates = dict.fromkeys(CONV_KINDS, platform.engine("worker_cores").peak_mac_per_cycle)
    if engine_kind == "conv_accelerator" and platform.has_engine("conv_accelerator"):
        acc = platform.engine("conv_accelerator")
        for kind in CONV_KINDS & acc.supported_ops:
            if kind == "depthwise_conv2d":
                rates[kind] = (acc.peak_mac_per_cycle * acc.depthwise_derate
                               * acc.utilization_dw)
            else:
                rates[kind] = acc.peak_mac_per_cycle * acc.utilization_std
    return rates


def estimate_latency(schedule: Schedule, graph: LayerGraph,
                     platform: PlatformModel, budget: BudgetConfig) -> LatencyReport:
    """Per-layer compute/transfer cycles under the placement plan."""
    eb = graph.element_bytes
    overlap = budget.dma_overlap and platform.dma_overlap
    costs = []
    shapes = {"input": graph.input_shape}
    for layer in graph.layers:
        shapes[layer.name] = layer.out_shape

    evict_bytes: dict[int, int] = {}
    for tensor, at in schedule.evictions.items():
        evict_bytes[at] = evict_bytes.get(at, 0) + graph.tensor_bytes(shapes[tensor])

    mac_rates = _mac_rates(platform, budget.engine)
    elementwise_rate = platform.engine("worker_cores").elementwise_bytes_per_cycle
    total_macs = 0
    for i, (layer, p) in enumerate(zip(graph.layers, schedule.placements)):
        if layer.op_kind in CONV_KINDS:
            macs = count_macs(layer)
            total_macs += macs
            compute = macs / mac_rates[layer.op_kind]
        elif layer.elementwise:
            compute = max(layer.elems_in(), layer.elems_out()) / elementwise_rate
        else:
            compute = 0.0

        tile = p.tile
        transfer = 0.0
        copies = [0]  # external-RAM copies of each operand fetch and writeback
        if i in evict_bytes:  # one-time L2 -> ext move that made room
            transfer += _dma(platform, "l2", "ext_ram", evict_bytes[i])[0]

        # Loop order per layer is whichever re-fetches fewer bytes:
        # input-stationary (weights re-stream once per spatial pass) or
        # weight-stationary (input re-streams once per channel pass).
        # Depthwise channels partition, so nothing re-fetches there.
        wbytes = _weight_bytes(layer, eb)
        in_refetch, w_refetch = 1, 1
        if layer.op_kind in CONV_KINDS and layer.op_kind != "depthwise_conv2d":
            in_stationary = wbytes * (tile.spatial_passes - 1)
            w_stationary = sum(
                graph.tensor_bytes(shapes[s]) for s in layer.inputs
            ) * (tile.cout_passes - 1)
            if in_stationary <= w_stationary:
                w_refetch = tile.spatial_passes
            else:
                in_refetch = tile.cout_passes

        for src in layer.inputs:
            if src == p.fused_input:  # read from the producer's L1 tile
                continue
            c, h, w = shapes[src]
            fetch_bytes = c * h * w * eb
            if layer.op_kind in CONV_KINDS:
                halo = max(_halo_rows(layer, tile.rows) * tile.spatial_passes - h, 0)
                fetch_bytes = (fetch_bytes + c * halo * w * eb) * in_refetch
            strided = tile.spatial_passes > 1 or in_refetch > 1
            cycles, n = _dma(platform, schedule.home_at(src, i), "l1", fetch_bytes,
                             c * tile.spatial_passes * in_refetch if strided else 1)
            transfer += cycles
            copies.append(n)

        if wbytes:
            if p.weight_home == "l2":
                transfer += _dma(platform, "flash", "l2", wbytes)[0]
            transfer += _dma(platform, p.weight_home, "l1", wbytes * w_refetch)[0]

        if p.fused_input is None:  # a fused layer's output stays in its tile
            cycles, n = _dma(platform, "l1", schedule.tensor_homes[layer.name],
                             graph.tensor_bytes(layer.out_shape),
                             layer.out_shape[0] * tile.spatial_passes
                             if tile.spatial_passes > 1 else 1)
            transfer += cycles
            copies.append(n)

        # No external copy, each one contiguous, or some split into rows.
        tclass = TRANSFER_CLASSES[min(max(copies), 2)]
        total = max(compute, transfer) if overlap else compute + transfer
        costs.append(LayerCost(layer.name, tclass, compute, transfer, total))

    class_cycles = {c: 0.0 for c in TRANSFER_CLASSES}
    class_transfer = {c: 0.0 for c in TRANSFER_CLASSES}
    for cost in costs:
        class_cycles[cost.transfer_class] += cost.total_cycles
        class_transfer[cost.transfer_class] += cost.transfer_cycles
    total_cycles = sum(c.total_cycles for c in costs)
    return LatencyReport(
        layers=tuple(costs),
        total_cycles=total_cycles,
        compute_cycles=sum(c.compute_cycles for c in costs),
        transfer_cycles=sum(c.transfer_cycles for c in costs),
        class_cycles=class_cycles,
        class_transfer_cycles=class_transfer,
        total_macs=total_macs,
        wall_time_s=total_cycles / platform.clock_hz,
    )


def run_model(graph: LayerGraph, platform: PlatformModel,
              budget: BudgetConfig) -> LatencyReport:
    """plan_schedule + estimate_latency in one call."""
    return estimate_latency(plan_schedule(graph, platform, budget),
                            graph, platform, budget)


@dataclass(frozen=True)
class BudgetComparison:
    budgets: tuple[BudgetConfig, ...]
    reports: tuple[LatencyReport, ...]
    monotone_nonincreasing: bool

    def speedup(self, slow: int = 0, fast: int = -1) -> float:
        return (self.reports[slow].total_cycles
                / self.reports[fast].total_cycles)


def compare_budgets(graph: LayerGraph, platform: PlatformModel,
                    budgets: list[BudgetConfig]) -> BudgetComparison:
    """Latency reports across budget points, plus a monotonicity verdict."""
    if len(budgets) < 2:
        raise ValueError("need at least two budget points")
    reports = [run_model(graph, platform, b) for b in budgets]
    ordered = sorted(range(len(budgets)),
                     key=lambda i: (budgets[i].l1_bytes, budgets[i].l2_bytes))
    monotone = all(
        reports[ordered[i]].total_cycles >= reports[ordered[i + 1]].total_cycles
        for i in range(len(ordered) - 1)
    )
    return BudgetComparison(tuple(budgets), tuple(reports), monotone)
