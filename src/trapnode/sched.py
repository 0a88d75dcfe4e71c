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
it was placed in; the transfer class, the reported input home and
`Schedule.home_at` all apply that one rule. Per-layer weights prefetch
FLASH->L2 when the residual L2 budget allows, else stream from FLASH. Each
layer gets an L1 tile plan (output row bands times output-channel slices)
sized to the L1 budget.

Transfers route through the hierarchy (external memory reaches L1 via L2).
An external input fetched in a single spatial pass is a contiguous 1D
stream; one fetched in several row-band passes is a strided 2D pattern
billed one 1D copy per channel row-chunk, which is where the per-row DMA
overhead bites. Layer cost is compute + transfer, or max of the two when
DMA double-buffering is enabled on both the platform and the run config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cnngraph import CONV_KINDS, Layer, LayerGraph, count_macs, count_macs_total
from .mcu import PlatformModel, transfer_cycles

TRANSFER_CLASSES = ("l2_resident", "ext_1d", "ext_2d")
ROUTED_TIERS = ("l1", "l2", "ext_ram", "flash")


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
    transfer_class: str
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

    def fits(rows: int, m: int) -> bool:
        in_rows = min(_halo_rows(layer, rows), hin)
        cin_slice = m if layer.op_kind == "depthwise_conv2d" else cin
        in_bytes = cin_slice * in_rows * win * element_bytes
        out_bytes = m * rows * wout * element_bytes
        w_bytes = per_cout_weight * m
        return in_bytes + out_bytes + w_bytes <= l1_bytes

    for rows in range(hout, 0, -1):
        if not fits(rows, 1):
            continue
        lo, hi = 1, cout
        while lo < hi:  # largest feasible channel slice at this row count
            mid = (lo + hi + 1) // 2
            if fits(rows, mid):
                lo = mid
            else:
                hi = mid - 1
        return TilePlan(
            rows=rows, cout_slice=lo,
            spatial_passes=math.ceil(hout / rows),
            cout_passes=math.ceil(cout / lo),
        )
    raise L1PlanError(
        f"layer {layer.name}: even a 1-row, 1-channel tile exceeds "
        f"{l1_bytes} B of L1"
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

    homes: dict[str, str] = {}
    # Live tensors and their bytes, by tier; occupancy is their sum.
    live: dict[str, dict[str, int]] = {"l2": {}, "ext_ram": {}}
    peak = {"l2": 0, "ext_ram": 0}
    evictions: dict[str, int] = {}

    def used(tier: str) -> int:
        return sum(live[tier].values())

    def hold(tier: str, name: str, nbytes: int) -> None:
        live[tier][name] = nbytes
        peak[tier] = max(peak[tier], used(tier))

    def place(name: str, nbytes: int) -> None:
        homes[name] = "l2" if used("l2") + nbytes <= l2_cap else "ext_ram"
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
            while nbytes <= l2_cap and used("l2") + nbytes > l2_cap:
                victim = max(((dies[t], t) for t in live["l2"] if dies[t] > i),
                             default=None)
                if victim is None:
                    break
                _, name = victim
                hold("ext_ram", name, live["l2"].pop(name))
                evictions[name] = i
            place(layer.name, nbytes)
        wbytes = _weight_bytes(layer, eb)
        weight_home = "l2" if wbytes and used("l2") + wbytes <= l2_cap else "flash"
        tile = _plan_l1_tile(layer, eb, l1_cap)

        in_homes = [_read_home(homes, evictions, s, i) for s in layer.inputs]
        out_home = homes[layer.name]
        if "ext_ram" not in in_homes and out_home != "ext_ram":
            tclass = "l2_resident"
        elif tile.spatial_passes == 1 and tile.cout_passes == 1:
            tclass = "ext_1d"
        else:
            tclass = "ext_2d"
        placements.append(LayerPlacement(
            name=layer.name, weight_home=weight_home,
            input_home=in_homes[0], output_home=out_home,
            transfer_class=tclass, tile=tile, fused_input=fused_input,
        ))
        for tensors in live.values():
            for name in [t for t in tensors if dies[t] <= i]:
                del tensors[name]

    return Schedule(tuple(placements), homes, peak["l2"], peak["ext_ram"],
                    evictions)


def _fetch_cycles(platform: PlatformModel, home: str, nbytes: int,
                  rows: int) -> float:
    """Move one operand from its home tier into L1.

    External operands hop through L2 (IO-DMA, then cluster DMA); both hops
    cross the shared L2 port, so their costs add. Operands already chained
    through the L1 tile pipeline (home "l1") cost nothing.
    """
    if nbytes <= 0 or home == "l1":
        return 0.0
    if home in ("ext_ram", "flash"):
        return (transfer_cycles(platform, home, "l2", nbytes, rows=rows)
                + transfer_cycles(platform, "l2", "l1", nbytes, rows=1))
    return transfer_cycles(platform, home, "l1", nbytes, rows=1)


def _writeback_cycles(platform: PlatformModel, home: str, nbytes: int,
                      rows: int) -> float:
    if nbytes <= 0 or home == "l1":
        return 0.0
    if home == "ext_ram":
        return (transfer_cycles(platform, "l1", "l2", nbytes, rows=1)
                + transfer_cycles(platform, "l2", "ext_ram", nbytes, rows=rows))
    return transfer_cycles(platform, "l1", home, nbytes, rows=1)


def _layer_compute_cycles(layer: Layer, platform: PlatformModel,
                          engine_kind: str) -> float:
    macs = count_macs(layer)
    cores = platform.engine("worker_cores")
    if layer.op_kind in CONV_KINDS:
        if engine_kind == "conv_accelerator" and platform.has_engine("conv_accelerator"):
            acc = platform.engine("conv_accelerator")
            if layer.op_kind in acc.supported_ops:
                if layer.op_kind == "depthwise_conv2d":
                    eff = acc.peak_mac_per_cycle * acc.depthwise_derate * acc.utilization_dw
                else:
                    eff = acc.peak_mac_per_cycle * acc.utilization_std
                return macs / eff
        return macs / cores.peak_mac_per_cycle
    if layer.elementwise:
        nbytes = max(layer.elems_in(), layer.elems_out())
        return nbytes / cores.elementwise_bytes_per_cycle
    return 0.0


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

    for i, (layer, p) in enumerate(zip(graph.layers, schedule.placements)):
        compute = _layer_compute_cycles(layer, platform, budget.engine)

        tile = p.tile
        transfer = 0.0
        if i in evict_bytes:  # one-time L2 -> ext move that made room
            transfer += transfer_cycles(platform, "l2", "ext_ram",
                                        evict_bytes[i], rows=1)
        if p.fused_input is None:
            # Loop order per layer is whichever re-fetches fewer bytes:
            # input-stationary (weights re-stream once per spatial pass) or
            # weight-stationary (input re-streams once per channel pass).
            # Depthwise channels partition, so nothing re-fetches there.
            wbytes = _weight_bytes(layer, eb)
            if layer.op_kind == "depthwise_conv2d":
                in_refetch, w_refetch = 1, 1
            elif layer.op_kind in CONV_KINDS:
                in_stationary = wbytes * (tile.spatial_passes - 1)
                w_stationary = sum(
                    graph.tensor_bytes(shapes[s]) for s in layer.inputs
                ) * (tile.cout_passes - 1)
                if in_stationary <= w_stationary:
                    in_refetch, w_refetch = 1, tile.spatial_passes
                else:
                    in_refetch, w_refetch = tile.cout_passes, 1
            else:
                in_refetch, w_refetch = 1, 1

            for src in layer.inputs:
                if src == p.fused_input:
                    continue
                c, h, w = shapes[src]
                base = c * h * w * eb
                if layer.op_kind in CONV_KINDS:
                    halo = max(_halo_rows(layer, tile.rows) * tile.spatial_passes - h, 0)
                    fetch_bytes = (base + c * halo * w * eb) * in_refetch
                else:
                    fetch_bytes = base
                home = schedule.home_at(src, i)
                strided = tile.spatial_passes > 1 or in_refetch > 1
                rows = c * tile.spatial_passes * in_refetch if (
                    home in ("ext_ram", "flash") and strided) else 1
                rows = min(rows, fetch_bytes)
                if fetch_bytes % rows:
                    fetch_bytes += rows - fetch_bytes % rows  # pad to whole rows
                transfer += _fetch_cycles(platform, home, fetch_bytes, rows)

            if wbytes:
                total_w = wbytes * w_refetch
                if p.weight_home == "l2":
                    transfer += transfer_cycles(platform, "flash", "l2", wbytes, rows=1)
                    transfer += transfer_cycles(platform, "l2", "l1", total_w, rows=1)
                else:
                    transfer += _fetch_cycles(platform, "flash", total_w, rows=1)

            out_bytes = graph.tensor_bytes(layer.out_shape)
            out_home = schedule.tensor_homes[layer.name]
            out_rows = (layer.out_shape[0] * tile.spatial_passes
                        if out_home == "ext_ram" and tile.spatial_passes > 1 else 1)
            out_rows = min(out_rows, out_bytes)
            if out_bytes % out_rows:
                out_bytes += out_rows - out_bytes % out_rows
            transfer += _writeback_cycles(platform, out_home, out_bytes, out_rows)
        else:
            # Runs on the producer's L1 tile before writeback; any second
            # operand (residual input) still has to be brought in.
            for src in layer.inputs:
                if src == p.fused_input:
                    continue
                transfer += _fetch_cycles(
                    platform, schedule.home_at(src, i),
                    graph.tensor_bytes(shapes[src]), rows=1,
                )

        total = max(compute, transfer) if overlap else compute + transfer
        costs.append(LayerCost(layer.name, p.transfer_class, compute, transfer, total))

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
        total_macs=count_macs_total(graph),
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
