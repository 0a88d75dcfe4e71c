"""Memory placement and latency estimation for layer-by-layer inference.

A graph's fixed layer facts are derived once per graph object, in one
`LayerTable`: the lifetime table (the layer after which each tensor dies: its
last consumer, or its producer if nothing consumes it; and the tensors dying
at each layer), and each layer's fused operand, whether its output is chained
in L1, its byte and MAC counts. Each L1 cap's tile plans and the bytes each
layer moves under them are derived once per table and cap. Per call,
`plan_schedule` runs only the occupancy walk and `estimate_latency` only the
billing, which depend on the budgets and the platform. A bounded number of
tables and caps is kept; a table holds its graph, so the graph's id is not
reused while it is cached. The result rows (`TilePlan`, `LayerPlacement`,
`LayerCost`) are named tuples: immutable and cheap to build.

Placement is greedy in topological order. Activations live in L2 while the
occupancy of the live tensors fits the budget. To make room for an output,
the live L2 tensor whose last use lies farthest ahead moves to external RAM
(Belady's rule, ties to the larger name); an output that still does not fit
spills there. An output whose only consumer is the next, elementwise, layer
stays in L1. A layer reads a tensor from external RAM once it was evicted at
an earlier layer, else from the tier it was placed in; the latency estimate,
the reported input home and `Schedule.home_at` all apply that one rule.
Per-layer weights prefetch FLASH->L2 when the residual L2 budget allows, else
stream from FLASH. The occupancy of each tier is a running sum, and a tensor
leaves it after the layer at which it dies.

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
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

from .cnngraph import CONV_KINDS, Layer, LayerGraph, count_macs, count_params_total
from .mcu import PlatformModel, transfer_cycles

TRANSFER_CLASSES = ("l2_resident", "ext_1d", "ext_2d")
ROUTED_TIERS = ("l1", "l2", "ext_ram", "flash")
_EXTERNAL = ("ext_ram", "flash")  # tiers reached through L2
TABLE_CACHE_SIZE = 4  # graphs whose layer tables are kept
CAPS_PER_TABLE = 8    # L1 caps whose tile plans each table keeps


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


class TilePlan(NamedTuple):
    rows: int          # output rows per pass
    cout_slice: int    # output channels per pass
    spatial_passes: int
    cout_passes: int


class LayerPlacement(NamedTuple):
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
    l1_bytes: int    # the L1 cap the tile plans fill

    def placement(self, name: str) -> LayerPlacement:
        for p in self.placements:
            if p.name == name:
                return p
        raise KeyError(name)

    def home_at(self, tensor: str, layer_index: int) -> str:
        """Tier a consumer at `layer_index` reads the tensor from."""
        return _read_home(self.tensor_homes, self.evictions, tensor, layer_index)


class LayerCost(NamedTuple):
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


class _LayerRow(NamedTuple):
    """One layer's facts that no budget or platform changes."""
    layer: Layer
    fused: str | None     # operand tapped from the previous layer's L1 tile
    chained: bool         # output kept in L1 for its only consumer, the next layer
    conv: bool
    out_bytes: int
    weight_bytes: int
    macs: int             # conv layers only
    elems: int            # elementwise layers only: the larger of in and out
    in_bytes: int         # summed input bytes, for the loop order
    dying: tuple[str, ...]  # tensors whose last use is this layer


class _LayerBill(NamedTuple):
    """The bytes a layer moves under its tile plan, whichever tiers hold them."""
    fetches: tuple[tuple[str, int, int], ...]  # (operand, bytes, row copies)
    weight_l1_bytes: int  # weight bytes streamed into L1 over the loop
    writeback_rows: int


class _CapPlan(NamedTuple):
    tiles: tuple[TilePlan, ...]
    bills: tuple[_LayerBill, ...]


def _bill(row: _LayerRow, tile: TilePlan, shapes: dict, eb: int) -> _LayerBill:
    layer = row.layer
    # Loop order per layer is whichever re-fetches fewer bytes:
    # input-stationary (weights re-stream once per spatial pass) or
    # weight-stationary (input re-streams once per channel pass).
    # Depthwise channels partition, so nothing re-fetches there.
    in_refetch, w_refetch = 1, 1
    if row.conv and layer.op_kind != "depthwise_conv2d":
        in_stationary = row.weight_bytes * (tile.spatial_passes - 1)
        w_stationary = row.in_bytes * (tile.cout_passes - 1)
        if in_stationary <= w_stationary:
            w_refetch = tile.spatial_passes
        else:
            in_refetch = tile.cout_passes

    fetches = []
    for src in layer.inputs:
        if src == row.fused:  # read from the producer's L1 tile
            continue
        c, h, w = shapes[src]
        fetch_bytes = c * h * w * eb
        if row.conv:
            halo = max(_halo_rows(layer, tile.rows) * tile.spatial_passes - h, 0)
            fetch_bytes = (fetch_bytes + c * halo * w * eb) * in_refetch
        strided = tile.spatial_passes > 1 or in_refetch > 1
        fetches.append((src, fetch_bytes,
                        c * tile.spatial_passes * in_refetch if strided else 1))
    writeback_rows = (layer.out_shape[0] * tile.spatial_passes
                      if tile.spatial_passes > 1 else 1)
    return _LayerBill(tuple(fetches), row.weight_bytes * w_refetch, writeback_rows)


class LayerTable:
    """The fixed facts of one graph's layers, derived once per graph object,
    and its tile plans and byte bills per L1 cap (`at_cap`)."""

    def __init__(self, graph: LayerGraph):
        self.graph = graph  # held, so its id is not reused while cached
        eb = graph.element_bytes
        layers = graph.layers
        shapes = {"input": graph.input_shape}
        uses: dict[str, list[int]] = {"input": []}
        dies: dict[str, int] = {"input": -1}
        for i, layer in enumerate(layers):
            for src in layer.inputs:
                uses[src].append(i)
                dies[src] = i
            uses[layer.name] = []
            dies[layer.name] = i
            shapes[layer.name] = layer.out_shape
        dying: dict[int, list[str]] = {}
        for name, at in dies.items():
            dying.setdefault(at, []).append(name)

        rows = []
        for i, layer in enumerate(layers):
            # Operands produced by the immediately preceding layer are tapped
            # in L1 before writeback, so elementwise consumers fetch them for
            # free.
            prev = layers[i - 1].name if i else None
            rows.append(_LayerRow(
                layer=layer,
                fused=prev if layer.elementwise and prev in layer.inputs else None,
                chained=uses[layer.name] == [i + 1] and layers[i + 1].elementwise,
                conv=layer.op_kind in CONV_KINDS,
                out_bytes=graph.tensor_bytes(layer.out_shape),
                weight_bytes=_weight_bytes(layer, eb),
                macs=count_macs(layer),
                elems=(max(layer.elems_in(), layer.elems_out())
                       if layer.elementwise else 0),
                in_bytes=sum(graph.tensor_bytes(shapes[s]) for s in layer.inputs),
                dying=tuple(dying.get(i, ())),
            ))
        self.rows = tuple(rows)
        self.dies = dies
        self.shapes = shapes
        self.nbytes = {name: graph.tensor_bytes(shape) for name, shape in shapes.items()}
        self.macs_total = sum(row.macs for row in rows)
        self.params_total = count_params_total(graph)
        self._caps: OrderedDict[int, _CapPlan] = OrderedDict()

    def at_cap(self, l1_cap: int) -> _CapPlan:
        """Each layer's tile plan and byte bill at `l1_cap` bytes of L1. An
        `L1PlanError` is raised again on every call; nothing is kept of it."""
        plan = self._caps.get(l1_cap)
        if plan is None:
            eb = self.graph.element_bytes
            tiles = tuple(_plan_l1_tile(row.layer, eb, l1_cap) for row in self.rows)
            plan = _CapPlan(tiles, tuple(_bill(row, tile, self.shapes, eb)
                                         for row, tile in zip(self.rows, tiles)))
            if len(self._caps) >= CAPS_PER_TABLE:
                self._caps.popitem(last=False)
            self._caps[l1_cap] = plan
        else:
            self._caps.move_to_end(l1_cap)
        return plan


_TABLES: OrderedDict[int, LayerTable] = OrderedDict()


def layer_table(graph: LayerGraph) -> LayerTable:
    """The graph's `LayerTable`, kept by object identity for the
    `TABLE_CACHE_SIZE` graphs used last. A `LayerGraph` and its layers are
    frozen, so the table never goes stale."""
    key = id(graph)
    table = _TABLES.get(key)
    if table is None:
        table = LayerTable(graph)
        if len(_TABLES) >= TABLE_CACHE_SIZE:
            _TABLES.popitem(last=False)
        _TABLES[key] = table
    else:
        _TABLES.move_to_end(key)
    return table


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
    l1_cap = min(budget.l1_bytes, platform.tier("l1").capacity)
    l2_cap = min(budget.l2_bytes, platform.tier("l2").capacity)
    table = layer_table(graph)
    tiles = table.at_cap(l1_cap).tiles
    dies = table.dies

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

    place("input", table.nbytes["input"])
    placements = []
    for i, (row, tile) in enumerate(zip(table.rows, tiles)):
        name = row.layer.name
        if row.chained:
            # Chained through the L1 tile pipeline into its only consumer,
            # the next layer; never written to L2 or external memory.
            homes[name] = "l1"
        else:
            nbytes = row.out_bytes
            # Belady's rule: until the output fits, move the live L2 tensor
            # whose last use lies farthest ahead out to external RAM.
            while nbytes <= l2_cap and used["l2"] + nbytes > l2_cap:
                victim = max(((dies[t], t) for t in live["l2"] if dies[t] > i),
                             default=None)
                if victim is None:
                    break
                _, moved_name = victim
                moved = live["l2"].pop(moved_name)
                used["l2"] -= moved
                hold("ext_ram", moved_name, moved)
                evictions[moved_name] = i
            place(name, nbytes)
        wbytes = row.weight_bytes
        weight_home = "l2" if wbytes and used["l2"] + wbytes <= l2_cap else "flash"
        placements.append(LayerPlacement(
            name, weight_home, _read_home(homes, evictions, row.layer.inputs[0], i),
            homes[name], tile, row.fused,
        ))
        for dead in row.dying:  # the tensors that die at this layer
            for tier, tensors in live.items():
                if dead in tensors:
                    used[tier] -= tensors.pop(dead)

    return Schedule(tuple(placements), homes, peak["l2"], peak["ext_ram"],
                    evictions, l1_cap)


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
    table = layer_table(graph)
    bills = table.at_cap(schedule.l1_bytes).bills
    overlap = budget.dma_overlap and platform.dma_overlap
    homes, evictions = schedule.tensor_homes, schedule.evictions

    evict_bytes: dict[int, int] = {}
    for tensor, at in evictions.items():
        evict_bytes[at] = evict_bytes.get(at, 0) + table.nbytes[tensor]

    mac_rates = _mac_rates(platform, budget.engine)
    elementwise_rate = platform.engine("worker_cores").elementwise_bytes_per_cycle
    costs = []
    for i, (row, bill, p) in enumerate(zip(table.rows, bills, schedule.placements)):
        layer = row.layer
        if row.conv:
            compute = row.macs / mac_rates[layer.op_kind]
        elif layer.elementwise:
            compute = row.elems / elementwise_rate
        else:
            compute = 0.0

        transfer = 0.0
        copies = 0  # most external-RAM copies of one operand fetch or writeback
        if i in evict_bytes:  # one-time L2 -> ext move that made room
            transfer += _dma(platform, "l2", "ext_ram", evict_bytes[i])[0]

        for src, fetch_bytes, rows in bill.fetches:
            cycles, n = _dma(platform, _read_home(homes, evictions, src, i), "l1",
                             fetch_bytes, rows)
            transfer += cycles
            copies = max(copies, n)

        if row.weight_bytes:
            if p.weight_home == "l2":
                transfer += _dma(platform, "flash", "l2", row.weight_bytes)[0]
            transfer += _dma(platform, p.weight_home, "l1", bill.weight_l1_bytes)[0]

        if row.fused is None:  # a fused layer's output stays in its tile
            cycles, n = _dma(platform, "l1", homes[layer.name], row.out_bytes,
                             bill.writeback_rows)
            transfer += cycles
            copies = max(copies, n)

        # No external copy, each one contiguous, or some split into rows.
        tclass = TRANSFER_CLASSES[min(copies, 2)]
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
        total_macs=table.macs_total,
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
