"""Parametric heterogeneous-MCU description: memory tiers, transfer costs,
compute engines, and power states.

Bandwidths are expressed in bytes per cycle at the compute clock. A 2D
transfer is modeled as one 1D copy per row with a fixed per-row overhead, the
knob that captures strided external-memory reads being far slower than
contiguous streams. Calibration-derived values in the built-in platforms are
flagged in the `calibrated` mapping of the shipped files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict


class UnknownTier(KeyError):
    pass


class UnknownPlatform(KeyError):
    pass


@dataclass(frozen=True)
class MemoryTier:
    name: str
    capacity: int
    read_bandwidth: float   # bytes/cycle
    write_bandwidth: float  # bytes/cycle
    transfer_2d_row_overhead: float = 0.0  # cycles per 1D row copy

    def __post_init__(self):
        if self.capacity <= 0:
            raise ValueError(f"tier {self.name}: capacity must be positive")
        if self.read_bandwidth <= 0 or self.write_bandwidth <= 0:
            raise ValueError(f"tier {self.name}: bandwidths must be positive")


@dataclass(frozen=True)
class ComputeEngine:
    name: str
    kind: str  # "worker_cores" | "conv_accelerator"
    peak_mac_per_cycle: float
    depthwise_derate: float = 1.0
    supported_ops: frozenset[str] = frozenset()
    num_workers: int = 0
    utilization_std: float = 1.0   # calibrated: fraction of peak on std/pointwise conv
    utilization_dw: float = 1.0    # calibrated: fraction of derated peak on depthwise
    elementwise_bytes_per_cycle: float = 4.0  # worker-core throughput on elementwise ops

    def __post_init__(self):
        if self.kind not in ("worker_cores", "conv_accelerator"):
            raise ValueError(f"unknown engine kind {self.kind!r}")
        if self.peak_mac_per_cycle <= 0:
            raise ValueError("peak_mac_per_cycle must be positive")
        if not 0.0 < self.depthwise_derate <= 1.0:
            raise ValueError("depthwise_derate must be in (0, 1]")


@dataclass(frozen=True)
class PlatformModel:
    name: str
    clock_hz: float
    voltage_v: float
    tiers: tuple[MemoryTier, ...]
    engines: tuple[ComputeEngine, ...]
    active_power_mw: dict  # workload class -> mW
    sleep_power_uw: float
    dma_overlap: bool = False

    def __post_init__(self):
        names = [t.name for t in self.tiers]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate tier names in {names}")

    def tier(self, name: str) -> MemoryTier:
        for t in self.tiers:
            if t.name == name:
                return t
        raise UnknownTier(f"platform {self.name} has no tier {name!r}")

    def engine(self, kind: str) -> ComputeEngine:
        for e in self.engines:
            if e.kind == kind:
                return e
        raise KeyError(f"platform {self.name} has no {kind} engine")

    def has_engine(self, kind: str) -> bool:
        return any(e.kind == kind for e in self.engines)


def transfer_cycles(platform: PlatformModel, tier_from: str, tier_to: str,
                    nbytes: int, rows: int = 1) -> float:
    """Cycles to move `nbytes` split into `rows` equal 1D copies.

    rows * (row_bytes / bandwidth + row_overhead); the effective bandwidth is
    the bottleneck of the source read path and destination write path, and
    the per-row overhead is the source tier's DMA programming cost.
    """
    if nbytes <= 0:
        raise ValueError("nbytes must be positive")
    if rows < 1:
        raise ValueError("rows must be >= 1")
    if nbytes % rows != 0:
        raise ValueError(f"{nbytes} bytes not divisible into {rows} rows")
    src = platform.tier(tier_from)
    dst = platform.tier(tier_to)
    bandwidth = min(src.read_bandwidth, dst.write_bandwidth)
    row_bytes = nbytes / rows
    return rows * (row_bytes / bandwidth + src.transfer_2d_row_overhead)


# Paper-calibrated GAP9 description. The L1 bandwidth is a model default (the
# device spec gives only the L1:L2 ratio); the L2 value keeps the 10x ratio
# and external paths stream 1 byte per cycle. Utilizations, row overheads,
# and sleep power are calibration constants frozen against the measured
# endpoints (35.3 Mcycle CNN inference; 5.8 J/day low-energy scenario).
GAP9_CALIBRATED = {
    "sleep_power_uw": "back-solved from the 5.8 J/day low-energy total",
    "utilization_std": "frozen against the 35.3 Mcycle / 147 ms inference point",
    "utilization_dw": "frozen against the 35.3 Mcycle / 147 ms inference point",
    "worker_peak_mac_per_cycle": "aggregate 8-bit dot-product throughput, calibrated",
    "ext_row_overhead": "strided external reads, calibrated",
}


def builtin_platform(name: str) -> PlatformModel:
    """Shipped device descriptions: `gap9` (with conv accelerator) or `gap8`."""
    if name == "gap9":
        return PlatformModel(
            name="gap9",
            clock_hz=240e6,
            voltage_v=0.65,
            tiers=(
                MemoryTier("l1", 128_000, 8.0, 8.0, 2.0),
                MemoryTier("l2", 1_500_000, 0.8, 0.8, 8.0),
                MemoryTier("ext_ram", 32_000_000, 1.0, 1.0, 24.0),
                MemoryTier("flash", 64_000_000, 1.0, 1.0, 24.0),
            ),
            engines=(
                ComputeEngine(
                    name="cluster_cores", kind="worker_cores",
                    peak_mac_per_cycle=12.0, num_workers=8,
                    supported_ops=frozenset({
                        "conv2d", "depthwise_conv2d", "pointwise_conv2d",
                        "pool", "hsigmoid", "hswish", "relu", "add",
                        "resize", "ssd_head", "reshape",
                    }),
                    elementwise_bytes_per_cycle=4.0,
                ),
                ComputeEngine(
                    name="ne16", kind="conv_accelerator",
                    peak_mac_per_cycle=150.0, depthwise_derate=1.0 / 16.0,
                    supported_ops=frozenset({
                        "conv2d", "depthwise_conv2d", "pointwise_conv2d",
                    }),
                    utilization_std=0.42, utilization_dw=0.55,
                ),
            ),
            active_power_mw={"viola_jones": 20.5, "cnn": 33.0},
            sleep_power_uw=43.0,
            dma_overlap=True,
        )
    if name == "gap8":
        return PlatformModel(
            name="gap8",
            clock_hz=175e6,
            voltage_v=1.2,
            tiers=(
                MemoryTier("l1", 64_000, 8.0, 8.0, 2.0),
                MemoryTier("l2", 512_000, 0.8, 0.8, 8.0),
                MemoryTier("ext_ram", 32_000_000, 1.0, 1.0, 110.0),
                MemoryTier("flash", 64_000_000, 1.0, 1.0, 110.0),
            ),
            engines=(
                ComputeEngine(
                    name="cluster_cores", kind="worker_cores",
                    peak_mac_per_cycle=2.0, num_workers=8,
                    supported_ops=frozenset({
                        "conv2d", "depthwise_conv2d", "pointwise_conv2d",
                        "pool", "hsigmoid", "hswish", "relu", "add",
                        "resize", "ssd_head", "reshape",
                    }),
                    elementwise_bytes_per_cycle=4.0,
                ),
            ),
            active_power_mw={"viola_jones": 79.0, "cnn": 79.0},
            sleep_power_uw=43.0,
            dma_overlap=False,
        )
    raise UnknownPlatform(f"no builtin platform {name!r}")


def platform_to_json(p: PlatformModel, calibrated: dict | None = None) -> str:
    doc = {
        "name": p.name,
        "clock_hz": p.clock_hz,
        "voltage_v": p.voltage_v,
        "tiers": [asdict(t) for t in p.tiers],
        "engines": [
            {**asdict(e), "supported_ops": sorted(e.supported_ops)}
            for e in p.engines
        ],
        "active_power_mw": p.active_power_mw,
        "sleep_power_uw": p.sleep_power_uw,
        "dma_overlap": p.dma_overlap,
    }
    if calibrated:
        doc["calibrated"] = calibrated
    return json.dumps(doc, indent=1)


def platform_from_json(text: str) -> PlatformModel:
    doc = json.loads(text)
    return PlatformModel(
        name=doc["name"],
        clock_hz=float(doc["clock_hz"]),
        voltage_v=float(doc["voltage_v"]),
        tiers=tuple(MemoryTier(**t) for t in doc["tiers"]),
        engines=tuple(
            ComputeEngine(**{**e, "supported_ops": frozenset(e["supported_ops"])})
            for e in doc["engines"]
        ),
        active_power_mw=dict(doc["active_power_mw"]),
        sleep_power_uw=float(doc["sleep_power_uw"]),
        dma_overlap=bool(doc.get("dma_overlap", False)),
    )


def load_platform(path) -> PlatformModel:
    with open(path, "r", encoding="ascii") as fh:
        return platform_from_json(fh.read())
