"""Parametric heterogeneous-MCU description: memory tiers, transfer costs,
compute engines, and active power.

Bandwidths are expressed in bytes per cycle at the compute clock. A 2D
transfer is modeled as one 1D copy per row with a fixed per-row overhead, the
knob that captures strided external-memory reads being far slower than
contiguous streams. The built-in platforms are the shipped files
`data/gap8.json` and `data/gap9.json`; their `calibrated` mapping says which
values are model defaults or calibration constants.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

DATA_DIR = Path(__file__).parent / "data"


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
        if not (0.0 < self.utilization_std <= 1.0 and 0.0 < self.utilization_dw <= 1.0):
            raise ValueError("utilizations must be in (0, 1]")


@dataclass(frozen=True)
class PlatformModel:
    name: str
    clock_hz: float
    voltage_v: float
    tiers: tuple[MemoryTier, ...]
    engines: tuple[ComputeEngine, ...]
    active_power_mw: dict  # workload class -> mW
    dma_overlap: bool = False

    def __post_init__(self):
        if self.clock_hz <= 0:
            raise ValueError(f"platform {self.name}: clock_hz must be positive")
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


def builtin_platform(name: str) -> PlatformModel:
    """Shipped device descriptions: `gap9` (with conv accelerator) or `gap8`."""
    if name not in ("gap8", "gap9"):
        raise UnknownPlatform(f"no builtin platform {name!r}")
    return load_platform(DATA_DIR / f"{name}.json")


def platform_to_json(p: PlatformModel) -> str:
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
        "dma_overlap": p.dma_overlap,
    }
    return json.dumps(doc, indent=1)


def platform_from_json(text: str) -> PlatformModel:
    doc = json.loads(text)
    return PlatformModel(
        name=doc["name"],
        clock_hz=float(doc["clock_hz"]),
        voltage_v=float(doc["voltage_v"]),
        tiers=tuple(MemoryTier(**t) for t in doc["tiers"]),
        engines=tuple(
            ComputeEngine(**{**e, "supported_ops": frozenset(e.get("supported_ops", ()))})
            for e in doc["engines"]
        ),
        active_power_mw=dict(doc["active_power_mw"]),
        dma_overlap=bool(doc.get("dma_overlap", False)),
    )


def load_platform(path) -> PlatformModel:
    with open(path, "r", encoding="ascii") as fh:
        return platform_from_json(fh.read())
