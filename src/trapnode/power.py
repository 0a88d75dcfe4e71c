"""Duty-cycle energy model: per-wake energy, daily totals, battery lifetime,
and a discrete-event wake/sleep simulator.

The node sleeps, wakes on a fixed period, captures and processes an image,
transmits over the radio, and goes back to sleep. Two transmission policies
exist: a small pest-count payload every wake, or a compressed image per new
detection. Radio cost is energy per byte; camera cost is a field (default 0,
it is negligible next to the other terms); sleep power and the CNN
weight-load surcharge are calibration constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SECONDS_PER_DAY = 86_400.0

POLICIES = ("counters_every_wake", "image_per_detection")


@dataclass(frozen=True)
class PhaseEnergy:
    """Energy per wake phase, in millijoules (radio per byte)."""

    compute_mj: float
    camera_mj: float = 0.0
    tx_mj_per_byte: float = 1.0
    wake_overhead_mj: float = 0.0  # e.g. CNN weight-load surcharge

    def __post_init__(self):
        for f in ("compute_mj", "camera_mj", "tx_mj_per_byte", "wake_overhead_mj"):
            if getattr(self, f) < 0:
                raise ValueError(f"{f} must be non-negative")


@dataclass(frozen=True)
class DutyCycleConfig:
    wake_period_s: float = 30.0
    payload_policy: str = "counters_every_wake"
    counter_payload_bytes: int = 17   # 4-byte pest count + 13 bytes protocol
    image_payload_bytes: int = 12_700
    detections_per_day: float = 33.0
    sleep_power_uw: float = 43.0
    active_s_per_wake: float = 0.0

    def __post_init__(self):
        if self.payload_policy not in POLICIES:
            raise ValueError(f"unknown payload policy {self.payload_policy!r}")
        if self.active_s_per_wake < 0:
            raise ValueError("active_s_per_wake must be non-negative")
        if self.wake_period_s <= self.active_s_per_wake:
            raise ValueError("wake period must exceed the active duration")
        if self.counter_payload_bytes <= 0 or self.image_payload_bytes <= 0:
            raise ValueError("payload sizes must be positive")
        for f in ("detections_per_day", "sleep_power_uw"):
            if getattr(self, f) < 0:
                raise ValueError(f"{f} must be non-negative")

    @property
    def wakes_per_day(self) -> float:
        return SECONDS_PER_DAY / self.wake_period_s


@dataclass(frozen=True)
class Battery:
    capacity_mah: float = 1000.0
    voltage_v: float = 3.7
    usable_fraction: float = 1.0

    def __post_init__(self):
        if self.capacity_mah <= 0 or self.voltage_v <= 0:
            raise ValueError("battery parameters must be positive")
        if not 0.0 < self.usable_fraction <= 1.0:
            raise ValueError("usable_fraction must be in (0, 1]")

    @property
    def energy_j(self) -> float:
        return self.capacity_mah / 1000.0 * self.voltage_v * 3600.0 * self.usable_fraction


@dataclass(frozen=True)
class EnergyLedger:
    """Daily energy split by phase, in joules."""

    compute_j: float
    radio_j: float
    camera_j: float
    sleep_j: float
    overhead_j: float

    @property
    def daily_j(self) -> float:
        return (self.compute_j + self.radio_j + self.camera_j
                + self.sleep_j + self.overhead_j)


def wake_cycle_energy(pe: PhaseEnergy, payload_bytes: float) -> float:
    """Energy of one active cycle in mJ: camera + compute + overhead + radio."""
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be non-negative")
    return (pe.camera_mj + pe.compute_mj + pe.wake_overhead_mj
            + payload_bytes * pe.tx_mj_per_byte)


def daily_energy(pe: PhaseEnergy, cfg: DutyCycleConfig) -> EnergyLedger:
    """Closed-form daily ledger for the configured wake policy."""
    n = cfg.wakes_per_day
    if cfg.payload_policy == "counters_every_wake":
        radio_mj = n * cfg.counter_payload_bytes * pe.tx_mj_per_byte
    else:
        radio_mj = cfg.detections_per_day * cfg.image_payload_bytes * pe.tx_mj_per_byte
    sleep_s = SECONDS_PER_DAY - n * cfg.active_s_per_wake
    return EnergyLedger(
        compute_j=n * pe.compute_mj / 1000.0,
        radio_j=radio_mj / 1000.0,
        camera_j=n * pe.camera_mj / 1000.0,
        sleep_j=cfg.sleep_power_uw * 1e-6 * sleep_s,
        overhead_j=n * pe.wake_overhead_mj / 1000.0,
    )


@dataclass(frozen=True)
class LifetimeEstimate:
    days: int
    days_exact: float


def lifetime(battery: Battery, daily_j: float) -> LifetimeEstimate:
    """Whole days of operation on one charge (exact value also reported)."""
    if daily_j <= 0:
        raise ValueError("daily_j must be positive")
    exact = battery.energy_j / daily_j
    return LifetimeEstimate(days=math.floor(exact), days_exact=exact)


# Wakes simulated per numpy block, and written per report block.
BLOCK_WAKES = 65_536

# The most wakes one simulation may take: about 9.5 years at one wake every
# 30 s. The timeline holds 32 bytes and the report about 30 bytes per wake.
MAX_WAKES = 10_000_000


@dataclass(frozen=True, eq=False)  # arrays do not compare to one bool
class Timeline:
    """One row per completed wake, held as four columns."""

    t_s: np.ndarray             # float64: the wake instant
    new_detections: np.ndarray  # int64: arrivals since the previous wake
    wake_mj: np.ndarray         # float64: the wake's active-cycle energy
    battery_j_left: np.ndarray  # float64: charge left after the wake

    def __len__(self) -> int:
        return len(self.t_s)


@dataclass(frozen=True)
class SimulationResult:
    timeline: Timeline
    compute_j: float
    radio_j: float
    camera_j: float
    sleep_j: float
    overhead_j: float
    days_simulated: float
    battery_exhausted_at_s: float | None

    @property
    def total_j(self) -> float:
        return (self.compute_j + self.radio_j + self.camera_j
                + self.sleep_j + self.overhead_j)


def _running(carry: float, steps: np.ndarray) -> np.ndarray:
    """carry, carry + steps[0], (carry + steps[0]) + steps[1], ...: the same
    additions in the same order as a scalar `carry += step` loop, so every
    partial sum has the loop's bits."""
    return np.add.accumulate(np.concatenate(([carry], steps)))


def _total(carry: float, steps: np.ndarray) -> float:
    return float(_running(carry, steps)[-1])


def _max_wakes(pe: PhaseEnergy, cfg: DutyCycleConfig, budget: float,
               horizon_s: float) -> float:
    """A bound b on a run's wake count, which is at most floor(b) + 1: the
    periods in the horizon, or, if fewer, the periods the battery can pay
    for at the least one period can cost (its sleep and cheapest wake)."""
    wakes = (horizon_s + 1e-9) / cfg.wake_period_s
    least_payload = (cfg.counter_payload_bytes
                     if cfg.payload_policy == "counters_every_wake" else 0)
    period_j = (cfg.sleep_power_uw * 1e-6
                * (cfg.wake_period_s - cfg.active_s_per_wake)
                + wake_cycle_energy(pe, least_payload) / 1000.0)
    if period_j > 0:
        wakes = min(wakes, budget / period_j)
    return wakes


def simulate(pe: PhaseEnergy, cfg: DutyCycleConfig, battery: Battery,
             arrival_trace: list[float], horizon_days: float) -> SimulationResult:
    """Discrete-event walk of the sleep -> capture -> detect -> transmit loop.

    Arrivals are moth timestamps in seconds; the trap is sticky, so each wake
    reports the arrivals since the previous wake (an arrival exactly at a
    wake instant belongs to that wake). The run stops at battery exhaustion
    or at the horizon.

    Wakes are simulated `BLOCK_WAKES` at a time. Every running quantity (the
    wake instant, the energy spent, each phase total) is a sequential float
    sum, taken with `np.add.accumulate` in the order a one-wake-at-a-time
    loop adds it, so the results are that loop's to the bit. A run whose
    wake count could exceed `MAX_WAKES` is refused before it starts.
    """
    arrivals = np.asarray(arrival_trace, dtype=np.float64)
    if not np.all(arrivals[1:] >= arrivals[:-1]):
        raise ValueError("arrival trace must be sorted")
    if not horizon_days >= 0:
        raise ValueError(f"horizon must be a non-negative number of days, "
                         f"got {horizon_days}")

    horizon_s = horizon_days * SECONDS_PER_DAY
    sleep_w = cfg.sleep_power_uw * 1e-6
    budget = battery.energy_j
    period = cfg.wake_period_s
    active = cfg.active_s_per_wake
    wakes = _max_wakes(pe, cfg, budget, horizon_s)
    if not wakes < MAX_WAKES:  # floor(wakes) + 1 > MAX_WAKES, or NaN
        raise ValueError(f"the run could take up to {wakes:.4g} wakes, over "
                         f"the cap of {MAX_WAKES:,} wakes per simulation")
    block = int(min(BLOCK_WAKES, wakes + 2))
    limit = horizon_s + 1e-9
    # Each block's wakes are written straight into columns sized by the
    # bound, so the timeline is held once.
    capacity = int(wakes) + 1
    columns = (np.empty(capacity), np.empty(capacity, np.int64),
               np.empty(capacity), np.empty(capacity))
    count = 0  # wakes completed so far

    compute = radio = camera = sleep = overhead = 0.0
    exhausted_at = None

    spent = 0.0
    seen = 0      # arrivals reported so far
    prev_t = 0.0  # the last completed wake, or the start
    while True:
        ts = _running(prev_t, np.full(block, period))[1:]
        ts = ts[:np.searchsorted(ts, limit, "right")]
        n = len(ts)
        sleep_j = sleep_w * (np.diff(ts, prepend=prev_t) - active)
        counts = np.searchsorted(arrivals, ts, "right")
        new_detections = np.diff(counts, prepend=seen)
        # Each distinct payload is priced once, by the scalar formulas on
        # its exact byte count, and the prices are gathered per wake.
        if cfg.payload_policy == "counters_every_wake":
            payloads = [cfg.counter_payload_bytes]
            inverse = np.zeros(n, np.intp)
        else:
            distinct, inverse = np.unique(new_detections, return_inverse=True)
            payloads = [d * cfg.image_payload_bytes for d in distinct.tolist()]
        wake_mj = np.array([wake_cycle_energy(pe, b) for b in payloads])[inverse]
        radio_j = np.array([b * pe.tx_mj_per_byte / 1000.0
                            for b in payloads])[inverse]
        steps = np.empty(2 * n)
        steps[0::2] = sleep_j
        steps[1::2] = wake_mj / 1000.0
        spent_after = _running(spent, steps)[1:]
        # Even index: died asleep before wake k // 2; odd: died on that wake.
        over = np.flatnonzero(spent_after > budget)
        k = int(over[0]) if len(over) else 2 * n
        done = k // 2  # wakes completed in this block
        sleep = _total(sleep, sleep_j[:done + k % 2])
        compute = _total(compute, np.full(done, pe.compute_mj / 1000.0))
        camera = _total(camera, np.full(done, pe.camera_mj / 1000.0))
        overhead = _total(overhead, np.full(done, pe.wake_overhead_mj / 1000.0))
        radio = _total(radio, radio_j[:done])
        for column, values in zip(columns, (ts[:done], new_detections[:done],
                                            wake_mj[:done],
                                            budget - spent_after[1:2 * done:2])):
            column[count:count + done] = values
        count += done
        if done:
            spent = float(spent_after[2 * done - 1])
            seen = int(counts[done - 1])
            prev_t = float(ts[done - 1])
        if k < 2 * n:
            if k % 2 == 0:
                sleep_interval = float((ts[done] - prev_t) - active)
                frac = (budget - spent) / float(sleep_j[done])
                sleep += sleep_w * sleep_interval * frac
                exhausted_at = prev_t + sleep_interval * frac
            else:
                exhausted_at = float(ts[done])
            break
        if n < block:  # the horizon ends in this block
            break

    end_t = exhausted_at if exhausted_at is not None else min(horizon_s, prev_t)
    if exhausted_at is None and horizon_s > prev_t:
        # trailing sleep after the last wake of the horizon
        tail = (horizon_s - prev_t)
        tail_j = sleep_w * tail
        if spent + tail_j > budget:
            frac = (budget - spent) / tail_j
            sleep += tail_j * frac
            exhausted_at = prev_t + tail * frac
            end_t = exhausted_at
        else:
            sleep += tail_j
            end_t = horizon_s

    return SimulationResult(
        timeline=Timeline(*(column[:count] for column in columns)),
        compute_j=compute, radio_j=radio, camera_j=camera,
        sleep_j=sleep, overhead_j=overhead,
        days_simulated=end_t / SECONDS_PER_DAY,
        battery_exhausted_at_s=exhausted_at,
    )


# Paper-anchored wake-cycle constants for the two detectors on the shipped
# device descriptions. The CNN's 2.7 mJ weight-load surcharge and the 43 uW
# sleep power are back-solved calibration values.
def gap9_viola_energy() -> PhaseEnergy:
    return PhaseEnergy(compute_mj=4.61)


def gap9_cnn_energy() -> PhaseEnergy:
    return PhaseEnergy(compute_mj=4.85, wake_overhead_mj=2.7)
