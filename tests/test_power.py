import math
from types import SimpleNamespace

import numpy as np
import pytest

from trapnode import power
from trapnode.power import (MAX_WAKES, Battery, DutyCycleConfig, PhaseEnergy,
                            daily_energy, gap9_cnn_energy, gap9_viola_energy,
                            lifetime, simulate, wake_cycle_energy)


def test_wake_cycle_counter_payload():
    # 4.85 mJ compute + 17 bytes at 1 mJ/B = 21.85 mJ
    assert wake_cycle_energy(PhaseEnergy(compute_mj=4.85), 17) == pytest.approx(21.85)


def test_wake_cycle_zero_everything():
    assert wake_cycle_energy(PhaseEnergy(compute_mj=0.0), 0) == 0.0


def test_wake_cycle_image_payload():
    # 12700-byte compressed image at 1 mJ/B: 12.7 J of radio energy
    assert wake_cycle_energy(PhaseEnergy(compute_mj=0.0), 12_700) == pytest.approx(12_700.0)


# Daily cells of the system-level comparison (GAP9 rows); tolerances per cell.
DAILY_CELLS = [
    (gap9_viola_energy, 30.0, "counters_every_wake", 66.9, 0.03),
    (gap9_cnn_energy, 30.0, "counters_every_wake", 74.4, 0.01),
    (gap9_viola_energy, 900.0, "counters_every_wake", 5.8, 0.01),
    (gap9_cnn_energy, 900.0, "counters_every_wake", 5.9, 0.04),
    (gap9_viola_energy, 30.0, "image_per_detection", 437.5, 0.01),
    (gap9_cnn_energy, 30.0, "image_per_detection", 445.0, 0.01),
    (gap9_viola_energy, 900.0, "image_per_detection", 423.3, 0.01),
    (gap9_cnn_energy, 900.0, "image_per_detection", 423.4, 0.01),
]


@pytest.mark.parametrize("pe_fn,period,policy,target,tol", DAILY_CELLS)
def test_daily_energy_cells(pe_fn, period, policy, target, tol):
    cfg = DutyCycleConfig(wake_period_s=period, payload_policy=policy)
    ledger = daily_energy(pe_fn(), cfg)
    assert ledger.daily_j == pytest.approx(target, rel=tol)


def test_ledger_phases_sum():
    ledger = daily_energy(gap9_cnn_energy(), DutyCycleConfig())
    total = (ledger.compute_j + ledger.radio_j + ledger.camera_j
             + ledger.sleep_j + ledger.overhead_j)
    assert ledger.daily_j == pytest.approx(total)


def test_lifetimes_exact_integers():
    batt = Battery()  # 1000 mAh at 3.7 V = 13320 J
    assert batt.energy_j == pytest.approx(13_320.0)
    assert lifetime(batt, 66.9).days == 199
    assert lifetime(batt, 5.8).days == 2296
    assert lifetime(batt, 5.9).days == 2257


def test_daily_monotonicity():
    pe = gap9_viola_energy()
    base = daily_energy(pe, DutyCycleConfig(wake_period_s=900)).daily_j
    faster = daily_energy(pe, DutyCycleConfig(wake_period_s=30)).daily_j
    assert faster > base
    bigger_payload = daily_energy(pe, DutyCycleConfig(
        wake_period_s=900, counter_payload_bytes=40)).daily_j
    assert bigger_payload > base
    more_sleep = daily_energy(pe, DutyCycleConfig(
        wake_period_s=900, sleep_power_uw=100.0)).daily_j
    assert more_sleep > base


def test_lifetime_antimonotone():
    batt = Battery()
    assert lifetime(batt, 10.0).days_exact > lifetime(batt, 20.0).days_exact


def test_policy_crossover_inequality():
    pe = gap9_viola_energy()
    cfg_c = DutyCycleConfig(wake_period_s=900, payload_policy="counters_every_wake")
    cfg_i = DutyCycleConfig(wake_period_s=900, payload_policy="image_per_detection")
    counters = daily_energy(pe, cfg_c)
    images = daily_energy(pe, cfg_i)
    n = cfg_c.wakes_per_day
    counter_cost = n * cfg_c.counter_payload_bytes * pe.tx_mj_per_byte
    image_cost = cfg_i.detections_per_day * cfg_i.image_payload_bytes * pe.tx_mj_per_byte
    assert (counters.daily_j < images.daily_j) == (counter_cost < image_cost)


def test_simulator_matches_closed_form_empty_trace():
    pe = gap9_viola_energy()
    cfg = DutyCycleConfig(wake_period_s=900, payload_policy="counters_every_wake")
    days = 30.0
    result = simulate(pe, cfg, Battery(), [], days)
    expected = daily_energy(pe, cfg).daily_j * days
    assert result.total_j == pytest.approx(expected, rel=1e-3)
    assert result.battery_exhausted_at_s is None


def test_simulator_matches_closed_form_constant_rate():
    pe = gap9_cnn_energy()
    cfg = DutyCycleConfig(wake_period_s=900, payload_policy="image_per_detection",
                          detections_per_day=33.0)
    days = 30.0
    step = 86_400.0 / 33.0
    trace = [i * step for i in range(1, int(33 * days) + 1)]
    result = simulate(pe, cfg, Battery(capacity_mah=10_000), trace, days)
    expected = daily_energy(pe, cfg).daily_j * days
    assert result.total_j == pytest.approx(expected, rel=1e-3)


def test_simulator_battery_exhaustion_near_closed_form():
    # 13320 J / 423.4ish J/day: battery dies near day 31
    pe = gap9_cnn_energy()
    cfg = DutyCycleConfig(wake_period_s=900, payload_policy="image_per_detection")
    step = 86_400.0 / 33.0
    trace = [i * step for i in range(1, 33 * 40 + 1)]
    result = simulate(pe, cfg, Battery(), trace, horizon_days=40.0)
    assert result.battery_exhausted_at_s is not None
    died_day = result.battery_exhausted_at_s / 86_400.0
    closed_form = 13_320.0 / daily_energy(pe, cfg).daily_j
    assert died_day == pytest.approx(closed_form, rel=0.02)
    assert 30.0 < died_day < 33.0


def test_boundary_arrival_counted_once_by_later_wake():
    pe = PhaseEnergy(compute_mj=1.0)
    cfg = DutyCycleConfig(wake_period_s=100.0, payload_policy="counters_every_wake")
    result = simulate(pe, cfg, Battery(), [200.0], horizon_days=400 / 86_400)
    tl = result.timeline
    counts = dict(zip(tl.t_s.tolist(), tl.new_detections.tolist()))
    assert counts[200.0] == 1
    assert sum(counts.values()) == 1


def test_battery_level_non_increasing():
    pe = gap9_viola_energy()
    cfg = DutyCycleConfig(wake_period_s=30)
    result = simulate(pe, cfg, Battery(), [], horizon_days=0.1)
    levels = result.timeline.battery_j_left.tolist()
    assert all(a >= b for a, b in zip(levels, levels[1:]))


def test_unsorted_trace_rejected():
    with pytest.raises(ValueError):
        simulate(gap9_viola_energy(), DutyCycleConfig(), Battery(),
                 [50.0, 10.0], 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        DutyCycleConfig(payload_policy="carrier_pigeon")
    with pytest.raises(ValueError):
        PhaseEnergy(compute_mj=-1.0)
    with pytest.raises(ValueError):
        Battery(capacity_mah=0.0)


def test_negative_horizon_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        simulate(gap9_viola_energy(), DutyCycleConfig(), Battery(), [], -5.0)


def test_negative_active_time_rejected():
    # A negative active time would allow a non-positive wake period.
    with pytest.raises(ValueError, match="active_s_per_wake"):
        DutyCycleConfig(wake_period_s=-1.0, active_s_per_wake=-2.0)


def test_wake_cap_counts_the_horizon_and_the_battery():
    pe = gap9_viola_energy()
    cfg = DutyCycleConfig(wake_period_s=30.0)
    # A billion days on a battery that lasts about two million.
    with pytest.raises(ValueError, match="cap"):
        simulate(pe, cfg, Battery(capacity_mah=1e7), [], 1e9)
    # The same horizon on the default battery dies after about 580k wakes.
    result = simulate(pe, cfg, Battery(), [], 1e9)
    assert result.battery_exhausted_at_s is not None
    assert len(result.timeline) < MAX_WAKES
    # Free wakes: only the horizon bounds the run.
    free = PhaseEnergy(compute_mj=0.0, tx_mj_per_byte=0.0)
    idle = DutyCycleConfig(wake_period_s=30.0, sleep_power_uw=0.0)
    with pytest.raises(ValueError, match="cap"):
        simulate(free, idle, Battery(), [], MAX_WAKES * 30.0 / 86_400)


def _scalar_simulate(pe, cfg, battery, arrival_trace, horizon_days):
    """The one-wake-at-a-time simulator `simulate` replaced, kept as its
    referee; the timeline is a list of (t_s, new_detections, wake_mj,
    battery_j_left) tuples."""
    if any(b > a for a, b in zip(arrival_trace[1:], arrival_trace)):
        raise ValueError("arrival trace must be sorted")

    horizon_s = horizon_days * power.SECONDS_PER_DAY
    sleep_w = cfg.sleep_power_uw * 1e-6
    budget = battery.energy_j

    compute = radio = camera = sleep = overhead = 0.0
    timeline = []
    exhausted_at = None

    spent = 0.0
    arrival_idx = 0
    prev_t = 0.0
    t = cfg.wake_period_s
    while t <= horizon_s + 1e-9:
        # Sleep from the previous event up to this wake.
        sleep_interval = (t - prev_t) - cfg.active_s_per_wake
        sleep_j = sleep_w * sleep_interval
        if spent + sleep_j > budget:
            frac = (budget - spent) / sleep_j
            sleep += sleep_w * sleep_interval * frac
            exhausted_at = prev_t + sleep_interval * frac
            spent = budget
            break
        sleep += sleep_j
        spent += sleep_j

        new_detections = 0
        while arrival_idx < len(arrival_trace) and arrival_trace[arrival_idx] <= t:
            new_detections += 1
            arrival_idx += 1

        if cfg.payload_policy == "counters_every_wake":
            payload = cfg.counter_payload_bytes
        else:
            payload = new_detections * cfg.image_payload_bytes
        wake_mj = wake_cycle_energy(pe, payload)
        wake_j = wake_mj / 1000.0
        if spent + wake_j > budget:
            exhausted_at = t
            spent = budget
            break
        compute += pe.compute_mj / 1000.0
        camera += pe.camera_mj / 1000.0
        overhead += pe.wake_overhead_mj / 1000.0
        radio += payload * pe.tx_mj_per_byte / 1000.0
        spent += wake_j
        timeline.append((t, new_detections, wake_mj, budget - spent))
        prev_t = t
        t += cfg.wake_period_s

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

    return SimpleNamespace(
        timeline=timeline,
        compute_j=compute, radio_j=radio, camera_j=camera,
        sleep_j=sleep, overhead_j=overhead,
        days_simulated=end_t / power.SECONDS_PER_DAY,
        battery_exhausted_at_s=exhausted_at,
    )


def _wake_instants(period, n):
    """The first n wake instants, summed as the simulators sum them."""
    out, t = [], period
    for _ in range(n):
        out.append(t)
        t += period
    return out


def _referee_config(rng, long_run=False):
    """One seeded (pe, cfg, battery, trace, horizon_days) case. Budgets are
    drawn around the run's closed-form energy, so batteries die asleep, on
    a wake and in the trailing sleep as well as outlive the horizon."""
    period = float(np.exp(rng.uniform(np.log(0.7), np.log(900.0))))
    if long_run:
        period = float(rng.uniform(0.7, 1.2))
    active = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 0.6 * period))
    policy = power.POLICIES[rng.integers(2)]
    pe = PhaseEnergy(compute_mj=float(rng.uniform(0.0, 10.0)),
                     camera_mj=0.0 if rng.random() < 0.5 else float(rng.uniform(0, 2)),
                     tx_mj_per_byte=float(rng.uniform(0.0, 2.0)),
                     wake_overhead_mj=0.0 if rng.random() < 0.5 else float(rng.uniform(0, 3)))
    wakes = int(rng.integers(70_000, 140_000) if long_run else rng.integers(0, 3_000))
    horizon_s = (wakes + float(rng.uniform(0.0, 1.0))) * period
    instants = _wake_instants(period, wakes)
    if rng.random() < 0.15:
        trace = []
    else:
        trace = rng.uniform(0.0, horizon_s, size=int(rng.integers(1, 300))).tolist()
        if instants:  # arrivals exactly at wake instants, some repeated
            trace += [instants[i] for i in rng.integers(0, wakes, size=20)]
        trace.sort()
    cfg = DutyCycleConfig(
        wake_period_s=period, payload_policy=policy,
        counter_payload_bytes=int(rng.integers(1, 40)),
        image_payload_bytes=int(rng.integers(100, 20_000)),
        detections_per_day=len(trace) / max(horizon_s, 1.0) * 86_400,
        sleep_power_uw=float(rng.uniform(0.0, 2_000.0)),
        active_s_per_wake=active)
    horizon_days = horizon_s / 86_400
    draw = rng.random()
    if draw < 0.15:  # die in the trailing sleep, after the last wake
        full = _scalar_simulate(pe, cfg, Battery(capacity_mah=1e12), trace,
                                horizon_days)
        last_t = full.timeline[-1][0] if full.timeline else 0.0
        tail_j = cfg.sleep_power_uw * 1e-6 * (horizon_s - last_t)
        total_j = sum(getattr(full, f) for f in FIELDS[:5])
        budget_j = total_j - float(rng.uniform(0.01, 0.99)) * tail_j
    else:
        closed_j = daily_energy(pe, cfg).daily_j * horizon_days
        budget_j = max(closed_j, 1e-3) * (float(rng.uniform(0.05, 1.0))
                                          if draw < 0.8 else 2.0)
    battery = Battery(capacity_mah=budget_j / 3.6, voltage_v=1.0)
    return pe, cfg, battery, trace, horizon_days


def _exhaustion(ref, cfg, horizon_days):
    """Where the referee's battery died: None, "sleep", "wake" or "tail"."""
    if ref.battery_exhausted_at_s is None:
        return None
    next_wake = (ref.timeline[-1][0] if ref.timeline else 0.0) + cfg.wake_period_s
    if next_wake > horizon_days * power.SECONDS_PER_DAY + 1e-9:
        return "tail"
    return "wake" if ref.battery_exhausted_at_s == next_wake else "sleep"


FIELDS = ("compute_j", "radio_j", "camera_j", "sleep_j", "overhead_j",
          "days_simulated", "battery_exhausted_at_s")


def _assert_same(result, ref):
    tl = result.timeline
    assert [c.dtype for c in (tl.t_s, tl.new_detections, tl.wake_mj,
                              tl.battery_j_left)] == [np.float64, np.int64,
                                                      np.float64, np.float64]
    rows = list(zip(tl.t_s.tolist(), tl.new_detections.tolist(),
                    tl.wake_mj.tolist(), tl.battery_j_left.tolist()))
    assert len(tl) == len(ref.timeline)
    assert rows == ref.timeline
    for f in FIELDS:
        assert type(getattr(result, f)) is type(getattr(ref, f)), f
        assert getattr(result, f) == getattr(ref, f), f


@pytest.mark.parametrize("block", [power.BLOCK_WAKES, 37])
def test_simulate_matches_scalar_referee(block, monkeypatch):
    """Block simulation equals the scalar loop field by field, with no
    tolerance, over 240 seeded configs (4 of them longer than one default
    block); 37-wake blocks move the block edges across the short runs."""
    rng = np.random.default_rng(2024)
    cases = [_referee_config(rng, long_run=i < 4) for i in range(240)]
    if block != power.BLOCK_WAKES:
        cases = cases[4:]
    monkeypatch.setattr(power, "BLOCK_WAKES", block)
    kinds = set()
    for pe, cfg, battery, trace, horizon_days in cases:
        ref = _scalar_simulate(pe, cfg, battery, trace, horizon_days)
        _assert_same(simulate(pe, cfg, battery, trace, horizon_days), ref)
        # The wake cap's bound holds: floor(bound) + 1 wakes at most.
        assert len(ref.timeline) <= power._max_wakes(
            pe, cfg, battery.energy_j, horizon_days * power.SECONDS_PER_DAY) + 1
        kinds.add((cfg.payload_policy, _exhaustion(ref, cfg, horizon_days)))
    for policy in power.POLICIES:
        for kind in (None, "sleep", "wake", "tail"):
            assert (policy, kind) in kinds
