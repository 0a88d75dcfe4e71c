import pytest
from hypothesis import given, settings, strategies as st

from trapnode.mcu import (ComputeEngine, MemoryTier, PlatformModel, UnknownTier,
                          UnknownPlatform, builtin_platform, platform_from_json,
                          platform_to_json, transfer_cycles)


def flat_platform(overhead=0.0):
    return PlatformModel(
        name="test", clock_hz=1e6, voltage_v=1.0,
        tiers=(
            MemoryTier("l1", 1000, 8.0, 8.0, 0.0),
            MemoryTier("l2", 10_000, 2.0, 2.0, 0.0),
            MemoryTier("ext_ram", 100_000, 1.0, 1.0, overhead),
        ),
        engines=(ComputeEngine("cores", "worker_cores", 2.0, num_workers=8),),
        active_power_mw={"any": 1.0},
    )


def test_gap9_description():
    p = builtin_platform("gap9")
    assert p.clock_hz == 240e6
    assert p.voltage_v == 0.65
    assert p.tier("l1").capacity == 128_000
    assert p.tier("l1").read_bandwidth == 8.0
    assert p.tier("l2").capacity == 1_500_000
    assert p.tier("l2").read_bandwidth == pytest.approx(0.8)  # 10x below L1
    assert p.tier("ext_ram").read_bandwidth == 1.0
    acc = p.engine("conv_accelerator")
    assert acc.peak_mac_per_cycle == 150.0
    assert acc.depthwise_derate == pytest.approx(1 / 16)
    cores = p.engine("worker_cores")
    assert cores.num_workers == 8
    assert p.active_power_mw == {"viola_jones": 20.5, "cnn": 33.0}


def test_gap8_description():
    p = builtin_platform("gap8")
    assert p.clock_hz == 175e6
    assert p.voltage_v == 1.2
    assert p.tier("l1").capacity == 64_000
    assert p.tier("l2").capacity == 512_000
    assert not p.has_engine("conv_accelerator")
    assert p.active_power_mw["viola_jones"] == 79.0


def test_capacity_ordering_and_dominance():
    for name in ("gap9", "gap8"):
        p = builtin_platform(name)
        assert p.tier("l1").capacity < p.tier("l2").capacity < p.tier("ext_ram").capacity
    g9, g8 = builtin_platform("gap9"), builtin_platform("gap8")
    assert g9.tier("l1").capacity > g8.tier("l1").capacity
    assert g9.tier("l2").capacity > g8.tier("l2").capacity


# Shipped data files that are not device descriptions are not platforms.
@pytest.mark.parametrize("name", ["gap7", "mbnv3_ssdlite_320x240",
                                  "scenario_gap9_viola_low"])
def test_unknown_platform(name):
    with pytest.raises(UnknownPlatform):
        builtin_platform(name)


def test_transfer_1d_at_one_byte_per_cycle():
    p = flat_platform()
    assert transfer_cycles(p, "ext_ram", "l2", 1000, rows=1) == 1000.0


def test_transfer_2d_row_overhead():
    # 1000 bytes split into 100 rows with 46 cycles of overhead per row:
    # 1000 payload cycles + 4600 overhead, a 4.6x penalty on top
    p = flat_platform(overhead=46.0)
    got = transfer_cycles(p, "ext_ram", "l2", 1000, rows=100)
    assert got == 1000.0 + 4600.0


def test_transfer_2d_zero_overhead_equals_1d():
    p = flat_platform()
    assert transfer_cycles(p, "ext_ram", "l2", 1200, rows=1) == \
        transfer_cycles(p, "ext_ram", "l2", 1200, rows=100)


def test_transfer_bottleneck_is_min_bandwidth():
    p = flat_platform()
    # l2 read at 2 B/cy into l1 write at 8 B/cy -> bottleneck 2
    assert transfer_cycles(p, "l2", "l1", 1000) == 500.0
    assert transfer_cycles(p, "l1", "l2", 1000) == 500.0


def test_transfer_errors():
    p = flat_platform()
    with pytest.raises(UnknownTier):
        transfer_cycles(p, "l3", "l1", 100)
    with pytest.raises(ValueError):
        transfer_cycles(p, "l1", "l2", 100, rows=3)
    with pytest.raises(ValueError):
        transfer_cycles(p, "l1", "l2", 0)


@settings(max_examples=80, deadline=None)
@given(a=st.integers(1, 10_000), b=st.integers(1, 10_000),
       rows=st.integers(1, 50))
def test_transfer_additive_and_monotone(a, b, rows):
    p = flat_platform(overhead=7.0)
    joint = transfer_cycles(p, "ext_ram", "l2", (a + b) * rows, rows=rows)
    # additive over concatenated transfers of the same row structure
    s1 = transfer_cycles(p, "ext_ram", "l2", a * rows, rows=rows)
    s2 = transfer_cycles(p, "ext_ram", "l2", b * rows, rows=rows)
    assert joint == pytest.approx(s1 + s2 - rows * 7.0)
    # monotone in bytes and rows
    assert joint >= s1
    more_rows = transfer_cycles(p, "ext_ram", "l2", (a + b) * rows,
                                rows=rows) <= transfer_cycles(
        p, "ext_ram", "l2", (a + b) * rows * 2, rows=rows * 2)
    assert more_rows


@pytest.mark.parametrize("name", ["gap8", "gap9"])
def test_platform_json_round_trip(name):
    p = builtin_platform(name)
    again = platform_from_json(platform_to_json(p))
    assert again == p
