"""Memory placement and latency for CNN inference on the modeled MCU:
the layer-by-layer schedule, the L2-resident vs external-memory breakdown,
and the effect of shrinking the on-chip buffers.
"""

from trapnode.cnngraph import SHIPPED_GRAPH, load_graph
from trapnode.mcu import builtin_platform
from trapnode.sched import BudgetConfig, compare_budgets, estimate_latency, plan_schedule

graph = load_graph(SHIPPED_GRAPH)
platform = builtin_platform("gap9")

big = BudgetConfig(l1_bytes=115_600, l2_bytes=1_200_000,
                   engine="conv_accelerator", dma_overlap=True)
schedule = plan_schedule(graph, platform, big)
report = estimate_latency(schedule, graph, platform, big)

print(f"platform {platform.name} @ {platform.clock_hz / 1e6:.0f} MHz, "
      f"L1 buffer {big.l1_bytes / 1e3:.1f} kB, L2 buffer {big.l2_bytes / 1e6:.1f} MB")
print(f"peak on-chip activation residency: {schedule.peak_l2_bytes:,} B; "
      f"external arena: {schedule.peak_ext_bytes:,} B")
ext_tensors = [t for t, h in schedule.tensor_homes.items() if h == "ext_ram"]
print(f"tensors homed in external RAM: {ext_tensors}\n")

print(f"total: {report.total_cycles / 1e6:.1f} M cycles = "
      f"{report.wall_time_s * 1e3:.1f} ms, {report.mac_per_cycle:.1f} MAC/cycle")
print(f"{'class':<14} {'layer cycles':>14} {'share':>7}")
for cls, cycles in report.class_cycles.items():
    print(f"{cls:<14} {cycles:>14,.0f} {cycles / report.total_cycles:>6.1%}")

print("\nShrinking the buffers to 46.7 kB / 267 kB:")
small = BudgetConfig(l1_bytes=46_700, l2_bytes=267_000,
                     engine="conv_accelerator", dma_overlap=True)
comparison = compare_budgets(graph, platform, [small, big])
small_rep, big_rep = comparison.reports
print(f"  small: {small_rep.total_cycles / 1e6:.1f} M cycles")
print(f"  large: {big_rep.total_cycles / 1e6:.1f} M cycles")
print(f"  speed-up from the larger buffers: {comparison.speedup():.2f}x "
      f"(monotone: {comparison.monotone_nonincreasing})")

cores = BudgetConfig(l1_bytes=115_600, l2_bytes=1_200_000,
                     engine="worker_cores", dma_overlap=True)
cores_rep = estimate_latency(plan_schedule(graph, platform, cores),
                             graph, platform, cores)
print(f"\nsame budgets on the worker cores instead of the accelerator: "
      f"{cores_rep.total_cycles / 1e6:.1f} M cycles "
      f"({cores_rep.total_cycles / report.total_cycles:.1f}x slower)")
