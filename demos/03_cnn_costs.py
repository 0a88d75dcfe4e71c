"""Operator-level cost accounting for the shipped detection network:
MAC and parameter totals, the depthwise-separable saving, and where the
compute actually lives.
"""

from collections import defaultdict

from trapnode.cnngraph import (SHIPPED_GRAPH, count_macs, count_macs_total,
                               count_params_total, dws_savings, load_graph)

graph = load_graph(SHIPPED_GRAPH)
macs = count_macs_total(graph)
params = count_params_total(graph)

print(f"graph: {graph.name}, {len(graph.layers)} layers, "
      f"camera input {graph.input_shape} (resized to the 320x320 net input)")
print(f"totals: {macs / 1e6:.1f} M MACs, {params / 1e6:.3f} M parameters\n")

by_kind = defaultdict(lambda: [0, 0, 0])
for layer in graph.layers:
    row = by_kind[layer.op_kind]
    row[0] += 1
    row[1] += count_macs(layer)
    row[2] += layer.param_count
print(f"{'op kind':<20} {'layers':>7} {'MACs':>14} {'params':>10}")
for kind, (n, m, p) in sorted(by_kind.items(), key=lambda kv: -kv[1][1]):
    print(f"{kind:<20} {n:>7} {m:>14,} {p:>10,}")

print("\nDepthwise-separable saving for a 3x3 convolution, 16 -> 16 channels:")
print(f"  1 - (9*16 + 16*16) / (9*16*16) = {dws_savings(3, 16, 16):.4f}")
print("The factorization stops paying off when output channels are few:")
for cout in (16, 4, 2, 1):
    print(f"  cout={cout:>2}: saving {dws_savings(3, 16, cout):+.3f}")

heaviest = sorted(graph.layers, key=count_macs, reverse=True)[:8]
print("\nheaviest layers:")
for layer in heaviest:
    print(f"  {layer.name:<22} {layer.op_kind:<18} {count_macs(layer):>12,} MACs "
          f"out {layer.out_shape}")
