import pytest

from trapnode.cnngraph import (SHIPPED_GRAPH, BadParamCount, GraphCycle,
                               GraphError, Layer, LayerGraph, ShapeMismatch,
                               UnknownOpKind, conv_param_count, count_macs,
                               count_macs_total, count_params_total,
                               dws_savings, graph_from_json, graph_to_json,
                               load_graph)


def conv_layer(name="c1", cin=16, cout=16, hw=10, k=3, stride=1, groups=1,
               inputs=("input",)):
    pad = k // 2
    hout = (hw + 2 * pad - k) // stride + 1
    kind = "depthwise_conv2d" if groups == cin == cout else (
        "pointwise_conv2d" if k == 1 else "conv2d")
    return Layer(
        name=name, op_kind=kind, inputs=tuple(inputs),
        in_shape=(cin, hw, hw), out_shape=(cout, hout, hout),
        kernel=(k, k), stride=stride, padding=pad, groups=groups,
        param_count=conv_param_count((k, k), cin, cout, groups),
    )


def test_single_conv_shape_rule():
    g = LayerGraph("t", (16, 10, 10), (conv_layer(),))
    assert g.layers[0].out_shape == (16, 10, 10)


def test_shape_mismatch_rejected():
    bad = Layer("c", "conv2d", ("input",), (16, 10, 10), (16, 9, 9),
                kernel=(3, 3), stride=1, padding=1,
                param_count=conv_param_count((3, 3), 16, 16, 1))
    with pytest.raises(ShapeMismatch):
        LayerGraph("t", (16, 10, 10), (bad,))


def test_residual_add_shape_mismatch():
    a = conv_layer("a", cout=16)
    b = conv_layer("b", cin=16, cout=8, inputs=("a",))
    add = Layer("sum", "add", ("a", "b"), (16, 10, 10), (16, 10, 10),
                elementwise=True)
    with pytest.raises(ShapeMismatch):
        LayerGraph("t", (16, 10, 10), (a, b, add))


def test_cycle_detected():
    a = Layer("a", "relu", ("b",), (1, 4, 4), (1, 4, 4), elementwise=True)
    b = Layer("b", "relu", ("a",), (1, 4, 4), (1, 4, 4), elementwise=True)
    with pytest.raises(GraphCycle):
        LayerGraph("t", (1, 4, 4), (a, b))


def test_unknown_op_kind():
    bad = Layer("x", "deconv", ("input",), (1, 4, 4), (1, 4, 4))
    with pytest.raises(UnknownOpKind):
        LayerGraph("t", (1, 4, 4), (bad,))


def test_bad_param_count():
    bad = Layer("c", "conv2d", ("input",), (16, 10, 10), (16, 10, 10),
                kernel=(3, 3), padding=1, param_count=1)
    with pytest.raises(BadParamCount):
        LayerGraph("t", (16, 10, 10), (bad,))


def test_count_macs_formula_instances():
    # conv 3x3, 16->16, out 10x10: 3*3*16*16*10*10 = 230400
    assert count_macs(conv_layer()) == 230_400
    # depthwise 3x3 on 16 channels, out 10x10: 3*3*16*100 = 14400
    assert count_macs(conv_layer(groups=16)) == 14_400
    marker = Layer("h", "ssd_head", ("input",), (1, 1, 1), (1, 1, 1))
    assert count_macs(marker) == 0


def brute_force_macs(layer: Layer) -> int:
    # Independent shape walker: iterate output positions and kernel taps.
    if layer.op_kind not in ("conv2d", "depthwise_conv2d", "pointwise_conv2d"):
        return 0
    kh, kw = layer.kernel
    cin = layer.in_shape[0]
    cout, hout, wout = layer.out_shape
    total = 0
    for _ in range(cout):
        per_output_channel = 0
        for _ in range(hout):
            for _ in range(wout):
                per_output_channel += kh * kw * (cin // layer.groups)
        total += per_output_channel
    return total


def test_count_macs_matches_brute_force_walker():
    cases = [
        conv_layer(),
        conv_layer(groups=16),
        conv_layer(k=1),
        conv_layer(cin=8, cout=24, hw=7, k=5, stride=2),
    ]
    for layer in cases:
        assert count_macs(layer) == brute_force_macs(layer)


def test_dws_savings_values():
    # 3x3, 16 -> 16: 1 - 400/2304 = 0.8264 (the standard count; the well
    # known larger quoted figure does not follow from this formula)
    assert dws_savings(3, 16, 16) == pytest.approx(1 - 400 / 2304)
    assert dws_savings(3, 16, 16) == pytest.approx(0.82638888, abs=1e-6)
    assert dws_savings(3, 16, 1) <= 0.0
    assert dws_savings(1, 16, 16) < 0.0


def test_shipped_graph_loads_and_hits_totals():
    g = load_graph(SHIPPED_GRAPH)
    macs = count_macs_total(g)
    params = count_params_total(g)
    assert abs(macs - 584e6) / 584e6 <= 0.10
    assert abs(params - 3.44e6) / 3.44e6 <= 0.10
    # input is the camera raster; the zero-MAC resize feeds the 320x320 net
    assert g.input_shape == (3, 240, 320)
    assert g.layers[0].op_kind == "resize"
    assert count_macs(g.layers[0]) == 0


def test_graph_json_round_trip():
    g = load_graph(SHIPPED_GRAPH)
    assert graph_from_json(graph_to_json(g)) == g


def test_activation_byte_accounting():
    g = LayerGraph("t", (16, 10, 10), (conv_layer(),), element_bytes=1)
    layer = g.layers[0]
    assert g.tensor_bytes(layer.in_shape) == 16 * 10 * 10
    assert g.tensor_bytes(layer.out_shape) == 16 * 10 * 10
