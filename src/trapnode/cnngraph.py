"""CNN operator-graph cost model: shapes, MAC/parameter counting, savings.

This is an accounting model, not a runtime: layers carry shape arithmetic,
operation kind, and parameter counts, and the module answers how many
multiply-accumulates and bytes each layer moves. Activations and weights are
8-bit by default (element_bytes is a graph-level field).

Graph files are JSON: {"name", "element_bytes", "input_shape", "layers":
[{name, op_kind, inputs, in_shape, out_shape, kernel, stride, padding,
groups, param_count, elementwise}]}. Every graph file, the shipped one too, is
checked field by field as it is read, by `modelfile.read_model`.

`SHIPPED_GRAPH`, the only description of the node's network, transcribes the
reduced-tail MobileNetV3-Large backbone, SSDLite heads at six scales, and a
zero-MAC resize from the 320x240 camera raster to the 320x320 input.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, asdict
from pathlib import Path

from .modelfile import read_model

SHIPPED_GRAPH = Path(__file__).parent / "data" / "mbnv3_ssdlite_320x240.json"

OP_KINDS = frozenset({
    "conv2d", "depthwise_conv2d", "pointwise_conv2d", "pool",
    "hsigmoid", "hswish", "relu", "add", "resize", "ssd_head", "reshape",
})
CONV_KINDS = frozenset({"conv2d", "depthwise_conv2d", "pointwise_conv2d"})


class GraphError(ValueError):
    pass


class UnknownOpKind(GraphError):
    pass


class ShapeMismatch(GraphError):
    pass


class GraphCycle(GraphError):
    pass


class BadParamCount(GraphError):
    pass


@dataclass(frozen=True)
class Layer:
    name: str
    op_kind: str
    inputs: tuple[str, ...]
    in_shape: tuple[int, int, int]   # (C, H, W)
    out_shape: tuple[int, int, int]
    kernel: tuple[int, int] = (1, 1)
    stride: int = 1
    padding: int = 0
    groups: int = 1
    param_count: int = 0
    elementwise: bool = False

    def elems_in(self) -> int:
        c, h, w = self.in_shape
        return c * h * w

    def elems_out(self) -> int:
        c, h, w = self.out_shape
        return c * h * w


def conv_param_count(kernel: tuple[int, int], cin: int, cout: int,
                     groups: int) -> int:
    kh, kw = kernel
    return kh * kw * (cin // groups) * cout + cout


def count_macs(layer: Layer) -> int:
    """MACs for one layer; only convolution kinds cost MACs."""
    if layer.op_kind not in CONV_KINDS:
        return 0
    kh, kw = layer.kernel
    cin = layer.in_shape[0]
    cout, hout, wout = layer.out_shape
    return kh * kw * (cin // layer.groups) * cout * hout * wout


def _check_layer(layer: Layer) -> None:
    if layer.op_kind not in OP_KINDS:
        raise UnknownOpKind(f"layer {layer.name}: unknown op_kind {layer.op_kind!r}")
    cin, hin, win = layer.in_shape
    cout, hout, wout = layer.out_shape
    if cout < 1 or hout < 1 or wout < 1:
        raise ShapeMismatch(f"layer {layer.name}: empty output {layer.out_shape}")
    if layer.op_kind in CONV_KINDS:
        if layer.stride < 1 or layer.groups < 1:
            raise GraphError(f"layer {layer.name}: stride and groups must be >= 1")
        kh, kw = layer.kernel
        if layer.op_kind == "pointwise_conv2d" and (kh, kw) != (1, 1):
            raise ShapeMismatch(f"layer {layer.name}: pointwise conv must be 1x1")
        if layer.op_kind == "depthwise_conv2d":
            if not (layer.groups == cin == cout):
                raise ShapeMismatch(
                    f"layer {layer.name}: depthwise needs groups == Cin == Cout"
                )
        expect_h = (hin + 2 * layer.padding - kh) // layer.stride + 1
        expect_w = (win + 2 * layer.padding - kw) // layer.stride + 1
        if (hout, wout) != (expect_h, expect_w):
            raise ShapeMismatch(
                f"layer {layer.name}: out {hout}x{wout}, expected "
                f"{expect_h}x{expect_w} from kernel/stride/padding"
            )
        expect_params = conv_param_count(layer.kernel, cin, cout, layer.groups)
        if layer.param_count != expect_params:
            raise BadParamCount(
                f"layer {layer.name}: param_count {layer.param_count}, "
                f"formula gives {expect_params}"
            )
    elif layer.op_kind == "pool":
        if cin != cout:
            raise ShapeMismatch(f"layer {layer.name}: pool cannot change channels")
    elif layer.op_kind in ("hsigmoid", "hswish", "relu", "add"):
        if layer.in_shape != layer.out_shape:
            raise ShapeMismatch(
                f"layer {layer.name}: elementwise op must preserve shape"
            )
    elif layer.op_kind == "resize":
        if cin != cout:
            raise ShapeMismatch(f"layer {layer.name}: resize cannot change channels")
    elif layer.op_kind == "reshape":
        if cin * hin * win != cout * hout * wout:
            raise ShapeMismatch(f"layer {layer.name}: reshape changes element count")


@dataclass(frozen=True)
class LayerGraph:
    name: str
    input_shape: tuple[int, int, int]
    layers: tuple[Layer, ...]
    element_bytes: int = 1

    def __post_init__(self):
        if self.element_bytes < 1:
            raise GraphError("element_bytes must be >= 1")
        if any(d < 1 for d in self.input_shape):
            raise ShapeMismatch(f"empty input {self.input_shape}")
        shapes: dict[str, tuple[int, int, int]] = {"input": self.input_shape}
        for layer in self.layers:
            if layer.name in shapes:
                raise GraphError(f"duplicate layer name {layer.name!r}")
            if not layer.inputs:
                raise GraphError(f"layer {layer.name} has no inputs")
            for src in layer.inputs:
                if src == layer.name:
                    raise GraphCycle(f"layer {layer.name} feeds itself")
                if src not in shapes:
                    known = any(l.name == src for l in self.layers)
                    if known:
                        raise GraphCycle(
                            f"layer {layer.name} consumes {src!r} before it is produced"
                        )
                    raise GraphError(f"layer {layer.name} consumes unknown {src!r}")
            _check_layer(layer)
            if layer.op_kind == "add":
                srcs = {shapes[s] for s in layer.inputs}
                if len(layer.inputs) < 2 or len(srcs) != 1:
                    raise ShapeMismatch(
                        f"residual add {layer.name}: input shapes {srcs} must match"
                    )
                if shapes[layer.inputs[0]] != layer.in_shape:
                    raise ShapeMismatch(
                        f"residual add {layer.name}: in_shape disagrees with producers"
                    )
            elif layer.op_kind != "ssd_head":
                if len(layer.inputs) != 1:
                    raise GraphError(f"layer {layer.name} must have exactly one input")
                if shapes[layer.inputs[0]] != layer.in_shape:
                    raise ShapeMismatch(
                        f"layer {layer.name}: in_shape {layer.in_shape} != producer "
                        f"{shapes[layer.inputs[0]]}"
                    )
            shapes[layer.name] = layer.out_shape

    def tensor_bytes(self, shape: tuple[int, int, int]) -> int:
        c, h, w = shape
        return c * h * w * self.element_bytes


def count_macs_total(graph: LayerGraph) -> int:
    return sum(count_macs(l) for l in graph.layers)


def count_params_total(graph: LayerGraph) -> int:
    return sum(l.param_count for l in graph.layers)


def dws_savings(k: int, cin: int, cout: int) -> float:
    """Parameter/MAC saving of a depthwise-separable factorization.

    1 - (k*k*cin + cin*cout) / (k*k*cin*cout); identical per output pixel for
    MACs. Not a saving at all when cout is small or k = 1.
    """
    if k < 1:
        raise ValueError("kernel must be >= 1")
    return 1.0 - (k * k * cin + cin * cout) / (k * k * cin * cout)


def graph_to_json(graph: LayerGraph) -> str:
    doc = {
        "name": graph.name,
        "element_bytes": graph.element_bytes,
        "input_shape": list(graph.input_shape),
        "layers": [
            {**asdict(l), "inputs": list(l.inputs),
             "in_shape": list(l.in_shape), "out_shape": list(l.out_shape),
             "kernel": list(l.kernel)}
            for l in graph.layers
        ],
    }
    return json.dumps(doc, indent=1)


@functools.lru_cache(maxsize=4)
def graph_from_json(text: str) -> LayerGraph:
    """The graph a `graph_to_json` document describes, read field by field
    by `read_model`; a key it leaves out takes the dataclass default.

    Memoized on the text, so repeat calls in one process parse and validate
    a graph once. A cached graph can be shared: `LayerGraph` and `Layer` are
    frozen and hold only tuples. A raised error is never cached, and the
    bounded size keeps fuzzed texts from growing memory."""
    return read_model("graph", json.loads(text), LayerGraph)


def load_graph(path) -> LayerGraph:
    with open(path, "r", encoding="ascii") as fh:
        return graph_from_json(fh.read())
