"""CNN operator-graph cost model: shapes, MAC/parameter counting, savings.

This is an accounting model, not a runtime: layers carry shape arithmetic,
operation kind, and parameter counts, and the module answers how many
multiply-accumulates and bytes each layer moves. Activations and weights are
8-bit by default (element_bytes is a graph-level field).

Graph files are JSON: {"name", "element_bytes", "input_shape", "layers":
[{name, op_kind, inputs, in_shape, out_shape, kernel, stride, padding,
groups, param_count, elementwise}]}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, replace

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


def graph_from_json(text: str) -> LayerGraph:
    doc = json.loads(text)
    layers = tuple(
        Layer(
            name=l["name"], op_kind=l["op_kind"], inputs=tuple(l["inputs"]),
            in_shape=tuple(l["in_shape"]), out_shape=tuple(l["out_shape"]),
            kernel=tuple(l.get("kernel", (1, 1))), stride=l.get("stride", 1),
            padding=l.get("padding", 0), groups=l.get("groups", 1),
            param_count=l.get("param_count", 0),
            elementwise=l.get("elementwise", False),
        )
        for l in doc["layers"]
    )
    return LayerGraph(
        name=doc["name"], input_shape=tuple(doc["input_shape"]),
        layers=layers, element_bytes=doc.get("element_bytes", 1),
    )


def load_graph(path) -> LayerGraph:
    with open(path, "r", encoding="ascii") as fh:
        return graph_from_json(fh.read())


def save_graph(graph: LayerGraph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(graph_to_json(graph))


def _make_divisible(v: float, divisor: int = 8) -> int:
    new_v = max(divisor, int(v + divisor / 2) // divisor * divisor)
    if new_v < 0.9 * v:
        new_v += divisor
    return new_v


class _Builder:
    def __init__(self, name: str, input_shape: tuple[int, int, int]):
        self.name = name
        self.input_shape = input_shape
        self.layers: list[Layer] = []
        self.counter = 0

    def _shape(self, src: str) -> tuple[int, int, int]:
        if src == "input":
            return self.input_shape
        for l in self.layers:
            if l.name == src:
                return l.out_shape
        raise KeyError(src)

    def add(self, op_kind: str, src, out_shape=None, kernel=(1, 1), stride=1,
            padding=0, groups=1, name=None, elementwise=False) -> str:
        inputs = (src,) if isinstance(src, str) else tuple(src)
        in_shape = self._shape(inputs[0])
        if out_shape is None:
            out_shape = in_shape
        elementwise = elementwise or op_kind in ("hsigmoid", "hswish", "relu", "add")
        self.counter += 1
        name = name or f"{op_kind}_{self.counter}"
        params = 0
        if op_kind in CONV_KINDS:
            params = conv_param_count(kernel, in_shape[0], out_shape[0], groups)
        self.layers.append(Layer(
            name=name, op_kind=op_kind, inputs=inputs, in_shape=in_shape,
            out_shape=tuple(out_shape), kernel=tuple(kernel), stride=stride,
            padding=padding, groups=groups, param_count=params,
            elementwise=elementwise,
        ))
        return name

    def conv(self, src: str, cout: int, k: int, stride: int = 1,
             depthwise: bool = False, name=None) -> str:
        cin, h, w = self._shape(src)
        pad = k // 2
        hout = (h + 2 * pad - k) // stride + 1
        wout = (w + 2 * pad - k) // stride + 1
        if depthwise:
            return self.add("depthwise_conv2d", src, (cin, hout, wout),
                            kernel=(k, k), stride=stride, padding=pad,
                            groups=cin, name=name)
        kind = "pointwise_conv2d" if k == 1 else "conv2d"
        return self.add(kind, src, (cout, hout, wout), kernel=(k, k),
                        stride=stride, padding=pad, name=name)

    def act(self, src: str, kind: str) -> str:
        return self.add(kind, src, elementwise=True)

    def se(self, src: str) -> str:
        # Squeeze-excite: the channel gate is computed at (C,1,1), broadcast
        # back over the map, and merged elementwise. The merge is a multiply
        # on hardware; byte- and MAC-wise it costs the same as the add used
        # to stand in for it here.
        c, h, w = self._shape(src)
        sq = _make_divisible(c // 4)
        pooled = self.add("pool", src, (c, 1, 1), kernel=(h, w),
                          elementwise=True)
        fc1 = self.conv(pooled, sq, 1)
        r = self.act(fc1, "relu")
        fc2 = self.conv(r, c, 1)
        gate = self.act(fc2, "hsigmoid")
        spread = self.add("resize", gate, (c, h, w), elementwise=True)
        return self.add("add", (spread, src))

    def build(self, element_bytes: int = 1) -> LayerGraph:
        return LayerGraph(self.name, self.input_shape, tuple(self.layers),
                          element_bytes)


def build_mbnv3_ssdlite(input_h: int = 240, input_w: int = 320,
                        num_classes: int = 91, anchors: int = 6,
                        reduce_tail: bool = True) -> LayerGraph:
    """MobileNetV3-Large + SSDLite detection graph.

    The camera raster (default 320x240) is resized to the model's native
    320x320 input by a zero-MAC front layer. Channel widths follow the
    standard large configuration with the reduced tail used by the 320-input
    detection variant; heads regress `anchors` boxes per cell over
    `num_classes` classes at six feature-map scales.
    """
    b = _Builder("mbnv3_ssdlite", (3, input_h, input_w))
    x = b.add("resize", "input", (3, 320, 320))

    x = b.conv(x, 16, 3, stride=2, name="stem")
    x = b.act(x, "hswish")

    # (kernel, expanded, out, SE, activation, stride)
    rows = [
        (3, 16, 16, False, "relu", 1),
        (3, 64, 24, False, "relu", 2),
        (3, 72, 24, False, "relu", 1),
        (5, 72, 40, True, "relu", 2),
        (5, 120, 40, True, "relu", 1),
        (5, 120, 40, True, "relu", 1),
        (3, 240, 80, False, "hswish", 2),
        (3, 200, 80, False, "hswish", 1),
        (3, 184, 80, False, "hswish", 1),
        (3, 184, 80, False, "hswish", 1),
        (3, 480, 112, True, "hswish", 1),
        (3, 672, 112, True, "hswish", 1),
        (5, 672, 160, True, "hswish", 2),
        (5, 960, 160, True, "hswish", 1),
        (5, 960, 160, True, "hswish", 1),
    ]
    if reduce_tail:
        rows[-3] = (5, 672, 80, True, "hswish", 2)
        rows[-2] = (5, 480, 80, True, "hswish", 1)
        rows[-1] = (5, 480, 80, True, "hswish", 1)
    last_conv_ch = 480 if reduce_tail else 960

    c4 = None
    for i, (k, exp, cout, use_se, nl, stride) in enumerate(rows):
        cin = b._shape(x)[0]
        block_in = x
        if exp != cin:
            x = b.conv(x, exp, 1)
            x = b.act(x, nl)
        if i == len(rows) - 3:
            c4 = x  # detection tap: expanded features before the stride-2 dw
        x = b.conv(x, exp, k, stride=stride, depthwise=True)
        x = b.act(x, nl)
        if use_se:
            x = b.se(x)
        x = b.conv(x, cout, 1)
        if stride == 1 and cin == cout:
            x = b.add("add", (x, block_in))

    x = b.conv(x, last_conv_ch, 1, name="tail_conv")
    x = b.act(x, "hswish")
    c5 = x

    # Extra downsampling feature maps: pw -> dw s2 -> pw, ReLU6-style.
    features = [c4, c5]
    extra_channels = [512, 256, 256, 128]
    for out_ch in extra_channels:
        mid = out_ch // 2
        x = b.conv(x, mid, 1)
        x = b.act(x, "relu")
        x = b.conv(x, mid, 3, stride=2, depthwise=True)
        x = b.act(x, "relu")
        x = b.conv(x, out_ch, 1)
        x = b.act(x, "relu")
        features.append(x)

    # SSDLite heads: depthwise-separable 3x3 per feature map.
    head_outputs = []
    for i, feat in enumerate(features):
        for branch, per_anchor in (("cls", num_classes), ("reg", 4)):
            d = b.conv(feat, 0, 3, depthwise=True, name=f"{branch}{i}_dw")
            d = b.act(d, "relu")
            d = b.conv(d, anchors * per_anchor, 1, name=f"{branch}{i}_pw")
            head_outputs.append(d)

    b.add("ssd_head", tuple(head_outputs), (1, 1, 1), name="box_decode")
    return b.build(element_bytes=1)
