"""The six DNN inference workloads of the paper's evaluation (§VI-A).

"We choose six different state-of-the-art DNN inference models including
GoogleNet, AlexNet, YOLO-lite, MobileNet, ResNet, and Bert" — CV and NLP
networks with different model sizes, kernel types and compute/memory
balance.

Every builder takes an ``input_size`` (CNNs) or ``seq_len`` (BERT), so
:func:`paper_models` can build the six at each of :data:`PROFILES` while
keeping layer structure, channel counts and compute/memory ratios
faithful.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import ConfigError
from repro.workloads.model import (
    AttentionMatmulSpec,
    ConvSpec,
    DenseSpec,
    EltwiseSpec,
    ModelGraph,
    PoolSpec,
)


class _ShapeTracker:
    """Propagates (h, w, c) through a CNN as layers are appended."""

    def __init__(self, graph: ModelGraph, h: int, w: int, c: int):
        self.graph = graph
        self.h, self.w, self.c = h, w, c

    def conv(
        self,
        name: str,
        out_c: int,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
    ) -> "_ShapeTracker":
        layer = ConvSpec(
            name=name,
            in_h=self.h,
            in_w=self.w,
            in_c=self.c,
            out_c=out_c,
            kernel=kernel,
            stride=stride,
            padding=padding,
            groups=groups,
        )
        self.graph.add(layer)
        self.h, self.w, self.c = layer.out_h, layer.out_w, out_c
        return self

    def pool(
        self, name: str, kernel: int, stride: int = 0, padding: int = 0
    ) -> "_ShapeTracker":
        layer = PoolSpec(
            name=name,
            in_h=self.h,
            in_w=self.w,
            channels=self.c,
            kernel=kernel,
            stride=stride,
            padding=padding,
        )
        self.graph.add(layer)
        self.h, self.w = layer.out_h, layer.out_w
        return self

    def global_pool(self, name: str) -> "_ShapeTracker":
        return self.pool(name, kernel=self.h, stride=self.h)

    def residual_add(self, name: str) -> "_ShapeTracker":
        self.graph.add(
            EltwiseSpec(name=name, elements=self.h * self.w * self.c, operands=2)
        )
        return self

    def dense(self, name: str, out_features: int) -> "_ShapeTracker":
        self.graph.add(
            DenseSpec(
                name=name,
                in_features=self.h * self.w * self.c,
                out_features=out_features,
            )
        )
        self.h, self.w, self.c = 1, 1, out_features
        return self


def _check_input(input_size: int) -> None:
    if input_size < 32:
        raise ConfigError(f"input_size {input_size} too small for these CNNs")


# ----------------------------------------------------------------------
# AlexNet (Krizhevsky et al., 2012)
# ----------------------------------------------------------------------
def alexnet(input_size: int = 224) -> ModelGraph:
    _check_input(input_size)
    g = ModelGraph("alexnet", input_shape=(input_size, input_size, 3))
    t = _ShapeTracker(g, input_size, input_size, 3)
    t.conv("conv1", 96, kernel=11, stride=4, padding=2)
    t.pool("pool1", 3, 2)
    t.conv("conv2", 256, kernel=5, padding=2, groups=2)
    t.pool("pool2", 3, 2)
    t.conv("conv3", 384, kernel=3, padding=1)
    t.conv("conv4", 384, kernel=3, padding=1, groups=2)
    t.conv("conv5", 256, kernel=3, padding=1, groups=2)
    t.pool("pool3", 3, 2)
    t.dense("fc6", 4096)
    t.dense("fc7", 4096)
    t.dense("fc8", 1000)
    return g


# ----------------------------------------------------------------------
# GoogLeNet (Szegedy et al., 2015)
# ----------------------------------------------------------------------
_INCEPTION_CFG = {
    # name: (1x1, 3x3reduce, 3x3, 5x5reduce, 5x5, pool_proj)
    "3a": (64, 96, 128, 16, 32, 32),
    "3b": (128, 128, 192, 32, 96, 64),
    "4a": (192, 96, 208, 16, 48, 64),
    "4b": (160, 112, 224, 24, 64, 64),
    "4c": (128, 128, 256, 24, 64, 64),
    "4d": (112, 144, 288, 32, 64, 64),
    "4e": (256, 160, 320, 32, 128, 128),
    "5a": (256, 160, 320, 32, 128, 128),
    "5b": (384, 192, 384, 48, 128, 128),
}


def _inception(t: _ShapeTracker, tag: str) -> None:
    c1, r3, c3, r5, c5, pp = _INCEPTION_CFG[tag]
    h, w, c_in = t.h, t.w, t.c
    g = t.graph
    g.add(ConvSpec(f"inc{tag}_1x1", h, w, c_in, c1, kernel=1))
    g.add(ConvSpec(f"inc{tag}_3x3r", h, w, c_in, r3, kernel=1))
    g.add(ConvSpec(f"inc{tag}_3x3", h, w, r3, c3, kernel=3, padding=1))
    g.add(ConvSpec(f"inc{tag}_5x5r", h, w, c_in, r5, kernel=1))
    g.add(ConvSpec(f"inc{tag}_5x5", h, w, r5, c5, kernel=5, padding=2))
    g.add(PoolSpec(f"inc{tag}_pool", h, w, c_in, kernel=3, stride=1, padding=1))
    g.add(ConvSpec(f"inc{tag}_poolproj", h, w, c_in, pp, kernel=1))
    t.c = c1 + c3 + c5 + pp


def googlenet(input_size: int = 224) -> ModelGraph:
    _check_input(input_size)
    g = ModelGraph("googlenet", input_shape=(input_size, input_size, 3))
    t = _ShapeTracker(g, input_size, input_size, 3)
    t.conv("conv1", 64, kernel=7, stride=2, padding=3)
    t.pool("pool1", 3, 2)
    t.conv("conv2_reduce", 64, kernel=1)
    t.conv("conv2", 192, kernel=3, padding=1)
    t.pool("pool2", 3, 2)
    _inception(t, "3a")
    _inception(t, "3b")
    t.pool("pool3", 3, 2, padding=1)
    for tag in ("4a", "4b", "4c", "4d", "4e"):
        _inception(t, tag)
    t.pool("pool4", 3, 2, padding=1)
    _inception(t, "5a")
    _inception(t, "5b")
    t.global_pool("avgpool")
    t.dense("fc", 1000)
    return g


# ----------------------------------------------------------------------
# YOLO-lite (Huang et al., 2018) - the non-GPU real-time detector
# ----------------------------------------------------------------------
def yololite(input_size: int = 224) -> ModelGraph:
    _check_input(input_size)
    g = ModelGraph("yololite", input_shape=(input_size, input_size, 3))
    t = _ShapeTracker(g, input_size, input_size, 3)
    t.conv("conv1", 16, kernel=3, padding=1)
    t.pool("pool1", 2)
    t.conv("conv2", 32, kernel=3, padding=1)
    t.pool("pool2", 2)
    t.conv("conv3", 64, kernel=3, padding=1)
    t.pool("pool3", 2)
    t.conv("conv4", 128, kernel=3, padding=1)
    t.pool("pool4", 2)
    t.conv("conv5", 128, kernel=3, padding=1)
    t.pool("pool5", 2)
    t.conv("conv6", 256, kernel=3, padding=1)
    t.conv("conv7", 125, kernel=1)
    return g


# ----------------------------------------------------------------------
# MobileNet v1 (Howard et al., 2017)
# ----------------------------------------------------------------------
def mobilenet(input_size: int = 224) -> ModelGraph:
    _check_input(input_size)
    g = ModelGraph("mobilenet", input_shape=(input_size, input_size, 3))
    t = _ShapeTracker(g, input_size, input_size, 3)
    t.conv("conv1", 32, kernel=3, stride=2, padding=1)

    def dw_sep(idx: int, out_c: int, stride: int = 1) -> None:
        t.conv(f"dw{idx}", t.c, kernel=3, stride=stride, padding=1, groups=t.c)
        t.conv(f"pw{idx}", out_c, kernel=1)

    dw_sep(1, 64)
    dw_sep(2, 128, stride=2)
    dw_sep(3, 128)
    dw_sep(4, 256, stride=2)
    dw_sep(5, 256)
    dw_sep(6, 512, stride=2)
    for i in range(7, 12):
        dw_sep(i, 512)
    dw_sep(12, 1024, stride=2)
    dw_sep(13, 1024)
    t.global_pool("avgpool")
    t.dense("fc", 1000)
    return g


# ----------------------------------------------------------------------
# ResNet-18 (He et al., 2016)
# ----------------------------------------------------------------------
def resnet18(input_size: int = 224) -> ModelGraph:
    _check_input(input_size)
    g = ModelGraph("resnet", input_shape=(input_size, input_size, 3))
    t = _ShapeTracker(g, input_size, input_size, 3)
    t.conv("conv1", 64, kernel=7, stride=2, padding=3)
    t.pool("pool1", 3, 2)

    def basic_block(idx: int, out_c: int, stride: int = 1) -> None:
        downsample = stride != 1 or t.c != out_c
        in_h, in_w, in_c = t.h, t.w, t.c
        t.conv(f"res{idx}a", out_c, kernel=3, stride=stride, padding=1)
        t.conv(f"res{idx}b", out_c, kernel=3, padding=1)
        if downsample:
            g.add(
                ConvSpec(
                    f"res{idx}ds", in_h, in_w, in_c, out_c, kernel=1, stride=stride
                )
            )
        t.residual_add(f"res{idx}add")

    basic_block(1, 64)
    basic_block(2, 64)
    basic_block(3, 128, stride=2)
    basic_block(4, 128)
    basic_block(5, 256, stride=2)
    basic_block(6, 256)
    basic_block(7, 512, stride=2)
    basic_block(8, 512)
    t.global_pool("avgpool")
    t.dense("fc", 1000)
    return g


# ----------------------------------------------------------------------
# BERT-base encoder (Devlin et al., 2018)
# ----------------------------------------------------------------------
def bert(seq_len: int = 128, layers: int = 12, hidden: int = 768, heads: int = 12) -> ModelGraph:
    if hidden % heads:
        raise ConfigError(f"hidden {hidden} not divisible by heads {heads}")
    head_dim = hidden // heads
    ff = hidden * 4
    g = ModelGraph("bert", input_shape=(seq_len, hidden))
    for i in range(layers):
        g.add(DenseSpec(f"l{i}_q", hidden, hidden, batch=seq_len))
        g.add(DenseSpec(f"l{i}_k", hidden, hidden, batch=seq_len))
        g.add(DenseSpec(f"l{i}_v", hidden, hidden, batch=seq_len))
        g.add(
            AttentionMatmulSpec(
                f"l{i}_qk", m=seq_len, k=head_dim, n=seq_len, heads=heads
            )
        )
        g.add(
            EltwiseSpec(
                f"l{i}_softmax", elements=heads * seq_len * seq_len, operands=1,
                ops_per_element=4,
            )
        )
        g.add(
            AttentionMatmulSpec(
                f"l{i}_pv", m=seq_len, k=seq_len, n=head_dim, heads=heads
            )
        )
        g.add(DenseSpec(f"l{i}_proj", hidden, hidden, batch=seq_len))
        g.add(
            EltwiseSpec(
                f"l{i}_ln1", elements=seq_len * hidden, operands=2, ops_per_element=4
            )
        )
        g.add(DenseSpec(f"l{i}_ff1", hidden, ff, batch=seq_len))
        g.add(DenseSpec(f"l{i}_ff2", ff, hidden, batch=seq_len))
        g.add(
            EltwiseSpec(
                f"l{i}_ln2", elements=seq_len * hidden, operands=2, ops_per_element=4
            )
        )
    return g


# ----------------------------------------------------------------------
# Extra workloads beyond the paper's six (for users of the library)
# ----------------------------------------------------------------------
def vgg16(input_size: int = 224) -> ModelGraph:
    """VGG-16 (Simonyan & Zisserman, 2014) - the classic heavy CNN."""
    _check_input(input_size)
    g = ModelGraph("vgg16", input_shape=(input_size, input_size, 3))
    t = _ShapeTracker(g, input_size, input_size, 3)
    for block, (convs, channels) in enumerate(
        [(2, 64), (2, 128), (3, 256), (3, 512), (3, 512)], start=1
    ):
        for i in range(convs):
            t.conv(f"conv{block}_{i + 1}", channels, kernel=3, padding=1)
        t.pool(f"pool{block}", 2)
    t.dense("fc6", 4096)
    t.dense("fc7", 4096)
    t.dense("fc8", 1000)
    return g


def gpt_decoder(
    seq_len: int = 128, layers: int = 6, hidden: int = 768, heads: int = 12
) -> ModelGraph:
    """A GPT-style decoder stack (prefill phase) - attention + MLP blocks.

    Structurally a BERT encoder with causal attention; the prefill GEMMs
    are identical, which is what the simulator times.
    """
    if hidden % heads:
        raise ConfigError(f"hidden {hidden} not divisible by heads {heads}")
    head_dim = hidden // heads
    g = ModelGraph("gpt", input_shape=(seq_len, hidden))
    for i in range(layers):
        g.add(DenseSpec(f"l{i}_qkv", hidden, 3 * hidden, batch=seq_len))
        g.add(
            AttentionMatmulSpec(
                f"l{i}_qk", m=seq_len, k=head_dim, n=seq_len, heads=heads
            )
        )
        g.add(
            EltwiseSpec(
                f"l{i}_softmax", elements=heads * seq_len * seq_len,
                operands=1, ops_per_element=4,
            )
        )
        g.add(
            AttentionMatmulSpec(
                f"l{i}_pv", m=seq_len, k=seq_len, n=head_dim, heads=heads
            )
        )
        g.add(DenseSpec(f"l{i}_proj", hidden, hidden, batch=seq_len))
        g.add(DenseSpec(f"l{i}_up", hidden, 4 * hidden, batch=seq_len))
        g.add(DenseSpec(f"l{i}_down", 4 * hidden, hidden, batch=seq_len))
        g.add(
            EltwiseSpec(
                f"l{i}_ln", elements=seq_len * hidden, operands=2,
                ops_per_element=4,
            )
        )
    return g


#: name -> builder; the first six match the paper's figures.
MODEL_BUILDERS: Dict[str, Callable[..., ModelGraph]] = {
    "googlenet": googlenet,
    "alexnet": alexnet,
    "yololite": yololite,
    "mobilenet": mobilenet,
    "resnet": resnet18,
    "bert": bert,
    "vgg16": vgg16,
    "gpt": gpt_decoder,
}


_SCALES = {  # profile -> (CNN input size, BERT shape), smallest first
    "tiny": (56, {"seq_len": 64, "layers": 2}),
    "eval": (112, {"seq_len": 128, "layers": 6}),
    "paper": (224, {"seq_len": 128, "layers": 12}),
}
PROFILES = tuple(_SCALES)


def paper_models(profile: str = "eval") -> List[ModelGraph]:
    """The six evaluated models at one of :data:`PROFILES`.

    ``"paper"`` uses full input shapes (224x224, BERT seq 128, 12 layers);
    ``"eval"`` halves CNN resolution and runs 6 BERT layers; ``"tiny"``
    quarters it (56x56, seq 64, 2 layers).  Per-layer structure is kept.
    """
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}")
    cnn_size, bert_kwargs = _SCALES[profile]
    return [
        googlenet(cnn_size),
        alexnet(cnn_size),
        yololite(cnn_size),
        mobilenet(cnn_size),
        resnet18(cnn_size),
        bert(**bert_kwargs),
    ]
