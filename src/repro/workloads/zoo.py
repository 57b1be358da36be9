"""Graph model zoo: the paper's workloads plus non-CNN newcomers.

Every builder returns a :class:`repro.workloads.network.Network`.  Its
:meth:`~repro.workloads.network.Network.lower` output is the flat
``List[ConvLayer]`` the tiling / EDP / DSE machinery consumes, pinned
by ``tests/workloads/test_lowering_golden.py``; the graph keeps what
that list drops — pooling as explicit
:class:`~repro.workloads.ops.PoolOp` nodes instead of silent shape
jumps, and residual adds as :class:`~repro.workloads.ops.EltwiseOp`
nodes.

New workloads the flat list could not express:

* :func:`mobilenet_v2` — inverted residual bottlenecks
  (expand 1x1 -> depthwise 3x3 -> project 1x1) with skip edges,
* :func:`bert_encoder` — a BERT-style transformer encoder block whose
  matmuls (including the activation-activation attention products)
  lower through :class:`~repro.workloads.ops.MatmulOp`.
"""

from __future__ import annotations

from .network import Network
from .ops import ConvOp, DepthwiseConvOp, EltwiseOp, MatmulOp, PoolOp


def alexnet(batch: int = 1, bytes_per_element: int = 1) -> Network:
    """AlexNet (Krizhevsky et al., NIPS 2012) for 227x227 ImageNet.

    The historical two-GPU geometry: CONV2/4/5 are grouped with
    ``groups=2``.  The 3x3/2 max pools after CONV1, CONV2 and CONV5
    are explicit traffic-only nodes.
    """
    net = Network("alexnet", batch=batch)
    net.add_input("image", 3, 227, 227, bytes_per_element)
    net.add(ConvOp("CONV1", "image", "c1", 96, kernel=11, stride=4))
    net.add(PoolOp("POOL1", "c1", "p1", kernel=3, stride=2))
    net.add(ConvOp("CONV2", "p1", "c2", 256, kernel=5, padding=2,
                   groups=2))
    net.add(PoolOp("POOL2", "c2", "p2", kernel=3, stride=2))
    net.add(ConvOp("CONV3", "p2", "c3", 384, kernel=3, padding=1))
    net.add(ConvOp("CONV4", "c3", "c4", 384, kernel=3, padding=1,
                   groups=2))
    net.add(ConvOp("CONV5", "c4", "c5", 256, kernel=3, padding=1,
                   groups=2))
    net.add(PoolOp("POOL5", "c5", "p5", kernel=3, stride=2))
    net.add(MatmulOp("FC6", "p5", "f6", 256 * 6 * 6, 4096))
    net.add(MatmulOp("FC7", "f6", "f7", 4096, 4096))
    net.add(MatmulOp("FC8", "f7", "logits", 4096, 1000))
    return net


def vgg16(batch: int = 1, bytes_per_element: int = 1) -> Network:
    """VGG-16 (Simonyan & Zisserman) for 224x224 ImageNet."""
    net = Network("vgg16", batch=batch)
    net.add_input("image", 3, 224, 224, bytes_per_element)
    stages = [
        # (stage, out_channels, convs)
        (1, 64, 2), (2, 128, 2), (3, 256, 3), (4, 512, 3), (5, 512, 3),
    ]
    previous = "image"
    for stage, out_channels, convs in stages:
        for index in range(1, convs + 1):
            name = f"CONV{stage}_{index}"
            tensor = f"c{stage}_{index}"
            net.add(ConvOp(name, previous, tensor, out_channels,
                           kernel=3, padding=1))
            previous = tensor
        net.add(PoolOp(f"POOL{stage}", previous, f"p{stage}",
                       kernel=2, stride=2))
        previous = f"p{stage}"
    net.add(MatmulOp("FC6", previous, "f6", 512 * 7 * 7, 4096))
    net.add(MatmulOp("FC7", "f6", "f7", 4096, 4096))
    net.add(MatmulOp("FC8", "f7", "logits", 4096, 1000))
    return net


def lenet5(batch: int = 1, bytes_per_element: int = 1) -> Network:
    """LeNet-5 for 32x32 MNIST-style input (a small smoke workload)."""
    net = Network("lenet5", batch=batch)
    net.add_input("image", 1, 32, 32, bytes_per_element)
    net.add(ConvOp("C1", "image", "c1", 6, kernel=5))
    net.add(PoolOp("S2", "c1", "s2", kernel=2, stride=2, mode="avg"))
    net.add(ConvOp("C3", "s2", "c3", 16, kernel=5))
    net.add(PoolOp("S4", "c3", "s4", kernel=2, stride=2, mode="avg"))
    net.add(ConvOp("C5", "s4", "c5", 120, kernel=5))
    net.add(MatmulOp("F6", "c5", "f6", 120, 84))
    net.add(MatmulOp("OUTPUT", "f6", "logits", 84, 10))
    return net


def resnet18(batch: int = 1, bytes_per_element: int = 1) -> Network:
    """ResNet-18 (224x224) **with real residual edges**.

    Each basic block's skip connection is an :class:`EltwiseOp` whose
    second arm is either the block input (identity shortcut) or the
    1x1 projection (downsampling blocks) — edges the lowered layer
    list does not carry.
    """
    net = Network("resnet18", batch=batch)
    net.add_input("image", 3, 224, 224, bytes_per_element)
    net.add(ConvOp("CONV1", "image", "c1", 64, kernel=7, stride=2,
                   padding=3))
    net.add(PoolOp("POOL1", "c1", "p1", kernel=3, stride=2, padding=1))
    stages = [
        # (name, channels, first_stride)
        ("LAYER1", 64, 1),
        ("LAYER2", 128, 2),
        ("LAYER3", 256, 2),
        ("LAYER4", 512, 2),
    ]
    previous = "p1"
    in_channels = 64
    for name, channels, first_stride in stages:
        for block, stride in (("B1", first_stride), ("B2", 1)):
            prefix = f"{name}_{block}"
            net.add(ConvOp(f"{prefix}_CONV1", previous,
                           f"{prefix}_c1", channels, kernel=3,
                           stride=stride, padding=1))
            net.add(ConvOp(f"{prefix}_CONV2", f"{prefix}_c1",
                           f"{prefix}_c2", channels, kernel=3,
                           padding=1))
            if stride != 1 or in_channels != channels:
                net.add(ConvOp(f"{prefix}_PROJ", previous,
                               f"{prefix}_skip", channels, kernel=1,
                               stride=stride))
                skip = f"{prefix}_skip"
            else:
                skip = previous
            net.add(EltwiseOp(f"{prefix}_ADD", f"{prefix}_c2", skip,
                              f"{prefix}_out"))
            previous = f"{prefix}_out"
            in_channels = channels
    net.add(PoolOp("GAP", previous, "pooled", kernel=7, mode="avg"))
    net.add(MatmulOp("FC", "pooled", "logits", 512, 1000))
    return net


def mobilenet_v1(batch: int = 1, bytes_per_element: int = 1) -> Network:
    """MobileNetV1 (224x224, width 1.0): depthwise separable chain."""
    net = Network("mobilenetv1", batch=batch)
    net.add_input("image", 3, 224, 224, bytes_per_element)
    net.add(ConvOp("CONV1", "image", "c1", 32, kernel=3, stride=2,
                   padding=1))
    # (out_channels, stride) per separable block
    blocks = [
        (64, 1), (128, 2), (128, 1), (256, 2), (256, 1), (512, 2),
        (512, 1), (512, 1), (512, 1), (512, 1), (512, 1), (1024, 2),
        (1024, 1),
    ]
    previous = "c1"
    for index, (out_channels, stride) in enumerate(blocks, start=1):
        net.add(DepthwiseConvOp(f"DW{index}", previous, f"dw{index}",
                                kernel=3, stride=stride, padding=1))
        net.add(ConvOp(f"PW{index}", f"dw{index}", f"pw{index}",
                       out_channels, kernel=1))
        previous = f"pw{index}"
    net.add(PoolOp("GAP", previous, "pooled", kernel=7, mode="avg"))
    net.add(MatmulOp("FC", "pooled", "logits", 1024, 1000))
    return net


def mobilenet_v2(batch: int = 1, bytes_per_element: int = 1) -> Network:
    """MobileNetV2 (Sandler et al., 224x224, width 1.0).

    Inverted residual bottlenecks: 1x1 expansion, 3x3 depthwise, 1x1
    linear projection, with identity skip edges on the stride-1
    blocks whose input and output widths match.
    """
    net = Network("mobilenetv2", batch=batch)
    net.add_input("image", 3, 224, 224, bytes_per_element)
    net.add(ConvOp("CONV1", "image", "c1", 32, kernel=3, stride=2,
                   padding=1))
    # (expansion t, out_channels c, repeats n, first stride s)
    settings = [
        (1, 16, 1, 1), (6, 24, 2, 2), (6, 32, 3, 2), (6, 64, 4, 2),
        (6, 96, 3, 1), (6, 160, 3, 2), (6, 320, 1, 1),
    ]
    previous = "c1"
    in_channels = 32
    index = 0
    for expansion, out_channels, repeats, first_stride in settings:
        for repeat in range(repeats):
            index += 1
            stride = first_stride if repeat == 0 else 1
            prefix = f"B{index}"
            block_in = previous
            hidden = in_channels * expansion
            if expansion != 1:
                net.add(ConvOp(f"{prefix}_EXPAND", block_in,
                               f"{prefix}_exp", hidden, kernel=1))
                previous = f"{prefix}_exp"
            else:
                previous = block_in
            net.add(DepthwiseConvOp(f"{prefix}_DW", previous,
                                    f"{prefix}_dw", kernel=3,
                                    stride=stride, padding=1))
            net.add(ConvOp(f"{prefix}_PROJECT", f"{prefix}_dw",
                           f"{prefix}_proj", out_channels, kernel=1))
            previous = f"{prefix}_proj"
            if stride == 1 and in_channels == out_channels:
                net.add(EltwiseOp(f"{prefix}_ADD", f"{prefix}_proj",
                                  block_in, f"{prefix}_out"))
                previous = f"{prefix}_out"
            in_channels = out_channels
    net.add(ConvOp("CONV_LAST", previous, "c_last", 1280, kernel=1))
    net.add(PoolOp("GAP", "c_last", "pooled", kernel=7, mode="avg"))
    net.add(MatmulOp("FC", "pooled", "logits", 1280, 1000))
    return net


def bert_encoder(
    batch: int = 1,
    bytes_per_element: int = 1,
    seq_len: int = 128,
    hidden: int = 768,
    heads: int = 12,
    ffn_hidden: int = 3072,
) -> Network:
    """One BERT-style transformer encoder block (BERT-base defaults).

    All eight matmuls lower through :class:`MatmulOp` to the paper's
    loop nest with ``B = batch x seq_len``:

    * Q/K/V projections and the output projection
      (``hidden -> hidden``),
    * the attention score product ``Q @ K^T`` and the context product
      ``scores @ V`` — grouped matmuls with ``groups = heads`` whose
      weight operands are the K / V **activation** tensors (kept as
      graph edges via ``weight_input``),
    * the two feed-forward matmuls (``hidden -> ffn_hidden ->
      hidden``).

    The residual adds around attention and the FFN are traffic-only
    :class:`EltwiseOp` nodes; layer norms and softmax move no weight
    data and are folded away, as the paper does with pooling.
    """
    if hidden % heads:
        raise ValueError(
            f"hidden ({hidden}) must divide into heads ({heads})")
    net = Network("bert-encoder", batch=batch)
    net.add_input("tokens", hidden, 1, seq_len, bytes_per_element)
    kwargs = {"in_features": hidden, "out_features": hidden,
              "tokens": seq_len}
    net.add(MatmulOp("Q_PROJ", "tokens", "q", **kwargs))
    net.add(MatmulOp("K_PROJ", "tokens", "k", **kwargs))
    net.add(MatmulOp("V_PROJ", "tokens", "v", **kwargs))
    net.add(MatmulOp(
        "ATTN_SCORES", "q", "scores",
        in_features=hidden, out_features=heads * seq_len,
        tokens=seq_len, groups=heads, weight_input="k"))
    net.add(MatmulOp(
        "ATTN_CONTEXT", "scores", "context",
        in_features=heads * seq_len, out_features=hidden,
        tokens=seq_len, groups=heads, weight_input="v"))
    net.add(MatmulOp("ATTN_OUT", "context", "attn", **kwargs))
    net.add(EltwiseOp("ATTN_ADD", "attn", "tokens", "attn_res"))
    net.add(MatmulOp("FFN1", "attn_res", "ffn1",
                     in_features=hidden, out_features=ffn_hidden,
                     tokens=seq_len))
    net.add(MatmulOp("FFN2", "ffn1", "ffn2",
                     in_features=ffn_hidden, out_features=hidden,
                     tokens=seq_len))
    net.add(EltwiseOp("FFN_ADD", "ffn2", "attn_res", "encoded"))
    return net


def tiny(batch: int = 1, bytes_per_element: int = 1) -> Network:
    """A two-layer network small enough for trace-level simulation."""
    net = Network("tiny", batch=batch)
    net.add_input("image", 4, 8, 8, bytes_per_element)
    net.add(ConvOp("TINY_CONV", "image", "c1", 8, kernel=3, padding=1))
    net.add(MatmulOp("TINY_FC", "c1", "logits", 8 * 8 * 8, 16))
    return net
