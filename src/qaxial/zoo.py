"""Model zoo: the four bottleneck-residual families and their builder.

Four variants share one skeleton (stem -> four bottleneck groups -> global
average pool -> classifier):

  resnet       3x3 conv stem (64), conv bottlenecks, group mids 64..512, out = 4*mid
  quat_resnet  3x3 quaternion stem (128) on 4-channel input, quaternion
               bottlenecks, mids 128..1024, out = 4*mid
  axial        7x7 conv stem (64*s), bottlenecks with a height+width axial
               attention pair in the middle, mids (128..1024)*s, out = 2*mid
  quat_axial   axial plus a grouped 1x1 quaternion bank feeding each
               attention pair (adds exactly `mid` reals per block)

Groups 2-4 downsample: conv variants stride the 3x3 conv of their first
block, axial variants average-pool after the width attention.  Attention
spans follow the actual incoming feature-map size.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from . import autodiff as ad
from . import fields, nn
from .axial import AxialPairModule
from .errors import ConfigurationError, ShapeError
from .nn import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool,
    Linear,
    MaxPool2d,
    Module,
    ModuleList,
    ReLU,
    _ZeroDraws,
)
from .quaternion import QuaternionBank1x1, QuaternionConv2d, expand_to_quaternion_input

VARIANTS = ("resnet", "quat_resnet", "axial", "quat_axial")
DEPTH_MULTIPLIERS = {26: (1, 2, 4, 1), 35: (2, 3, 4, 2), 50: (3, 4, 6, 3)}

_CONV_MIDS = (64, 128, 256, 512)
_QUAT_MIDS = (128, 256, 512, 1024)
_AXIAL_MID_BASE = (128, 256, 512, 1024)
# the widest channel count or class count a spec may ask for: 4x quat_resnet's
# widest layer (4096), and far below numpy's dimension and memory limits
MAX_CHANNELS = 2 ** 14


@dataclass
class ArchitectureSpec:
    variant: str
    block_multipliers: tuple = (1, 2, 4, 1)
    width_scale: float | None = None  # resolved per variant when None
    num_classes: int = 1000
    input_size: tuple = (3, 224, 224)
    heads: int = 8

    def __post_init__(self):
        self.block_multipliers = tuple(int(m) for m in self.block_multipliers)
        self.input_size = tuple(int(v) for v in self.input_size)
        if self.width_scale is None:
            self.width_scale = 0.5 if self.is_axial else 1.0
        self.width_scale = float(self.width_scale)
        self.validate()

    @property
    def is_axial(self) -> bool:
        return self.variant in ("axial", "quat_axial")

    @property
    def is_quaternion(self) -> bool:
        return self.variant in ("quat_resnet", "quat_axial")

    def stem_channels(self) -> int:
        if self.variant == "resnet":
            return 64
        if self.variant == "quat_resnet":
            return 128
        return int(64 * self.width_scale)

    def group_plan(self):
        """Per group: (mid channels, out channels)."""
        if self.variant == "resnet":
            return [(m, 4 * m) for m in _CONV_MIDS]
        if self.variant == "quat_resnet":
            return [(m, 4 * m) for m in _QUAT_MIDS]
        mids = [int(b * self.width_scale) for b in _AXIAL_MID_BASE]
        return [(m, 2 * m) for m in mids]

    def stem_spatial(self):
        """Feature-map size after stem conv + max pool."""
        _, h, w = self.input_size
        k, pad = (7, 3) if self.is_axial else (3, 1)
        h, w = (h + 2 * pad - k) // 2 + 1, (w + 2 * pad - k) // 2 + 1
        return -((h - 3) // -2) + 1, -((w - 3) // -2) + 1

    def validate(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {self.variant!r}")
        if len(self.block_multipliers) != 4 or min(self.block_multipliers) < 1:
            raise ConfigurationError(
                f"'multipliers' must be 4 integers >= 1, got {self.block_multipliers}")
        if not 2 <= self.num_classes <= MAX_CHANNELS:
            raise ConfigurationError(
                f"'num_classes' must be in [2, {MAX_CHANNELS}], got {self.num_classes}")
        if len(self.input_size) != 3 or self.input_size[0] != 3 \
                or min(self.input_size) < 1:
            raise ConfigurationError(
                f"'input_size' must be (3, H, W) with H, W >= 1, got {self.input_size}")
        if self.heads < 1:
            raise ConfigurationError(f"'heads' must be >= 1, got {self.heads}")
        widest = 2 * self.width_scale * max(_AXIAL_MID_BASE)  # axial group 4's out
        if not 0 < widest <= MAX_CHANNELS:
            raise ConfigurationError(f"'width_scale' must be > 0 and give at most "
                                     f"{MAX_CHANNELS} channels, got {self.width_scale}")
        if not self.is_axial and (self.width_scale, self.heads) != (1.0, 8):
            key = "width_scale" if self.width_scale != 1.0 else "heads"
            raise ConfigurationError(f"'{key}' has no effect on {self.variant}: "
                                     "width_scale must be 1 and heads 8")
        plan = self.group_plan()
        if min(m for m, _ in plan) < 1:
            raise ConfigurationError(f"width_scale {self.width_scale} collapses a group")
        if self.is_quaternion:
            widths = [self.stem_channels()] + [c for pair in plan for c in pair]
            bad = [c for c in widths if c % 4]
            if bad:
                raise ConfigurationError(
                    f"quaternion channel counts must be divisible by 4, got {bad}")
        if self.is_axial:
            bad = [m for m, _ in plan if m % self.heads]
            if bad:
                raise ConfigurationError(
                    f"attention widths {bad} not divisible by heads={self.heads}")
            if self.input_size[1] != self.input_size[2]:
                raise ConfigurationError("axial variants need square input")
            h, w = self.stem_spatial()
            if h % 8 or w % 8:
                raise ConfigurationError(
                    f"axial variants need the post-stem map ({h}x{w}) divisible by 8")


def spec_for(variant: str, depth: int, **overrides) -> ArchitectureSpec:
    if depth not in DEPTH_MULTIPLIERS:
        raise ConfigurationError(
            f"unknown depth {depth}; choose from {sorted(DEPTH_MULTIPLIERS)}")
    return ArchitectureSpec(variant, DEPTH_MULTIPLIERS[depth], **overrides)


SPEC_CASTS = {  # in ArchitectureSpec field order
    "variant": str,
    "multipliers": lambda v: tuple(int(m) for m in v.split(",")),
    "width_scale": float,
    "num_classes": int,
    "input_size": lambda v: tuple(int(d) for d in v.split("x")),
    "heads": int,
}


def spec_to_text(spec: ArchitectureSpec) -> str:
    values = dict(zip(SPEC_CASTS, astuple(spec)))
    values["multipliers"] = ",".join(map(str, spec.block_multipliers))
    values["input_size"] = "x".join(map(str, spec.input_size))
    return fields.write(values)


def spec_from_fields(values: dict) -> ArchitectureSpec:
    """The spec named by the :data:`SPEC_CASTS` keys of ``values``."""
    return ArchitectureSpec(*(values[key] for key in SPEC_CASTS))


def spec_from_text(text: str) -> ArchitectureSpec:
    return spec_from_fields(fields.read(text, SPEC_CASTS, {}))


class ConvBottleneck(Module):
    """1x1 reduce -> 3x3 (strided) -> 1x1 expand with a residual add."""

    def __init__(self, cin, mid, cout, stride, rng, conv_cls=Conv2d):
        super().__init__()
        self.conv_reduce = conv_cls(cin, mid, 1, rng=rng)
        self.bn_reduce = BatchNorm2d(mid)
        self.conv_spatial = conv_cls(mid, mid, 3, stride=stride, padding=1, rng=rng)
        self.bn_spatial = BatchNorm2d(mid)
        self.conv_expand = conv_cls(mid, cout, 1, rng=rng)
        self.bn_expand = BatchNorm2d(cout)
        self.relu = ReLU()
        if cin != cout or stride != 1:
            self.shortcut_conv = conv_cls(cin, cout, 1, stride=stride, rng=rng)
            self.shortcut_bn = BatchNorm2d(cout)
        else:
            self.shortcut_conv = None

    def forward(self, x):
        out = self.relu(self.bn_reduce(self.conv_reduce(x)))
        out = self.relu(self.bn_spatial(self.conv_spatial(out)))
        out = self.bn_expand(self.conv_expand(out))
        identity = x if self.shortcut_conv is None \
            else self.shortcut_bn(self.shortcut_conv(x))
        return self.relu(out + identity)


class AxialBottleneck(Module):
    """1x1 reduce -> [quaternion bank] -> axial pair -> 1x1 expand."""

    def __init__(self, cin, mid, cout, span, downsample, heads, quat_bank, rng):
        super().__init__()
        self.conv_reduce = Conv2d(cin, mid, 1, rng=rng)
        self.bn_reduce = BatchNorm2d(mid)
        self.bank = QuaternionBank1x1(mid, rng=rng) if quat_bank else None
        self.attention = AxialPairModule(mid, span, span, heads=heads,
                                         stride=2 if downsample else 1, rng=rng)
        self.bn_attention = BatchNorm2d(mid)
        self.conv_expand = Conv2d(mid, cout, 1, rng=rng)
        self.bn_expand = BatchNorm2d(cout)
        self.relu = ReLU()
        if cin != cout or downsample:
            self.shortcut_conv = Conv2d(cin, cout, 1, stride=2 if downsample else 1, rng=rng)
            self.shortcut_bn = BatchNorm2d(cout)
        else:
            self.shortcut_conv = None

    def forward(self, x):
        out = self.relu(self.bn_reduce(self.conv_reduce(x)))
        if self.bank is not None:
            out = self.bank(out)
        out = self.relu(self.bn_attention(self.attention(out)))
        out = self.bn_expand(self.conv_expand(out))
        identity = x if self.shortcut_conv is None \
            else self.shortcut_bn(self.shortcut_conv(x))
        return self.relu(out + identity)


class Model(Module):
    """A built architecture: ordered layers plus its spec metadata.

    ``seed=None`` allocates every array as zeros and draws nothing, for a
    caller that overwrites all values next (``checkpoint_load``) or reads
    only shapes (``qaxial count-params``).
    """

    def __init__(self, spec: ArchitectureSpec, seed: int | None = 0):
        super().__init__()
        if seed is not None and seed < 0:
            raise ConfigurationError(f"'seed' must be >= 0, got {seed}")
        self.spec = spec
        rng = _ZeroDraws() if seed is None else np.random.default_rng(seed)
        stem_out = spec.stem_channels()

        if spec.variant == "resnet":
            self.stem_conv = Conv2d(3, stem_out, 3, stride=2, padding=1, rng=rng)
        elif spec.variant == "quat_resnet":
            self.stem_conv = QuaternionConv2d(4, stem_out, 3, stride=2, padding=1, rng=rng)
        else:
            self.stem_conv = Conv2d(3, stem_out, 7, stride=2, padding=3, rng=rng)
        self.stem_bn = BatchNorm2d(stem_out)
        self.stem_pool = MaxPool2d(3, 2)
        self.relu = ReLU()

        span = spec.stem_spatial()[0]
        conv_cls = QuaternionConv2d if spec.variant == "quat_resnet" else Conv2d
        self.groups = ModuleList()
        cin = stem_out
        for g, (mult, (mid, cout)) in enumerate(zip(spec.block_multipliers,
                                                    spec.group_plan())):
            group = ModuleList()
            for b in range(mult):
                downsample = g > 0 and b == 0
                if spec.is_axial:
                    block = AxialBottleneck(cin, mid, cout, span, downsample,
                                            spec.heads, spec.variant == "quat_axial", rng)
                else:
                    block = ConvBottleneck(cin, mid, cout, 2 if downsample else 1,
                                           rng, conv_cls)
                group.append(block)
                cin = cout
                if downsample:
                    span //= 2
            self.groups.append(group)

        self.pool = GlobalAvgPool()
        self.classifier = Linear(cin, spec.num_classes, rng=rng)

    def forward(self, x):
        expect = self.spec.input_size
        if tuple(x.shape[1:]) != expect:
            raise ShapeError(f"model expects input {expect}, got {tuple(x.shape[1:])}")
        if self.spec.variant == "quat_resnet":
            x = expand_to_quaternion_input(x)
        x = self.relu(self.stem_bn(self.stem_conv(x)))
        x = self.stem_pool(x)
        for group in self.groups:
            for block in group:
                x = block(x)
        return self.classifier(self.pool(x))


def build(spec: ArchitectureSpec, seed: int | None = 0) -> Model:
    return Model(spec, seed=seed)


def count_params(model: Model) -> int:
    """Total trainable reals, each shared quaternion component counted once."""
    return model.param_count()


def count_layers(spec: ArchitectureSpec, include_quaternion: bool = False) -> int:
    """Counted trainable layers: stem + 3 per bottleneck + classifier.

    The two-1D-layer attention pair counts as one layer.  With
    ``include_quaternion`` each quat_axial bank adds one more.
    """
    blocks = sum(spec.block_multipliers)
    per_block = 3
    layers = 1 + per_block * blocks + 1
    if include_quaternion and spec.variant == "quat_axial":
        layers += blocks
    return layers


def summarize(model: Model, batch_size: int = 1):
    """Rows of (layer name, output shape, param count) in execution order."""
    names = {id(mod): name or "model" for name, mod in model.named_modules()}
    x = ad.Tensor(np.zeros((batch_size, *model.spec.input_size), dtype=np.float32))
    was_training = model.training
    model.eval()
    records = nn._trace_sink = []
    try:
        with ad.no_grad():
            model(x)
    finally:
        nn._trace_sink = None
        model.train(was_training)
    return [(names[id(mod)], tuple(out.shape), sum(p.size for p in mod._params.values()))
            for mod, out in records]
