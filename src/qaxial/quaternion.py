"""Quaternion algebra and quaternion convolution layers.

A quaternion is kept as the 4-tuple (r, i, j, k).  Channel layout convention
throughout the package: channels [4g, 4g+1, 4g+2, 4g+3] of a feature map are
the (r, i, j, k) components of quaternion group ``g``.

The left Hamilton product w * q is a linear map of q whose 4x4 matrix reuses
the four components of w in a fixed sign pattern, the sign table
``_EXPANSION``, so a quaternion convolution is exactly a real convolution
with a structured weight tensor: each (output-group, input-group) block of
the expanded weight holds only four independent values.
:class:`QuaternionConv2d` is therefore a :class:`~qaxial.nn.Conv2d` whose
sign table is ``_EXPANSION``, and :func:`~qaxial.autodiff.conv2d` runs its
GEMM against whichever side makes the smaller 4x copy: with ``N*Ho*Wo``
output pixels and ``q_out`` output quaternions it spreads the weight into
that real weight when ``N*Ho*Wo >= q_out``, and otherwise applies the signs
to the im2col columns of its input.  Either way the output and the weight
gradient come out of one GEMM each.  Each layer stores its kernel as one
``weight`` with the four components stacked on axis 1: [q_out, 4, q_in, kh,
kw] for the conv, [channels/4, 4] for the bank.  The spread conv weight,
``expanded_weight`` and :class:`QuaternionBank1x1`'s 4x4 matrices are built
by :func:`~qaxial.autodiff.signed_blocks` from the same table; each shared
component's gradient is the signed sum of the gradients over its four
placements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigurationError, ShapeError
from .nn import Conv2d, Module, Parameter, _ZeroDraws


@dataclass(frozen=True)
class Quaternion:
    r: float
    i: float
    j: float
    k: float

    def as_array(self) -> np.ndarray:
        return np.array([self.r, self.i, self.j, self.k], dtype=np.float64)


IDENTITY = Quaternion(1.0, 0.0, 0.0, 0.0)


def hamilton_product(p: Quaternion, q: Quaternion) -> Quaternion:
    return Quaternion(
        p.r * q.r - p.i * q.i - p.j * q.j - p.k * q.k,
        p.r * q.i + p.i * q.r + p.j * q.k - p.k * q.j,
        p.r * q.j - p.i * q.k + p.j * q.r + p.k * q.i,
        p.r * q.k + p.i * q.j - p.j * q.i + p.k * q.r,
    )


# (component index, sign) of entry (a, b) of the 4x4 left-multiplication
# matrix of w = (r, i, j, k); the only copy of the Hamilton sign pattern.
_EXPANSION = (
    ((0, 1.0), (1, -1.0), (2, -1.0), (3, -1.0)),
    ((1, 1.0), (0, 1.0), (3, -1.0), (2, 1.0)),
    ((2, 1.0), (3, 1.0), (0, 1.0), (1, -1.0)),
    ((3, 1.0), (2, -1.0), (1, 1.0), (0, 1.0)),
)


def hamilton_matrix(w: Quaternion) -> np.ndarray:
    """4x4 matrix M with M @ vec(q) == vec(w * q)."""
    comps = w.as_array()
    return np.array([[sign * comps[c] for c, sign in row] for row in _EXPANSION])


def quaternion_init(q_in: int, q_out: int, kh: int, kw: int,
                    seed: int | np.random.Generator = 0) -> np.ndarray:
    """Draw quaternion kernels as [4, q_out, q_in, kh, kw] real components.

    Each quaternion is magnitude * (cos t, sin t * u) with u a uniform unit
    3-vector, t uniform in [-pi, pi] and the magnitude Rayleigh-distributed,
    scaled so the pooled variance of the expanded real weights equals
    2 / (fan_in + fan_out) with fans counted in real channels.
    """
    if min(q_in, q_out, kh, kw) < 1:
        raise ConfigurationError("quaternion_init needs positive dimensions")
    if isinstance(seed, _ZeroDraws):  # zero draws have no direction to normalise
        return np.zeros((4, q_out, q_in, kh, kw))
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = q_out * q_in * kh * kw
    fan_in = 4 * q_in * kh * kw
    fan_out = 4 * q_out * kh * kw
    # pooled variance of expanded entries is E[s^2]/4; Rayleigh has E[s^2]=2*sigma^2
    sigma = math.sqrt(4.0 / (fan_in + fan_out))
    s = rng.rayleigh(scale=sigma, size=n)
    theta = rng.uniform(-math.pi, math.pi, size=n)
    u = rng.normal(size=(n, 3)).T
    norm = u[0] * u[0]
    norm += u[1] * u[1]
    norm += u[2] * u[2]
    np.sqrt(norm, out=norm)
    comp = np.empty((4, n), dtype=np.float64)
    np.cos(theta, out=comp[0])
    comp[0] *= s
    np.sin(theta, out=theta)
    theta *= s
    comp[1:] = u
    comp[1:] /= norm
    comp[1:] *= theta
    return comp.reshape(4, q_out, q_in, kh, kw)


class QuaternionConv2d(Conv2d):
    """Full quaternion 2-D convolution: q_out x q_in quaternion kernels.

    A :class:`~qaxial.nn.Conv2d` whose ``weight`` is [q_out, 4, q_in, kh, kw]
    and whose sign table is ``_EXPANSION``.  Input/output channel counts are
    4*q_in and 4*q_out, and the trainable real parameter count is exactly
    4 * q_out * q_in * kh * kw (no bias).
    """

    table = _EXPANSION

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0,
                 rng: np.random.Generator | None = None):
        if in_channels % 4 or out_channels % 4:
            raise ConfigurationError(
                f"quaternion conv needs channel counts divisible by 4, got "
                f"{in_channels}->{out_channels}")
        super().__init__(in_channels, out_channels, kernel_size, stride, padding, rng)
        self.q_in, self.q_out = in_channels // 4, out_channels // 4

    def initial_weight(self, rng) -> np.ndarray:
        k = self.kernel_size
        comps = quaternion_init(self.in_channels // 4, self.out_channels // 4, k, k, rng)
        return np.moveaxis(comps, 0, 1).astype(np.float32, order="C")

    def expanded_weight(self) -> Tensor:
        """[4*q_out, 4*q_in, kh, kw] real weight built from the four components.

        The forward does not call it: :func:`~qaxial.autodiff.conv2d` spreads
        ``weight`` itself when that is the smaller 4x copy.  The layer equals
        the real convolution with this weight, so it serves to check one
        against the other.
        """
        blocks = ad.signed_blocks(self.weight, _EXPANSION, axes=(1, 3))
        return ad.reshape(blocks, (self.out_channels, self.in_channels,
                                   self.kernel_size, self.kernel_size))


class QuaternionBank1x1(Module):
    """Block-diagonal bank of 1x1 quaternion convolutions.

    Channels are split into m/4 groups of four; one quaternion weight is
    applied pixel-wise to each group, so groups never mix and the layer
    holds exactly m trainable reals, as ``weight`` [m/4, 4].
    """

    def __init__(self, channels: int, rng: np.random.Generator | None = None):
        super().__init__()
        if channels % 4:
            raise ConfigurationError(
                f"quaternion bank needs a channel count divisible by 4, got {channels}")
        self.channels = channels
        self.groups = channels // 4
        rng = rng or np.random.default_rng(0)
        # one independent 4->4 module per group, so each draw uses fan 4+4
        self.weight = Parameter(np.stack(
            [quaternion_init(1, 1, 1, 1, rng).reshape(4) for _ in range(self.groups)]
        ).astype(np.float32))

    def group_matrices(self) -> Tensor:
        """Differentiable [groups, 4, 4] stack of Hamilton matrices."""
        return ad.signed_blocks(self.weight, _EXPANSION, axes=(1, 2))

    def forward(self, x):
        n, c, h, w = x.shape
        if c != self.channels:
            raise ShapeError(f"bank expects {self.channels} channels, got {c}")
        grouped = ad.reshape(x, (n, self.groups, 4, h * w))
        mixed = ad.matmul(self.group_matrices(), grouped)  # broadcast over batch
        return ad.reshape(mixed, (n, c, h, w))


def expand_to_quaternion_input(rgb: Tensor) -> Tensor:
    """[N,3,H,W] RGB -> [N,4,H,W] with a zero real part and (R,G,B) as (i,j,k)."""
    if rgb.ndim != 4 or rgb.shape[1] != 3:
        raise ShapeError(f"expected [N,3,H,W] input, got {rgb.shape}")
    n, _, h, w = rgb.shape
    zeros = Tensor(np.zeros((n, 1, h, w), dtype=rgb.dtype))
    return ad.concat([zeros, rgb], axis=1)
