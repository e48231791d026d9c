"""Axial self-attention: multi-head 1-D attention along one spatial axis,
composed height-then-width.

Per head, query position o attends over the L positions of one axis with

    logits(o, p) = q_o . k_p + q_o . rq[p-o] + k_p . rk[p-o]
    out_o        = sum_p softmax(logits)(o, p) * (v_p + rv[p-o])

where rq/rk/rv are learned relative-position embeddings shared across heads.
Head outputs are concatenated and passed through an output projection, so the
channel count is preserved.

The attention core is one autodiff op, ``autodiff.axial_attention``, so the
layer records five tape nodes: the q, k and v projection matmuls, the op and
the output matmul.  The op splits the heads itself and derives the position
index from L, so the layer stores none.  Inside the op the content terms q.k
and weights.v are GEMMs batched over (batch, head), and the relative terms
are GEMMs batched over one sequence position, because the gathered table
rq/rk/rv[o, p] differs per position while the B*heads rows that use it
share it.  Their results are added into the [B*heads, L, L] logits and the
output in place through strided views; no [B, h, L, L, dim] broadcast is
ever formed, and the op's backward is written by hand.

Heads are half width: the per-head dim is C // (2*heads), floored at one
channel.  Together with the output projection this prices one 1-D layer at
2*C^2 projection weights, which is what reproduces the published model sizes
(a full C/heads per-head dim overshoots them by ~40%).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigurationError
from .nn import Module, Parameter


def head_dim(channels: int, heads: int) -> int:
    return max(1, channels // (2 * heads))


class AxialAttention1D(Module):
    """Multi-head self-attention over the last axis of a [B, C, L] tensor."""

    def __init__(self, channels: int, span: int, heads: int = 8,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if channels % heads:
            raise ConfigurationError(
                f"channels ({channels}) must be divisible by heads ({heads})")
        if span < 1:
            raise ConfigurationError("span must be positive")
        rng = rng or np.random.default_rng(0)
        self.channels = channels
        self.span = span
        self.heads = heads
        self.dim = head_dim(channels, heads)
        inner = heads * self.dim

        def proj(rows, cols):
            std = np.sqrt(1.0 / cols)
            return Parameter(rng.normal(0.0, std, size=(rows, cols)).astype(np.float32))

        self.w_q = proj(inner, channels)
        self.w_k = proj(inner, channels)
        self.w_v = proj(inner, channels)
        self.w_out = proj(channels, inner)
        emb_std = 1.0 / np.sqrt(self.dim)
        for name in ("r_q", "r_k", "r_v"):
            setattr(self, name, Parameter(
                rng.normal(0.0, emb_std, size=(2 * span - 1, self.dim)).astype(np.float32),
                kind="embedding"))

    def forward(self, x: Tensor) -> Tensor:
        _, channels, span = x.shape
        if channels != self.channels or span != self.span:
            raise ConfigurationError(
                f"layer configured for [{self.channels}, {self.span}], "
                f"got input [{channels}, {span}]")
        q, k, v = (ad.matmul(w, x) for w in (self.w_q, self.w_k, self.w_v))
        out = ad.axial_attention(q, k, v, self.r_q, self.r_k, self.r_v, self.heads)
        return ad.matmul(self.w_out, out)


class AxialPairModule(Module):
    """Height-axis attention followed by width-axis attention.

    Applies the height layer over all N*W columns and the width layer over
    all N*H rows; with ``stride=2`` a 2x2 average pool follows, halving the
    spatial dims.
    """

    def __init__(self, channels: int, height: int, width: int, heads: int = 8,
                 stride: int = 1, rng: np.random.Generator | None = None):
        super().__init__()
        if stride not in (1, 2):
            raise ConfigurationError("stride must be 1 or 2")
        rng = rng or np.random.default_rng(0)
        self.height = height
        self.width = width
        self.stride = stride
        self.height_attention = AxialAttention1D(channels, height, heads, rng)
        self.width_attention = AxialAttention1D(channels, width, heads, rng)

    def forward(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        if (h, w) != (self.height, self.width):
            raise ConfigurationError(
                f"module configured for {self.height}x{self.width}, got {h}x{w}")
        # attend along H for every (image, column)
        cols = ad.reshape(ad.transpose(x, (0, 3, 1, 2)), (n * w, c, h))
        cols = self.height_attention(cols)
        # attend along W for every (image, row): [n, w, c, h] -> [n, h, c, w]
        rows = ad.transpose(ad.reshape(cols, (n, w, c, h)), (0, 3, 2, 1))
        rows = ad.reshape(rows, (n * h, c, w))
        rows = self.width_attention(rows)
        x = ad.transpose(ad.reshape(rows, (n, h, c, w)), (0, 2, 1, 3))
        if self.stride == 2:
            x = ad.avg_pool2d_2x2(x)
        return x


def axial_flop_count(height: int, width: int, channels: int, heads: int = 8) -> int:
    """Multiply-accumulate count of one axial pair, excluding projections.

    Each (query, key) pair costs five per-head-dim dot products (q.k, q.rq,
    k.rk, weight*v, weight*rv); the pair visits H*W positions with H keys on
    the height pass and W keys on the width pass, hence H*W*(H+W) pairs.
    """
    if min(height, width, channels, heads) < 1:
        raise ConfigurationError("dimensions must be positive")
    terms_per_pair = 5 * heads * head_dim(channels, heads)
    return terms_per_pair * height * width * (height + width)


def full_attention_flop_count(height: int, width: int, channels: int, heads: int = 8) -> int:
    """MAC count of dense 2-D attention over the same feature map, same terms."""
    if min(height, width, channels, heads) < 1:
        raise ConfigurationError("dimensions must be positive")
    terms_per_pair = 5 * heads * head_dim(channels, heads)
    return terms_per_pair * (height * width) ** 2
