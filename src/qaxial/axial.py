"""Axial self-attention: multi-head 1-D attention along one spatial axis,
composed height-then-width.

Per head, query position o attends over the L positions of one axis with

    logits(o, p) = q_o . k_p + q_o . rq[p-o] + k_p . rk[p-o]
    out_o        = sum_p softmax(logits)(o, p) * (v_p + rv[p-o])

where rq/rk/rv are learned relative-position embeddings shared across heads.
Head outputs are concatenated and passed through an output projection, so the
channel count is preserved.

The content terms q.k and weights.v are GEMMs batched over (batch, head).
The relative terms are GEMMs batched over one sequence position instead,
because the gathered table rq/rk/rv[o, p] differs per position while the
B*heads rows that use it share it (w = softmax(logits)):

    q_o . rq[o, p]    [L_o, B*h, dim] @ [L_o, dim, L_p] -> [L_o, B*h, L_p]
    k_p . rk[o, p]    [L_p, B*h, dim] @ [L_p, dim, L_o] -> [L_p, B*h, L_o]
    w[o, p] rv[o, p]  [L_o, B*h, L_p] @ [L_o, L_p, dim] -> [L_o, B*h, dim]

Transposes move these position-major results into and out of the
[B*h, L_o, L_p] logits; no [B, h, L, L, dim] broadcast is ever formed.

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
                decay=False, kind="embedding"))
        # rel_index[o*L+p] = p - o + L - 1
        pos = np.arange(span)
        self.register_buffer(
            "rel_index", (pos[None, :] - pos[:, None] + span - 1).reshape(-1))

    def _split_heads(self, projected):
        # [B, heads*dim, L] -> [B*heads, L, dim]
        rows = projected.shape[0] * self.heads
        t = ad.reshape(projected, (rows, self.dim, self.span))
        return ad.transpose(t, (0, 2, 1))

    def forward(self, x: Tensor) -> Tensor:
        bsz, channels, span = x.shape
        if channels != self.channels or span != self.span:
            raise ConfigurationError(
                f"layer configured for [{self.channels}, {self.span}], "
                f"got input [{channels}, {span}]")
        q = self._split_heads(ad.matmul(self.w_q, x))
        k = self._split_heads(ad.matmul(self.w_k, x))
        v = self._split_heads(ad.matmul(self.w_v, x))

        logits = ad.matmul(q, ad.transpose(k, (0, 2, 1)))  # [B*h, o, p]
        shape = (span, span, self.dim)  # [o, p, dim]
        rq = ad.reshape(ad.take_rows(self.r_q, self.rel_index), shape)
        rk = ad.reshape(ad.take_rows(self.r_k, self.rel_index), shape)
        rv = ad.reshape(ad.take_rows(self.r_v, self.rel_index), shape)
        # q_o . rq[o, p]: [o, B*h, dim] @ [o, dim, p] -> [o, B*h, p]
        qr = ad.matmul(ad.transpose(q, (1, 0, 2)), ad.transpose(rq, (0, 2, 1)))
        # k_p . rk[o, p]: [p, B*h, dim] @ [p, dim, o] -> [p, B*h, o]
        kr = ad.matmul(ad.transpose(k, (1, 0, 2)), ad.transpose(rk, (1, 2, 0)))
        logits = logits + ad.transpose(qr, (1, 0, 2)) + ad.transpose(kr, (1, 2, 0))

        weights = ad.softmax(logits, axis=-1)
        out = ad.matmul(weights, v)  # [B*h, o, dim]
        # w[o] @ rv[o]: [o, B*h, p] @ [o, p, dim] -> [o, B*h, dim]
        wr = ad.matmul(ad.transpose(weights, (1, 0, 2)), rv)
        out = out + ad.transpose(wr, (1, 0, 2))
        merged = ad.reshape(ad.transpose(out, (0, 2, 1)),
                            (bsz, self.heads * self.dim, span))
        return ad.matmul(self.w_out, merged)


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
        x = ad.transpose(ad.reshape(cols, (n, w, c, h)), (0, 2, 3, 1))
        # attend along W for every (image, row)
        rows = ad.reshape(ad.transpose(x, (0, 2, 1, 3)), (n * h, c, w))
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
