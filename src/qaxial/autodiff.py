"""Dense-tensor engine with reverse-mode automatic differentiation.

The computation graph is a tape linked through the tensors themselves: each
op result keeps its parent tensors and a closure that routes the incoming
gradient to them.  Calling :func:`backward` on a scalar walks that tape once
in reverse topological order and then consumes it; a second backward through
the same tape raises :class:`~qaxial.errors.GraphStateError`.

Two dtypes are supported everywhere: float32 for training, float64 for
finite-difference gradient checking (float32 central differences are too
noisy to be a usable oracle).

Results are bitwise deterministic at a fixed BLAS thread count: every
reduction either runs in numpy's fixed axis order or is delegated to one
matmul call, so summation order never depends on scheduling.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import (
    ContractError,
    DegenerateBatchError,
    GraphStateError,
    LabelError,
    NumericsError,
    OracleError,
    ShapeError,
)

SUPPORTED_DTYPES = (np.float32, np.float64)

_grad_enabled = True
_nan_checks = False


def set_debug_nan_checks(enabled: bool) -> None:
    """Enable/disable NaN/Inf scanning after every forward op (debug builds)."""
    global _nan_checks
    _nan_checks = bool(enabled)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables tape recording (pure inference)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_dtype(dtype):
    dt = np.dtype(dtype if dtype is not None else np.float32)
    if dt.type not in SUPPORTED_DTYPES:
        raise ContractError(f"unsupported dtype {dt}; use float32 or float64")
    return dt


class Tensor:
    """N-dimensional array with optional gradient and tape linkage."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "_backward_ran", "_consumed")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if dtype is not None or arr.dtype.type not in SUPPORTED_DTYPES:
            arr = arr.astype(_as_dtype(dtype), copy=False)
        self.data = np.ascontiguousarray(arr)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward_fn = None
        self._backward_ran = False
        self._consumed = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        # rebinds instead of mutating so gradient arrays may be shared
        self.grad = g if self.grad is None else self.grad + g

    # operator sugar -------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)


def _coerce(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        if value.dtype != like.dtype:
            raise ContractError(
                f"dtype mismatch: {value.dtype.name} vs {like.dtype.name}")
        return value
    return Tensor(np.asarray(value, dtype=like.dtype))


def _records(parents) -> bool:
    """Whether an op on ``parents`` records a tape node, so that its
    backward will run and may read what the forward keeps for it."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _result(data: np.ndarray, parents, backward_fn, op: str) -> Tensor:
    if _nan_checks and not np.all(np.isfinite(data)):
        raise NumericsError(f"non-finite values produced by op '{op}'")
    requires = _records(parents)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = requires
    out._backward_ran = False
    out._consumed = False
    if requires:
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    else:
        out._parents = ()
        out._backward_fn = None
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    if g.shape == tuple(shape):
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _result(data, (a, b), backward, "add")


def sub(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.shape))

    return _result(data, (a, b), backward, "sub")


def mul(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _result(data, (a, b), backward, "mul")


def neg(a: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(-g)

    return _result(-a.data, (a,), backward, "neg")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy broadcast semantics over batch dims."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must be at least 2-D")
    b = _coerce(b, a)
    data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.shape))

    return _result(data, (a, b), backward, "matmul")


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)

    def backward(g):
        a._accumulate(g.reshape(a.shape))

    return _result(data, (a,), backward, "reshape")


# bytes of one square tile of a 2-D transpose's copy: 128 x 128 float32
TRANSPOSE_TILE_BYTES = 64 * 1024


def _transposed_copy(a: np.ndarray) -> np.ndarray:
    """``np.ascontiguousarray(a.T)`` of a C-contiguous 2-D array, by tiles.

    A plain copy reads each column of ``a`` down its rows; when a row is a
    multiple of 4 KiB long, as in the [1000, 1024] classifier weight, those
    reads map to the same cache sets and evict one another.  Square tiles of
    TRANSPOSE_TILE_BYTES keep the rows a tile reads in cache.  A copy moves
    the bytes unchanged, so the result is the same either way.
    """
    rows, cols = a.shape
    side = math.isqrt(TRANSPOSE_TILE_BYTES // a.itemsize)
    if rows <= side or cols <= side:  # the strided side fits in cache
        return np.ascontiguousarray(a.T)
    out = np.empty((cols, rows), dtype=a.dtype)
    for i in range(0, rows, side):
        for j in range(0, cols, side):
            out[j:j + side, i:i + side] = a[i:i + side, j:j + side].T
    return out


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    if axes == (1, 0) and a.data.flags.c_contiguous:
        data = _transposed_copy(a.data)
    else:
        data = np.ascontiguousarray(a.data.transpose(axes))

    def backward(g):
        a._accumulate(g.transpose(inverse))

    return _result(data, (a,), backward, "transpose")


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    first = tensors[0]
    tensors = [_coerce(t, first) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t._accumulate(piece)

    return _result(data, tuple(tensors), backward, "concat")


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    first = tensors[0]
    tensors = [_coerce(t, first) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(np.take(g, i, axis=axis))

    return _result(data, tuple(tensors), backward, "stack")


def signed_blocks(t: Tensor, table, axes) -> Tensor:
    """Tile signed components of ``t`` into a grid of blocks.

    Component ``n`` is index ``n`` of ``t`` along axis ``axes[0]``.
    ``table[a][b] = (n, sign)`` puts ``sign`` (+1.0 or -1.0) times component
    ``n`` at block (a, b), whose row and column indices become result axes
    ``axes[0] < axes[1]``.  Backward adds up each component's signed block
    gradients in table order.
    """
    row, col = axes
    shape = list(t.shape)
    shape[row] = len(table)
    shape.insert(col, len(table[0]))
    data = np.empty(shape, dtype=t.dtype)
    lead = (slice(None),) * row
    placements = [[] for _ in range(t.shape[row])]
    for a, cells in enumerate(table):
        for b, (n, sign) in enumerate(cells):
            index = [slice(None)] * len(shape)
            index[row], index[col] = a, b
            placements[n].append((tuple(index), sign))
            np.multiply(t.data[lead + (n,)], sign, out=data[tuple(index)])

    def backward(g):
        gt = np.empty_like(t.data)
        for n, places in enumerate(placements):
            parts = [sign * g[index] for index, sign in places]
            gt[lead + (n,)] = sum(parts[1:], parts[0])
        t._accumulate(gt)

    return _result(data, (t,), backward, "signed_blocks")


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    data = np.ascontiguousarray(a.data[index])

    def backward(g):
        full = np.zeros(a.shape, dtype=g.dtype)
        full[index] = g
        a._accumulate(full)

    return _result(data, (a,), backward, "narrow")


def take_rows(a: Tensor, indices) -> Tensor:
    """Gather rows of a 2-D tensor; backward scatter-adds into the table.

    No model layer records it since ``axial_attention`` gathers its own
    tables; the composed attention reference uses it, and perfbench's
    tracer wraps it by name.
    """
    indices = np.asarray(indices, dtype=np.int64)
    data = a.data[indices]

    def backward(g):
        full = np.zeros(a.shape, dtype=g.dtype)
        np.add.at(full, indices, g)
        a._accumulate(full)

    return _result(data, (a,), backward, "take_rows")


# ---------------------------------------------------------------------------
# nonlinearities and reductions
# ---------------------------------------------------------------------------

def relu(a: Tensor) -> Tensor:
    """``max(a, 0)``; NaN passes, so divergence stays visible.

    ``np.maximum`` returns a NaN operand itself, payload and all, and its
    second operand when the two compare equal, so -0.0 comes out as the
    +0.0 passed second: the bytes of ``np.where(~(a <= 0), a, 0)``.  With the
    operands swapped, -0.0 would pass.  The mask that backward reads is built
    only when the node records.
    """
    data = np.maximum(a.data, a.data.dtype.type(0))
    if _records((a,)):
        mask = a.data <= 0
        np.logical_not(mask, out=mask)

    def backward(g):
        a._accumulate(g * mask)

    return _result(data, (a,), backward, "relu")


def softplus(a: Tensor) -> Tensor:
    data = np.logaddexp(a.data.dtype.type(0), a.data)

    def backward(g):
        a._accumulate(g / (1.0 + np.exp(-a.data)))

    return _result(data, (a,), backward, "softplus")


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        a._accumulate((g - inner) * data)

    return _result(data, (a,), backward, "softmax")


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            a._accumulate(np.full(a.shape, g, dtype=a.dtype))
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape))

    return _result(np.asarray(data), (a,), backward, "sum")


def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.shape[ax] for ax in axes]))
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


# ---------------------------------------------------------------------------
# neural-network ops
# ---------------------------------------------------------------------------

def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x[N,F] @ weight[K,F]^T (+ bias[K]) -> [N,K]."""
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ShapeError(f"linear: got x{x.shape}, weight{weight.shape}")
    out = matmul(x, transpose(weight, (1, 0)))
    if bias is not None:
        out = add(out, bias)
    return out


def _conv_geometry(h, w, kh, kw, stride, padding):
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {hp}x{wp}")
    if stride < 1:
        raise ContractError("stride must be >= 1")
    return (hp - kh) // stride + 1, (wp - kw) // stride + 1


def _im2col(x: np.ndarray, kh, kw, stride, padding):
    n, c, h, w = x.shape
    ho, wo = _conv_geometry(h, w, kh, kw, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, ho, wo, kh, kw),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw), writeable=False)
    # [C*kh*kw, N*Ho*Wo]: rows ordered (c, ky, kx) to match the weight layout,
    # columns (n, ho, wo), so the whole batch is one GEMM operand
    cols = windows.transpose(1, 4, 5, 0, 2, 3).reshape(c * kh * kw, n * ho * wo)
    return cols, ho, wo


def _col2im(cols: np.ndarray, x_shape, kh, kw, stride, padding):
    """Scatter-add [C*kh*kw, N*Ho*Wo] columns back onto an [N, C, H, W] input."""
    n, c, h, w = x_shape
    ho, wo = _conv_geometry(h, w, kh, kw, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    out = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    out_cn = out.transpose(1, 0, 2, 3)
    cols = cols.reshape(c, kh, kw, n, ho, wo)
    for ky in range(kh):
        for kx in range(kw):
            out_cn[:, :, ky:ky + stride * ho:stride, kx:kx + stride * wo:stride] += cols[:, ky, kx]
    if padding:
        out = out[:, :, padding:padding + h, padding:padding + w]
    return out


REAL = (((0, 1.0),),)  # the one-cell sign table of a plain convolution


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0, table=REAL) -> Tensor:
    """2-D cross-correlation over [N, Cin, H, W] with a weight that reuses
    its components in the sign pattern ``table``.

    ``weight`` is [q_out, nc, q_in, kh, kw], component ``c`` on axis 1; a 4-D
    [Cout, Cin, kh, kw] weight has ``nc = 1``.  ``table[a][b] = (c, sign)``
    (sign +1.0 or -1.0) makes output component ``a`` take ``sign`` times
    component ``c`` of input component ``b``; each row uses every component
    once.  Channel ``nb*g + b`` is component ``b`` of group ``g``, and
    ``bias`` has one entry per real output channel ``na*q + a``.  The default,
    :data:`REAL`, makes a plain convolution.

    The batch folds into the im2col columns and the signs act on them, not on
    the weight: block ``(c, a)`` of ``xt [nc*q_in*kh*kw, na*N*Ho*Wo]`` is
    ``sign * cols_b``.  With ``wmat = weight`` as [q_out, nc*q_in*kh*kw] the
    forward, the weight gradient and the input gradient are one GEMM each,
    ``wmat @ xt``, ``gmat @ xt.T`` and ``wmat.T @ gmat``; the last is folded
    back through the signs into ``_col2im``.  Under :data:`REAL` ``xt`` is the
    columns themselves and nothing is folded.

    ``xt`` copies ``nc*q_in*kh*kw`` rows of ``na*N*Ho*Wo``, while the weight
    spread by :func:`signed_blocks`, ``[q_out, na, q_in, nb, kh, kw]``, has
    ``na*q_out`` rows of ``nb*q_in*kh*kw``.  So when ``N*Ho*Wo >= q_out`` the
    op spreads a 5-D weight instead and runs the :data:`REAL` path on it.
    """
    weight = _coerce(weight, x)
    if x.ndim != 4 or weight.ndim not in (4, 5):
        raise ShapeError("conv2d expects 4-D input and a 4-D or 5-D weight")
    na, nb = len(table), len(table[0])
    n, cin, h, w = x.shape
    q_out, nc, q_in, kh, kw = (weight.shape if weight.ndim == 5
                               else (weight.shape[0], 1, *weight.shape[1:]))
    if any(sorted(c for c, _ in row) != list(range(nc)) for row in table):
        raise ContractError("every table row must use each component exactly once")
    if cin != nb * q_in:
        raise ShapeError(f"conv2d: input has {cin} channels, weight expects {nb * q_in}")
    if bias is not None and bias.shape != (q_out * na,):
        raise ShapeError(f"conv2d bias must have shape ({q_out * na},)")
    cols, ho, wo = _im2col(x.data, kh, kw, stride, padding)
    m = n * ho * wo
    if table != REAL and weight.ndim == 5 and m >= q_out:  # no larger than xt
        weight = signed_blocks(weight, table, (1, 3))
        q_out, q_in, nc, na, nb, table = q_out * na, q_in * nb, 1, 1, 1, REAL
    plain = table == REAL
    if plain:
        xt = cols
    else:
        # cols rows are (g, b, ky, kx); xt rows are (c, g, ky, kx), columns (a, m)
        cols_b = cols.reshape(q_in, nb, kh * kw, m)
        xt = np.empty((nc, q_in, kh * kw, na, m), dtype=x.dtype)
        for a, row in enumerate(table):
            for b, (c, sign) in enumerate(row):
                np.multiply(cols_b[:, b], sign, out=xt[c, :, :, a])
        xt = xt.reshape(nc * q_in * kh * kw, na * m)
        del cols, cols_b

    wmat = weight.data.reshape(q_out, nc * q_in * kh * kw)
    out = (wmat @ xt).reshape(q_out, na, n, ho, wo)
    if bias is not None:
        out = out + bias.data.reshape(q_out, na, 1, 1, 1)
    # [q_out, na, N, Ho, Wo] -> [N, q_out*na, Ho, Wo]; no copy at N = 1
    out = np.ascontiguousarray(out.transpose(2, 0, 1, 3, 4)).reshape(n, q_out * na, ho, wo)

    def backward(g):
        gmat = g.reshape(n, q_out, na, ho * wo).transpose(1, 2, 0, 3).reshape(q_out, na * m)
        if weight.requires_grad:
            weight._accumulate((gmat @ xt.T).reshape(weight.shape))
        if x.requires_grad:
            gxt = wmat.T @ gmat
            if not plain:
                gxt = gxt.reshape(nc, q_in, kh * kw, na, m)
                gcols = np.zeros((q_in, nb, kh * kw, m), dtype=g.dtype)
                for a, row in enumerate(table):
                    for b, (c, sign) in enumerate(row):
                        (np.add if sign > 0 else np.subtract)(
                            gcols[:, b], gxt[c, :, :, a], out=gcols[:, b])
                gxt = gcols.reshape(cin * kh * kw, m)
            x._accumulate(_col2im(gxt, x.shape, kh, kw, stride, padding))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _result(out, parents, backward, "conv2d")


# bytes of [rows, L, L] logits that one row block of axial_attention's
# forward works on, so that the block stays in a core's L2 cache
ATTENTION_BLOCK_BYTES = 256 * 1024


def relative_index(span: int) -> np.ndarray:
    """Entry ``o*L + p`` is ``p - o + L - 1``: the table row of query o, key p."""
    pos = np.arange(span)
    return (pos[None, :] - pos[:, None] + span - 1).reshape(-1)


def axial_attention(q: Tensor, k: Tensor, v: Tensor, r_q: Tensor, r_k: Tensor,
                    r_v: Tensor, heads: int) -> Tensor:
    """Multi-head 1-D attention with relative positions, as one tape node.

    ``q``, ``k`` and ``v`` are [B, heads*dim, L] projections, viewed inside
    as [N, dim, L] with N = B * heads; the result is [B, heads*dim, L] too.
    ``r_q``, ``r_k`` and ``r_v`` are [2L-1, dim] tables, gathered through
    ``relative_index(L)``.  With ``rq = r_q[relative_index(L)]`` as
    [L, L, dim] and ``w = softmax(logits)`` over p::

        logits[n, o, p] = (q_o . k_p + q_o . rq[o, p]) + k_p . rk[o, p]
        out[n, :, o]    = w[n, o] @ v^T + w[n, o] @ rv[o]

    The content terms are GEMMs batched over n.  The relative terms are GEMMs
    batched over one position, on position-major [L, N, dim] copies of q and
    k.  The logits and weights are never copied: both relative terms are
    added into them in place through strided views, softmax runs in place,
    and the weights enter their relative-term GEMMs as views.

    The forward runs in blocks of rows of N, sized so that a block's
    [rows, L, L] logits fit ATTENTION_BLOCK_BYTES and stay in cache through
    every step above, from the GEMMs on the block's slices to the two value
    GEMMs into its rows of the output.
    When the node records, the blocks are slices of the [N, L, L] softmax
    output that backward reads, and that is all it keeps: the small copies
    and the gathered tables are rebuilt there.  Otherwise one block buffer
    is reused, so inference never holds the full logits.  The row max comes
    from a transposed copy of the block, [L, rows*L], as a column max:
    numpy reduces short rows one at a time but a column max runs along long
    contiguous rows, and max is exact in any order.  The row sum is numpy's
    own, over the same contiguous rows as unblocked.

    Output and gradients equal those of the same formula composed from
    ``transpose``, ``matmul``, ``take_rows``, ``add`` and ``softmax`` bit for
    bit (``composed_axial_attention`` in the tests).  Every float operation
    runs in the composed order on operands of the composed memory layout,
    and each input gradient is handed over in the composed layout: BLAS
    may round a GEMM differently when an operand comes transposed (OpenBLAS
    0.3.31 does at dim 32) or a gemv (N = 1 or dim = 1) with another
    leading dimension, and numpy runs its own loop for operands BLAS cannot
    take.  The blocks split the relative-term GEMMs by rows.  OpenBLAS
    0.3.31 rounds such a block as it rounds those rows of the whole GEMM
    when the block starts at a multiple of 8 rows and holds more than one
    row (one row would be a gemv), hence the block sizes.  The exception is
    a whole GEMM of dim >= 32 and over about 10^6 multiply-adds
    (N * L * dim), which it runs on other kernels; at 224 px and batch 1
    the largest is 448 * 56 * 8.
    """
    k, v, r_q, r_k, r_v = (_coerce(t, q) for t in (k, v, r_q, r_k, r_v))
    if q.ndim != 3 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(f"axial_attention: q, k and v must share one [B, heads*dim, L] "
                         f"shape, got {q.shape}, {k.shape}, {v.shape}")
    bsz, channels, span = q.shape
    if heads < 1 or channels % heads:
        raise ShapeError(f"axial_attention: {channels} channels are not {heads} heads")
    dim = channels // heads
    split = (bsz * heads, dim, span)
    for name, t in (("r_q", r_q), ("r_k", r_k), ("r_v", r_v)):
        if t.shape != (2 * span - 1, dim):
            raise ShapeError(f"axial_attention: {name} must be "
                             f"[{2 * span - 1}, {dim}], got {list(t.shape)}")
    rel_index = relative_index(span)
    qd, kd, vd = (np.ascontiguousarray(t.data).reshape(split) for t in (q, k, v))

    def copy(a, axes):
        return np.ascontiguousarray(a.transpose(axes))

    def rows(a):  # [N, dim, L] -> [N, L, dim]
        return copy(a, (0, 2, 1))

    def by_position(a):  # [N, dim, L] -> [L, N, dim]
        return copy(a, (2, 0, 1))

    def gathered(table):  # [o, p, dim]
        return table.data[rel_index].reshape(span, span, dim)

    def weights_by_query(w):  # [o, N, p]
        # a copy only where numpy takes gemv (dim 1), which rounds by stride
        return w.transpose(1, 0, 2) if dim > 1 else copy(w, (1, 0, 2))

    # blocks start at multiples of 8 rows; a last block of one row, whose
    # relative-term GEMMs would be gemvs, joins the one before
    n_rows = split[0]
    block = max(8, ATTENTION_BLOCK_BYTES // (span * span * q.dtype.itemsize) // 8 * 8)
    bounds = list(range(0, n_rows, block))
    if len(bounds) > 1 and n_rows - bounds[-1] == 1:
        bounds.pop()
    bounds.append(n_rows)
    largest = max(b - a for a, b in zip(bounds, bounds[1:]))
    records = _records((q, v, k, r_q, r_k, r_v))
    w = np.empty((n_rows if records else largest, span, span), dtype=q.dtype)
    rel = np.empty((span, largest, span), dtype=q.dtype)
    by_key = np.empty((span, largest * span), dtype=q.dtype)
    q_rows, v_rows, q_pos, k_pos = rows(qd), rows(vd), by_position(qd), by_position(kd)
    rq_t, rk_t, rv = copy(gathered(r_q), (0, 2, 1)), copy(gathered(r_k), (1, 2, 0)), gathered(r_v)
    out = np.empty((n_rows, span, dim), dtype=q.dtype)  # [N, o, dim]
    for a, b in zip(bounds, bounds[1:]):
        wb = w[a:b] if records else w[:b - a]  # [n, o, p]
        rb = rel[:, :b - a]
        np.matmul(q_rows[a:b], kd[a:b], out=wb)
        # q_o . rq[o, p]: [o, n, dim] @ [o, dim, p] -> [o, n, p]
        wb += np.matmul(q_pos[:, a:b], rq_t, out=rb).transpose(1, 0, 2)
        # k_p . rk[o, p]: [p, n, dim] @ [p, dim, o] -> [p, n, o]
        wb += np.matmul(k_pos[:, a:b], rk_t, out=rb).transpose(1, 2, 0)
        # the row max as a column max over long contiguous rows; max is exact
        t = by_key[:, :(b - a) * span]
        np.copyto(t, wb.reshape(-1, span).T)
        wb -= t.max(axis=0).reshape(b - a, span, 1)
        np.exp(wb, out=wb)
        wb /= wb.sum(axis=-1, keepdims=True)
        np.matmul(wb, v_rows[a:b], out=out[a:b])
        # w[o] @ rv[o]: [o, n, p] @ [o, p, dim] -> [o, n, dim]
        out[a:b] += np.matmul(weights_by_query(wb), rv).transpose(1, 0, 2)
    data = copy(out, (0, 2, 1)).reshape(q.shape)
    del out

    def scatter(table, g_opd):  # g_opd: gradient of the gathered table, [o, p, dim]
        full = np.zeros(table.shape, dtype=g_opd.dtype)
        np.add.at(full, rel_index, g_opd.reshape(span * span, dim))
        table._accumulate(full)

    def backward(g):
        gout = g.reshape(split).transpose(0, 2, 1)  # [N, o, dim]
        gout_pos = gout.transpose(1, 0, 2)  # [o, N, dim]
        if v.requires_grad:
            gv = np.matmul(w.transpose(0, 2, 1), gout)  # [N, p, dim]
            v._accumulate(gv.transpose(0, 2, 1).reshape(v.shape))
        if r_v.requires_grad:
            scatter(r_v, np.matmul(weights_by_query(w).transpose(0, 2, 1), gout_pos))
        if not (q.requires_grad or k.requires_grad
                or r_q.requires_grad or r_k.requires_grad):
            return
        # softmax backward, in place on the sum of w's two gradients
        gw = np.matmul(gout, rows(vd).transpose(0, 2, 1))
        gw += np.matmul(gout_pos, gathered(r_v).transpose(0, 2, 1)).transpose(1, 0, 2)
        inner = (gw * w).sum(axis=-1, keepdims=True)
        gw -= inner
        gw *= w
        del inner
        gw_pos = gw.transpose(1, 0, 2)  # [o, N, p]
        gwk_pos = gw.transpose(2, 0, 1)  # [p, N, o]
        # q and k gradients are summed out of place, as the tape sums them,
        # so the sum and the transposed view handed over have its layout
        if q.requires_grad:
            rq_t = copy(gathered(r_q), (0, 2, 1))
            gq = (np.matmul(gw, kd.transpose(0, 2, 1))  # [N, o, dim]
                  + np.matmul(gw_pos, rq_t.transpose(0, 2, 1)).transpose(1, 0, 2))
            q._accumulate(gq.transpose(0, 2, 1).reshape(q.shape))
        if r_q.requires_grad:
            grq = np.matmul(by_position(qd).transpose(0, 2, 1), gw_pos)  # [o, dim, p]
            scatter(r_q, grq.transpose(0, 2, 1))
        if k.requires_grad:
            rk_t = copy(gathered(r_k), (1, 2, 0))
            gk = (np.matmul(rows(qd).transpose(0, 2, 1), gw).transpose(0, 2, 1)  # [N, p, dim]
                  + np.matmul(gwk_pos, rk_t.transpose(0, 2, 1)).transpose(1, 0, 2))
            k._accumulate(gk.transpose(0, 2, 1).reshape(k.shape))
        if r_k.requires_grad:
            grk = np.matmul(by_position(kd).transpose(0, 2, 1), gwk_pos)  # [p, dim, o]
            scatter(r_k, grk.transpose(2, 0, 1))

    # parent order fixes the order in which a backward walk adds the q, v
    # and k gradients into their common projection input
    return _result(data, (q, v, k, r_q, r_k, r_v), backward, "axial_attention")


def max_pool2d(x: Tensor, kernel: int, stride: int) -> Tensor:
    """Max pool with ceil-mode output size; boundary windows are clipped.

    Output size is ceil((H-k)/stride)+1, so a 3x3/stride-2 pool halves even
    inputs (112 -> 56) without padding.  As in PyTorch, a last window that
    would start at or past the input's edge is dropped; only stride > k
    can make one.

    The value is a running ``np.maximum`` over the k*k strided tap views of
    the input, padded at the bottom and right with -inf; a tie keeps the
    earlier tap (``np.maximum`` returns its second operand when the two
    compare equal), so the value is that of the first tap equal to the
    window's max, as ``argmax`` picks it.  Only when the node records is
    that tap's index built for backward: the first tap equal to the max, or
    in a window holding a NaN the first NaN.
    """
    if x.ndim != 4:
        raise ShapeError("max_pool2d expects 4-D input")
    n, c, h, w = x.shape
    if min(kernel, stride) < 1:
        raise ContractError(f"pool kernel and stride must be >= 1, got {kernel}, {stride}")
    if kernel > h or kernel > w:
        raise ShapeError(f"pool kernel {kernel} larger than input {h}x{w}")
    # ceil mode, dropping a last window that would start at or past the edge
    ho, wo = (min(-((d - kernel) // -stride), (d - 1) // stride) + 1 for d in (h, w))
    # pad bottom/right with -inf so clipped boundary windows become regular;
    # a dropped window can leave the windows short of an edge instead
    hp, wp = max((ho - 1) * stride + kernel, h), max((wo - 1) * stride + kernel, w)
    xp = np.pad(x.data, ((0, 0), (0, 0), (0, hp - h), (0, wp - w)),
                constant_values=-np.inf) if (hp > h or wp > w) else x.data
    taps = [xp[:, :, ky:ky + stride * ho:stride, kx:kx + stride * wo:stride]
            for ky in range(kernel) for kx in range(kernel)]
    out = taps[0].copy()
    for tap in taps[1:]:
        np.maximum(tap, out, out=out)
    arg = None
    if _records((x,)):
        arg = np.zeros(out.shape, dtype=np.intp)
        for t in range(len(taps) - 1, -1, -1):  # the last write is the first hit
            hit = np.equal(taps[t], out)
            hit |= np.isnan(taps[t])
            np.copyto(arg, t, where=hit)

    def backward(g):
        # each tap adds its share into its strided view of the padded input
        # gradient: g where the tap won and +0.0 elsewhere, by masking g's
        # bits (g * hit would put NaN where a NaN or inf meets 0).  A sum that
        # starts at +0.0 is never -0.0, so adding +0.0 changes no bit.  Taps
        # go in reverse, so each input element sums its windows' shares in
        # (oy, ox) order, as np.add.at over the windows does
        gin = np.zeros((n, c, hp, wp), dtype=g.dtype)
        hit = np.empty(arg.shape, dtype=bool)
        share = np.empty(arg.shape, dtype=f"i{g.itemsize}")
        for t in range(kernel * kernel - 1, -1, -1):
            np.equal(arg, t, out=hit)
            np.negative(hit.view(np.int8), out=share)  # every bit set where hit
            np.bitwise_and(g.view(share.dtype), share, out=share)
            ky, kx = divmod(t, kernel)
            tap = gin[:, :, ky:ky + stride * ho:stride, kx:kx + stride * wo:stride]
            tap += share.view(g.dtype)
        x._accumulate(gin[:, :, :h, :w])

    return _result(out, (x,), backward, "max_pool2d")


def avg_pool2d_2x2(x: Tensor) -> Tensor:
    """Non-overlapping 2x2 average pool; spatial dims must be even.

    Equals ``reshape(n, c, h/2, 2, w/2, 2).mean(axis=(3, 5))`` bit for bit by
    adding the four strided quarter views in the order numpy's reduction
    does: ``(a + b) + (c + d)`` with a, b the top and c, d the bottom pair
    of each window, and ``((a + b) + c) + d`` when ``w == 2``, where the
    reduced axes merge into one contiguous run of four that numpy sums in
    sequence.  The mean's division by 4 is exact either way.  Backward
    writes ``g * 0.25`` into the four quarters of the input gradient.
    """
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"avg_pool2d_2x2 needs even spatial dims, got {h}x{w}")
    quarters = [(slice(None), slice(None), slice(dy, None, 2), slice(dx, None, 2))
                for dy in (0, 1) for dx in (0, 1)]
    top_left, top_right, bottom_left, bottom_right = (x.data[q] for q in quarters)
    data = np.add(top_left, top_right)
    if w == 2:
        data += bottom_left
        data += bottom_right
    else:
        data += bottom_left + bottom_right
    data /= 4

    def backward(g):
        gx = np.empty(x.shape, dtype=g.dtype)
        quarter = g * 0.25
        for q in quarters:
            gx[q] = quarter
        x._accumulate(gx)

    return _result(data, (x,), backward, "avg_pool2d")


def global_avg_pool(x: Tensor) -> Tensor:
    n, c, h, w = x.shape
    data = x.data.mean(axis=(2, 3))

    def backward(g):
        x._accumulate(np.broadcast_to(g[:, :, None, None] / (h * w), x.shape))

    return _result(data, (x,), backward, "global_avg_pool")


def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor,
                 running_mean: np.ndarray, running_var: np.ndarray,
                 training: bool) -> Tensor:
    """Per-channel batch normalization over [N,C,H,W], epsilon 1e-5.

    Train mode normalizes by batch statistics and updates the running
    buffers in place (new = 0.9*old + 0.1*batch, the variance unbiased);
    eval mode applies the running statistics as a fixed affine transform.

    The forward keeps two [N,C,H,W] buffers: ``x - mean``, scaled in place
    into the normalized input the backward reads, and one that holds the
    squared deviations for the variance and then the output.  In eval mode
    a node that does not record writes its output over the normalized input
    instead.  The mean and variance are computed as numpy's ``mean`` and
    ``var`` compute them, so they round the same way.  The backward reuses
    its input-gradient buffer.
    """
    if x.ndim != 4:
        raise ShapeError("batch_norm2d expects 4-D input")
    gamma, beta = _coerce(gamma, x), _coerce(beta, x)
    n, c, h, w = x.shape
    axes = (0, 2, 3)
    m = n * h * w
    if training:
        if m < 2:
            raise DegenerateBatchError(f"batch norm needs N*H*W >= 2, got {m}")
        mean = np.add.reduce(x.data, axes, keepdims=True)
        np.true_divide(mean, np.intp(m), out=mean, casting="unsafe")
        xhat = np.subtract(x.data, mean)
        out = np.square(xhat)
        var = np.add.reduce(out, axes, keepdims=True)
        np.true_divide(var, np.intp(m), out=var, casting="unsafe")
        running_mean *= 0.9
        running_mean += 0.1 * mean.reshape(c)
        running_var *= 0.9
        running_var += 0.1 * var.reshape(c) * (m / (m - 1))  # unbiased for the buffer
    else:
        xhat = np.subtract(x.data, running_mean.astype(x.dtype).reshape(1, c, 1, 1))
        # no backward reads xhat unless the node records, so the output may
        # overwrite it: the same operations on the same operands, one buffer
        out = np.empty_like(xhat) if _records((x, gamma, beta)) else xhat
        var = running_var.astype(x.dtype).reshape(1, c, 1, 1)

    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat *= inv_std
    gamma_b = gamma.data.reshape(1, c, 1, 1)
    np.multiply(gamma_b, xhat, out=out)
    out += beta.data.reshape(1, c, 1, 1)

    def backward(g):
        t = np.multiply(g, xhat)
        if gamma.requires_grad:
            gamma._accumulate(t.sum(axis=axes))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=axes))
        if x.requires_grad:
            gx = np.multiply(g, gamma_b)
            if training:
                # ivs / m * (m * gx - sum_gx - xhat * sum_gx_xhat), operand for operand
                sum_gx = gx.sum(axis=axes, keepdims=True)
                sum_gx_xhat = np.multiply(gx, xhat, out=t).sum(axis=axes, keepdims=True)
                gx *= m
                gx -= sum_gx
                gx -= np.multiply(xhat, sum_gx_xhat, out=t)
                gx *= inv_std / m
            else:
                gx *= inv_std
            x._accumulate(gx)

    return _result(out, (x, gamma, beta), backward, "batch_norm2d")


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax at the label index; labels are ints [N]."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeError(f"cross_entropy: logits {logits.shape} vs labels {labels.shape}")
    n, k = logits.shape
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise LabelError(f"labels must lie in [0, {k})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = -log_probs[np.arange(n), labels].mean()

    def backward(g):
        probs = np.exp(log_probs)
        probs[np.arange(n), labels] -= 1.0
        logits._accumulate(probs * (g / n))

    return _result(np.asarray(loss, dtype=logits.dtype), (logits,), backward, "cross_entropy")


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Reverse-mode pass from a scalar loss; consumes the tape."""
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._backward_ran:
        raise GraphStateError("backward was already run for this forward pass")
    if not loss.requires_grad:
        loss._backward_ran = True
        return

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        if node._consumed:
            raise GraphStateError("graph was already consumed by a previous backward")
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    # pop rather than iterate: once a node has passed its gradient on, the
    # list holds its last reference, so its data and gradient are freed
    # here instead of when the whole pass returns
    while topo:
        node = topo.pop()
        fn = node._backward_fn
        if fn is not None and node.grad is not None:
            fn(node.grad)
            node._consumed = True
            node._backward_fn = None
            node._parents = ()
    loss._backward_ran = True


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def grad_check(f, inputs, eps: float = 1e-5) -> float:
    """Compare analytic gradients of scalar-valued ``f`` to central differences.

    Checks run in float64 and in place: each ``Tensor`` input gets float64
    ``.data``, ``requires_grad`` and a cleared ``.grad``, and is itself passed
    to ``f``, so a module's own parameters can be the inputs while ``f`` just
    calls the module (array inputs are wrapped in new tensors).  Afterwards
    each input holds its float64 starting values and its analytic ``.grad``.

    Returns the max over all coordinates of
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-8)``.
    ``f`` must be deterministic; it is probed twice to verify that.  A
    repeated input, or one that ``f`` never reaches, raises ContractError.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ContractError(f"eps {eps} outside [1e-7, 1e-3]")
    if len({id(t) for t in inputs}) != len(inputs):
        raise ContractError("an input appears more than once")
    xs = [t if isinstance(t, Tensor) else Tensor(t, dtype=np.float64) for t in inputs]
    for x in xs:
        x.data = np.ascontiguousarray(x.data, dtype=np.float64)
        x.requires_grad, x.grad = True, None

    probe_a = f(*xs)
    probe_b = f(*xs)
    if not np.array_equal(probe_a.data, probe_b.data):
        raise OracleError("function under test is not deterministic")
    backward(probe_b)
    for i, x in enumerate(xs):
        if x.grad is None:
            raise ContractError(f"input {i} received no gradient: f never reaches it")

    worst = 0.0
    with no_grad():
        for x in xs:
            flat = x.data.reshape(-1)
            an_flat = x.grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = float(f(*xs).data)
                flat[i] = orig - eps
                down = float(f(*xs).data)
                flat[i] = orig
                numeric = (up - down) / (2.0 * eps)
                denom = max(abs(an_flat[i]), abs(numeric), 1e-8)
                worst = max(worst, abs(an_flat[i] - numeric) / denom)
    return worst
