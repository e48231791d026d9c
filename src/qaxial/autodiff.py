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


def _result(data: np.ndarray, parents, backward_fn, op: str) -> Tensor:
    if _nan_checks and not np.all(np.isfinite(data)):
        raise NumericsError(f"non-finite values produced by op '{op}'")
    requires = _grad_enabled and any(p.requires_grad for p in parents)
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


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
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


def signed_blocks(tensors, table, axes) -> Tensor:
    """Tile signed copies of equal-shaped tensors into a grid of blocks.

    ``table[a][b] = (n, sign)`` puts ``sign * tensors[n]`` (sign +1.0 or -1.0)
    at block (a, b), whose row and column indices become result axes
    ``axes[0] < axes[1]``.  Backward adds up each tensor's signed block
    gradients in table order.
    """
    first = tensors[0]
    tensors = [_coerce(t, first) for t in tensors]
    shape = list(first.shape)
    shape.insert(axes[0], len(table))
    shape.insert(axes[1], len(table[0]))
    data = np.empty(shape, dtype=first.dtype)
    placements = [[] for _ in tensors]
    for a, row in enumerate(table):
        for b, (n, sign) in enumerate(row):
            index = [slice(None)] * len(shape)
            index[axes[0]], index[axes[1]] = a, b
            placements[n].append((tuple(index), sign))
            np.multiply(tensors[n].data, sign, out=data[tuple(index)])

    def backward(g):
        for t, places in zip(tensors, placements):
            if t.requires_grad:
                parts = [sign * g[index] for index, sign in places]
                t._accumulate(sum(parts[1:], parts[0]))

    return _result(data, tuple(tensors), backward, "signed_blocks")


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
    """Gather rows of a 2-D tensor; backward scatter-adds into the table."""
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
    mask = a.data > 0
    data = np.where(mask, a.data, a.data.dtype.type(0))

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


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation over [N,Cin,H,W] with weight [Cout,Cin,kh,kw].

    The batch folds into the im2col columns, [Cin*kh*kw, N*Ho*Wo], so the
    forward, the weight gradient and the input gradient are one GEMM each:
    wmat @ cols, gmat @ cols.T and wmat.T @ gmat, with gmat the output
    gradient as [Cout, N*Ho*Wo].
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError("conv2d expects 4-D input and weight")
    n, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise ShapeError(f"conv2d: input has {cin} channels, weight expects {cin_w}")
    if bias is not None and bias.shape != (cout,):
        raise ShapeError("conv2d bias must have shape (Cout,)")
    cols, ho, wo = _im2col(x.data, kh, kw, stride, padding)
    wmat = weight.data.reshape(cout, cin * kh * kw)
    out = wmat @ cols
    if bias is not None:
        out = out + bias.data[:, None]
    # [Cout, N, Ho, Wo] -> [N, Cout, Ho, Wo]; no copy at N = 1
    out = np.ascontiguousarray(out.reshape(cout, n, ho, wo).transpose(1, 0, 2, 3))

    def backward(g):
        gmat = g.transpose(1, 0, 2, 3).reshape(cout, n * ho * wo)
        if weight.requires_grad:
            weight._accumulate((gmat @ cols.T).reshape(weight.shape))
        if x.requires_grad:
            x._accumulate(_col2im(wmat.T @ gmat, x.shape, kh, kw, stride, padding))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _result(out, parents, backward, "conv2d")


def quaternion_conv2d(x: Tensor, components, table, stride: int = 1,
                      padding: int = 0) -> Tensor:
    """conv2d with the structured weight that ``signed_blocks`` would build
    from ``components`` [q_out, q_in, kh, kw] and ``table``, never built.

    ``table[a][b] = (c, sign)`` (sign +1.0 or -1.0) makes output component
    ``a`` take ``sign * components[c]`` of input component ``b``; each row
    uses every component once.  Channel ``4g + b`` (for a 4x4 table) is
    component ``b`` of group ``g``.  The signs act on the im2col columns
    instead of the weight: block ``(c, a)`` of
    ``xt [nc*q_in*kh*kw, na*N*Ho*Wo]`` is ``sign * cols_b``, so the forward,
    the component gradients and the input gradient are one GEMM each,
    ``wcat @ xt``, ``gmat @ xt.T`` and ``wcat.T @ gmat`` with
    ``wcat = [W_0 | ... | W_nc-1]``; the last is folded back through the
    signs into ``_col2im``.
    """
    components = [_coerce(t, x) for t in components]
    first = components[0]
    na, nb, nc = len(table), len(table[0]), len(components)
    if any(sorted(c for c, _ in row) != list(range(nc)) for row in table):
        raise ContractError("every table row must use each component exactly once")
    if x.ndim != 4 or first.ndim != 4:
        raise ShapeError("quaternion_conv2d expects 4-D input and components")
    n, cin, h, w = x.shape
    q_out, q_in, kh, kw = first.shape
    if any(t.shape != first.shape for t in components):
        raise ShapeError("quaternion_conv2d components must share one shape")
    if cin != nb * q_in:
        raise ShapeError(f"quaternion_conv2d: input has {cin} channels, "
                         f"components expect {nb * q_in}")
    cols, ho, wo = _im2col(x.data, kh, kw, stride, padding)
    m = n * ho * wo
    # cols rows are (g, b, ky, kx); xt rows are (c, g, ky, kx), columns (a, m)
    cols_b = cols.reshape(q_in, nb, kh * kw, m)
    xt = np.empty((nc, q_in, kh * kw, na, m), dtype=x.dtype)
    for a, row in enumerate(table):
        for b, (c, sign) in enumerate(row):
            np.multiply(cols_b[:, b], sign, out=xt[c, :, :, a])
    xt = xt.reshape(nc * q_in * kh * kw, na * m)
    del cols, cols_b

    def wcat():  # [q_out, nc*q_in*kh*kw]; rebuilt in backward rather than kept
        return np.concatenate([t.data.reshape(q_out, -1) for t in components], axis=1)

    out = wcat() @ xt
    # [q_out, na, N, Ho, Wo] -> [N, q_out*na, Ho, Wo]; no copy at N = 1
    out = np.ascontiguousarray(
        out.reshape(q_out, na, n, ho, wo).transpose(2, 0, 1, 3, 4)
    ).reshape(n, q_out * na, ho, wo)

    def backward(g):
        gmat = g.reshape(n, q_out, na, ho * wo).transpose(1, 2, 0, 3).reshape(q_out, na * m)
        if any(t.requires_grad for t in components):
            gw = (gmat @ xt.T).reshape(q_out, nc, q_in, kh, kw)
            for c, t in enumerate(components):
                if t.requires_grad:
                    t._accumulate(np.ascontiguousarray(gw[:, c]))
        if x.requires_grad:
            gxt = (wcat().T @ gmat).reshape(nc, q_in, kh * kw, na, m)
            gcols = np.zeros((q_in, nb, kh * kw, m), dtype=g.dtype)
            for a, row in enumerate(table):
                for b, (c, sign) in enumerate(row):
                    (np.add if sign > 0 else np.subtract)(
                        gcols[:, b], gxt[c, :, :, a], out=gcols[:, b])
            x._accumulate(_col2im(gcols.reshape(cin * kh * kw, m), x.shape,
                                  kh, kw, stride, padding))

    return _result(out, (x, *components), backward, "quaternion_conv2d")


def max_pool2d(x: Tensor, kernel: int, stride: int) -> Tensor:
    """Max pool with ceil-mode output size; boundary windows are clipped.

    Output size is ceil((H-k)/stride)+1, so a 3x3/stride-2 pool halves even
    inputs (112 -> 56) without padding.
    """
    if x.ndim != 4:
        raise ShapeError("max_pool2d expects 4-D input")
    n, c, h, w = x.shape
    if kernel > h or kernel > w:
        raise ShapeError(f"pool kernel {kernel} larger than input {h}x{w}")
    if stride < 1:
        raise ContractError("stride must be >= 1")
    ho = -((h - kernel) // -stride) + 1
    wo = -((w - kernel) // -stride) + 1
    # pad bottom/right with -inf so clipped boundary windows become regular
    hp, wp = (ho - 1) * stride + kernel, (wo - 1) * stride + kernel
    xp = np.pad(x.data, ((0, 0), (0, 0), (0, hp - h), (0, wp - w)),
                constant_values=-np.inf) if (hp > h or wp > w) else x.data
    sn, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(n, c, ho, wo, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw), writeable=False)
    flat = windows.reshape(n, c, ho, wo, kernel * kernel)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def backward(g):
        gin = np.zeros((n, c, hp, wp), dtype=g.dtype)
        ni, ci, oy, ox = np.indices((n, c, ho, wo))
        rows = oy * stride + arg // kernel
        cols_ = ox * stride + arg % kernel
        np.add.at(gin, (ni, ci, rows, cols_), g)
        x._accumulate(gin[:, :, :h, :w])

    return _result(np.ascontiguousarray(out), (x,), backward, "max_pool2d")


def avg_pool2d_2x2(x: Tensor) -> Tensor:
    """Non-overlapping 2x2 average pool; spatial dims must be even."""
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"avg_pool2d_2x2 needs even spatial dims, got {h}x{w}")
    data = x.data.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))

    def backward(g):
        up = np.repeat(np.repeat(g, 2, axis=2), 2, axis=3)
        x._accumulate(up * 0.25)

    return _result(data, (x,), backward, "avg_pool2d")


def global_avg_pool(x: Tensor) -> Tensor:
    n, c, h, w = x.shape
    data = x.data.mean(axis=(2, 3))

    def backward(g):
        x._accumulate(np.broadcast_to(g[:, :, None, None] / (h * w), x.shape))

    return _result(data, (x,), backward, "global_avg_pool")


def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor,
                 running_mean: np.ndarray, running_var: np.ndarray,
                 training: bool, momentum: float = 0.1, epsilon: float = 1e-5) -> Tensor:
    """Per-channel batch normalization over [N,C,H,W].

    Train mode normalizes by batch statistics and updates the running
    buffers in place (new = (1-momentum)*old + momentum*batch); eval mode
    applies the running statistics as a fixed affine transform.
    """
    if x.ndim != 4:
        raise ShapeError("batch_norm2d expects 4-D input")
    n, c, h, w = x.shape
    axes = (0, 2, 3)
    m = n * h * w
    if training:
        if m < 2:
            raise DegenerateBatchError(f"batch norm needs N*H*W >= 2, got {m}")
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var * (m / (m - 1))  # unbiased for the buffer
    else:
        mean = running_mean.astype(x.dtype)
        var = running_var.astype(x.dtype)

    inv_std = 1.0 / np.sqrt(var + epsilon)
    xhat = (x.data - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def backward(g):
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).sum(axis=axes))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=axes))
        if x.requires_grad:
            gx = g * gamma.data[None, :, None, None]
            if training:
                ivs = inv_std[None, :, None, None]
                sum_gx = gx.sum(axis=axes, keepdims=True)
                sum_gx_xhat = (gx * xhat).sum(axis=axes, keepdims=True)
                x._accumulate(ivs / m * (m * gx - sum_gx - xhat * sum_gx_xhat))
            else:
                x._accumulate(gx * inv_std[None, :, None, None])

    return _result(out.astype(x.dtype, copy=False), (x, gamma, beta), backward, "batch_norm2d")


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
