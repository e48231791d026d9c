"""Independent reference implementations used as test oracles.

Everything here is deliberately written by a different route than the
package code it checks: explicit nested loops, dense matrices, and the
quaternion unit multiplication table instead of im2col, batched matmuls,
and the hard-coded Hamilton sign pattern.  The one exception is
``composed_axial_attention``, the primitive-op formulation that the fused
attention op must reproduce bit for bit.
"""

import numpy as np

from qaxial import autodiff as ad


def naive_conv2d(x, w, b=None, stride=1, padding=0):
    """Direct-loop cross-correlation over [N,Cin,H,W] x [Cout,Cin,kh,kw]."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (x.shape[2] - kh) // stride + 1
    wo = (x.shape[3] - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo), dtype=np.float64)
    for ni in range(n):
        for co in range(cout):
            for oy in range(ho):
                for ox in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += x[ni, ci, oy * stride + ky, ox * stride + kx] \
                                    * w[co, ci, ky, kx]
                    out[ni, co, oy, ox] = acc
            if b is not None:
                out[ni, co] += b[co]
    return out


def naive_conv2d_grads(x, w, g, stride=1, padding=0):
    """Input, weight and bias gradients of a cross-correlation, by direct loops.

    ``g`` is the output gradient [N,Cout,Ho,Wo].  Each output element sends
    g * w back to the input pixel it read and g * x to the kernel tap that
    read it; taps that fall in the zero padding send nothing to the input.
    """
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    _, _, ho, wo = g.shape
    gx = np.zeros((n, cin, h, wd), dtype=np.float64)
    gw = np.zeros((cout, cin, kh, kw), dtype=np.float64)
    gb = np.zeros(cout, dtype=np.float64)
    for ni in range(n):
        for co in range(cout):
            for oy in range(ho):
                for ox in range(wo):
                    go = g[ni, co, oy, ox]
                    gb[co] += go
                    for ci in range(cin):
                        for ky in range(kh):
                            for kx in range(kw):
                                iy = oy * stride + ky - padding
                                ix = ox * stride + kx - padding
                                if 0 <= iy < h and 0 <= ix < wd:
                                    gx[ni, ci, iy, ix] += go * w[co, ci, ky, kx]
                                    gw[co, ci, ky, kx] += go * x[ni, ci, iy, ix]
    return gx, gw, gb


# Quaternion unit multiplication table: e_a * e_b = sign * e_index,
# units ordered (1, i, j, k).  This is the defining algebra, not the
# package's expansion pattern.
_UNIT_TABLE = {
    (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
    (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
    (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
    (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
}


def unit_table_matrix(w4):
    """Left-multiplication matrix of quaternion w built from the unit table."""
    m = np.zeros((4, 4), dtype=np.float64)
    for a in range(4):
        for b in range(4):
            idx, sign = _UNIT_TABLE[(a, b)]
            m[idx, b] += sign * w4[a]
    return m


def unit_table_product(p4, q4):
    """Hamilton product via the unit multiplication table."""
    out = np.zeros(4, dtype=np.float64)
    for a in range(4):
        for b in range(4):
            idx, sign = _UNIT_TABLE[(a, b)]
            out[idx] += sign * p4[a] * q4[b]
    return out


def expand_quaternion_weight(comps):
    """[4, q_out, q_in, kh, kw] components -> real [4qo, 4qi, kh, kw] weight."""
    _, q_out, q_in, kh, kw = comps.shape
    out = np.zeros((4 * q_out, 4 * q_in, kh, kw), dtype=np.float64)
    for o in range(q_out):
        for i in range(q_in):
            for ky in range(kh):
                for kx in range(kw):
                    m = unit_table_matrix(comps[:, o, i, ky, kx])
                    out[4 * o:4 * o + 4, 4 * i:4 * i + 4, ky, kx] = m
    return out


def naive_quaternion_bank(x, comps):
    """Per-pixel, per-group 4x4 application of the group quaternions."""
    n, c, h, w = x.shape
    groups = c // 4
    out = np.zeros_like(x, dtype=np.float64)
    for g in range(groups):
        m = unit_table_matrix(comps[:, g])
        for ni in range(n):
            for y in range(h):
                for xw in range(w):
                    out[ni, 4 * g:4 * g + 4, y, xw] = m @ x[ni, 4 * g:4 * g + 4, y, xw]
    return out


def dense_attention_1d(x, wq, wk, wv, wo, r_q, r_k, r_v, heads):
    """Brute-force multi-head 1-D attention with relative positions.

    x: [B, C, L]; wq/wk/wv: [heads*d, C]; wo: [C, heads*d];
    r_q/r_k/r_v: [2L-1, d].  Materializes the full LxL attention matrix
    per (batch, head) with explicit loops.
    """
    bsz, c, span = x.shape
    d = wq.shape[0] // heads
    out = np.zeros((bsz, wo.shape[1], span), dtype=np.float64)
    for b in range(bsz):
        q = wq @ x[b]   # [heads*d, L]
        k = wk @ x[b]
        v = wv @ x[b]
        for hd in range(heads):
            qs = q[hd * d:(hd + 1) * d]
            ks = k[hd * d:(hd + 1) * d]
            vs = v[hd * d:(hd + 1) * d]
            for o in range(span):
                logits = np.zeros(span)
                for p in range(span):
                    rel = p - o + span - 1
                    logits[p] = qs[:, o] @ ks[:, p] \
                        + qs[:, o] @ r_q[rel] + ks[:, p] @ r_k[rel]
                weights = np.exp(logits - logits.max())
                weights /= weights.sum()
                acc = np.zeros(d)
                for p in range(span):
                    acc += weights[p] * (vs[:, p] + r_v[p - o + span - 1])
                out[b, hd * d:(hd + 1) * d, o] = acc
    result = np.zeros((bsz, wo.shape[0], span), dtype=np.float64)
    for b in range(bsz):
        result[b] = wo @ out[b]
    return result


def composed_axial_attention(q, k, v, r_q, r_k, r_v, heads):
    """``autodiff.axial_attention`` composed from primitive tape ops.

    Same inputs and output ([B, heads*dim, L] q/k/v/out, [2L-1, dim]
    tables).  This is the formulation ``AxialAttention1D`` recorded before
    the fused op: reshapes that split and merge the heads, contiguous
    transposes into and out of the logits, one tape node per op.  The fused
    op must equal it bit for bit, forward and backward.
    """
    bsz, inner, span = q.shape
    dim = inner // heads
    q, k, v = (ad.transpose(ad.reshape(t, (bsz * heads, dim, span)), (0, 2, 1))
               for t in (q, k, v))  # [N, L, dim]
    pos = np.arange(span)
    rel_index = (pos[None, :] - pos[:, None] + span - 1).reshape(-1)
    logits = ad.matmul(q, ad.transpose(k, (0, 2, 1)))  # [N, o, p]
    shape = (span, span, dim)  # [o, p, dim]
    rq = ad.reshape(ad.take_rows(r_q, rel_index), shape)
    rk = ad.reshape(ad.take_rows(r_k, rel_index), shape)
    rv = ad.reshape(ad.take_rows(r_v, rel_index), shape)
    # q_o . rq[o, p]: [o, N, dim] @ [o, dim, p] -> [o, N, p]
    qr = ad.matmul(ad.transpose(q, (1, 0, 2)), ad.transpose(rq, (0, 2, 1)))
    # k_p . rk[o, p]: [p, N, dim] @ [p, dim, o] -> [p, N, o]
    kr = ad.matmul(ad.transpose(k, (1, 0, 2)), ad.transpose(rk, (1, 2, 0)))
    logits = logits + ad.transpose(qr, (1, 0, 2)) + ad.transpose(kr, (1, 2, 0))

    weights = ad.softmax(logits, axis=-1)
    out = ad.matmul(weights, v)  # [N, o, dim]
    # w[o] @ rv[o]: [o, N, p] @ [o, p, dim] -> [o, N, dim]
    wr = ad.matmul(ad.transpose(weights, (1, 0, 2)), rv)
    out = out + ad.transpose(wr, (1, 0, 2))
    return ad.reshape(ad.transpose(out, (0, 2, 1)), (bsz, inner, span))


def pool_argmax(x, kernel, stride):
    """Window argmax of ``ad.max_pool2d`` (ceil-mode, clipped windows),
    found by a different route: -inf padding and a sliding window view."""
    h, w = x.shape[2:]
    hp = -((h - kernel) // -stride) * stride + kernel
    wp = -((w - kernel) // -stride) * stride + kernel
    xp = np.pad(x, ((0, 0), (0, 0), (0, hp - h), (0, wp - w)), constant_values=-np.inf)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kernel, kernel), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    return windows.reshape(windows.shape[:4] + (-1,)).argmax(axis=-1)


# The formulas below are the engine's own earlier versions of ops that were
# since rewritten to move less memory.  The rewrites must keep every bit,
# so each is pinned byte for byte against the formula it replaced.

def relu_where(a):
    """``relu``'s value and gradient mask, as np.where built them."""
    mask = a <= 0
    np.logical_not(mask, out=mask)
    return np.where(mask, a, a.dtype.type(0)), mask


def transposed_copy(a, axes):
    """``transpose``'s value as one ``np.ascontiguousarray`` copy."""
    return np.ascontiguousarray(a.transpose(axes))


def sgd_momentum_step_whole(param, grad, velocity, lr, momentum, weight_decay):
    """The SGD update as six passes over whole arrays, with one scratch array."""
    s = np.empty_like(param)
    velocity *= momentum
    if weight_decay:
        np.multiply(weight_decay, param, out=s)
        s += grad
        velocity += s
    else:
        velocity += grad
    param -= np.multiply(lr, velocity, out=s)


def max_pool_input_grad(x_shape, arg, g, kernel, stride):
    """``max_pool2d``'s input gradient by ``np.add.at`` over the windows.

    ``arg`` is each window's pick as a row-major tap index; windows add into
    a zero gradient of the bottom/right padded input in (n, c, oy, ox) order.
    """
    n, c, h, w = x_shape
    ho, wo = g.shape[2:]
    hp, wp = max((ho - 1) * stride + kernel, h), max((wo - 1) * stride + kernel, w)
    gin = np.zeros((n, c, hp, wp), dtype=g.dtype)
    ni, ci, oy, ox = np.indices(g.shape)
    np.add.at(gin, (ni, ci, oy * stride + arg // kernel, ox * stride + arg % kernel), g)
    return gin[:, :, :h, :w]
