import itertools
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from qaxial import autodiff as ad
from qaxial.autodiff import Tensor, grad_check
from qaxial.axial import (
    AxialAttention1D,
    AxialPairModule,
    axial_flop_count,
    full_attention_flop_count,
)
from qaxial.errors import ConfigurationError, ShapeError

from oracles import composed_axial_attention, dense_attention_1d


def run_oracle(layer, x):
    return dense_attention_1d(
        x.astype(np.float64),
        layer.w_q.data.astype(np.float64), layer.w_k.data.astype(np.float64),
        layer.w_v.data.astype(np.float64), layer.w_out.data.astype(np.float64),
        layer.r_q.data.astype(np.float64), layer.r_k.data.astype(np.float64),
        layer.r_v.data.astype(np.float64), layer.heads)


class TestAxialAttention1D:
    def test_single_position_ignores_queries_and_keys(self):
        rng = np.random.default_rng(0)
        layer = AxialAttention1D(8, span=1, heads=2, rng=rng)
        x1 = rng.normal(size=(3, 8, 1)).astype(np.float32)
        out1 = layer(Tensor(x1)).data
        # scramble q/k projections: single-key softmax is 1 regardless
        layer.w_q.data[...] = rng.normal(size=layer.w_q.shape)
        layer.w_k.data[...] = rng.normal(size=layer.w_k.shape)
        npt.assert_allclose(layer(Tensor(x1)).data, out1, rtol=1e-5)
        # and the value path is exactly w_out @ (v + rv), rv shared per head
        v = np.matmul(layer.w_v.data, x1)
        rv = np.tile(layer.r_v.data.reshape(-1), layer.heads).reshape(-1, 1)
        want = np.matmul(layer.w_out.data, v + rv)
        npt.assert_allclose(out1, want, rtol=1e-4, atol=1e-6)

    def test_uniform_logits_average_values(self):
        rng = np.random.default_rng(1)
        layer = AxialAttention1D(8, span=5, heads=2, rng=rng)
        layer.w_q.data[...] = 0.0
        layer.w_k.data[...] = 0.0
        layer.r_q.data[...] = 0.0
        layer.r_k.data[...] = 0.0
        x = rng.normal(size=(2, 8, 5)).astype(np.float32)
        out = layer(Tensor(x)).data
        v = np.matmul(layer.w_v.data, x)  # [B, inner, L]
        rv = layer.r_v.data
        for o in range(5):
            rel = np.arange(5) - o + 4
            vplus = v + np.tile(rv[rel].T, (layer.heads, 1))[None]
            want = np.matmul(layer.w_out.data, vplus.mean(axis=2, keepdims=True))
            npt.assert_allclose(out[:, :, o:o + 1], want, rtol=1e-4, atol=1e-6)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        layer = AxialAttention1D(8, span=4, heads=2, rng=rng)
        x = rng.normal(size=(3, 8, 4))
        got = layer(Tensor(x.astype(np.float32))).data
        npt.assert_allclose(got, run_oracle(layer, x), rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("span,channels,heads",
                             list(itertools.product((2, 4, 7), (8, 16), (1, 2, 8))))
    def test_oracle_grid(self, span, channels, heads):
        """The acceptance-criterion configuration grid, at float64."""
        rng = np.random.default_rng(span * 100 + channels * 10 + heads)
        layer = AxialAttention1D(channels, span=span, heads=heads, rng=rng)
        layer.to_dtype(np.float64)
        x = rng.normal(size=(2, channels, span))
        got = layer(Tensor(x)).data
        npt.assert_allclose(got, run_oracle(layer, x), rtol=1e-7, atol=1e-9)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        layer = AxialAttention1D(16, span=6, heads=4, rng=rng)
        x = Tensor(rng.normal(size=(2, 16, 6)).astype(np.float32))
        q = np.matmul(layer.w_q.data, x.data).reshape(2, 4, layer.dim, 6)
        k = np.matmul(layer.w_k.data, x.data).reshape(2, 4, layer.dim, 6)
        logits = np.einsum("bhdo,bhdp->bhop", q, k)
        weights = ad.softmax(Tensor(logits), axis=-1).data
        npt.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-6)

    def test_permutation_equivariance_without_positions(self):
        rng = np.random.default_rng(4)
        layer = AxialAttention1D(8, span=5, heads=2, rng=rng)
        layer.r_q.data[...] = 0.0
        layer.r_k.data[...] = 0.0
        layer.r_v.data[...] = 0.0
        x = rng.normal(size=(2, 8, 5)).astype(np.float32)
        perm = np.array([3, 0, 4, 1, 2])
        out = layer(Tensor(x)).data
        out_perm = layer(Tensor(x[:, :, perm])).data
        npt.assert_allclose(out_perm, out[:, :, perm], rtol=1e-4, atol=1e-6)

    def test_configuration_errors(self):
        with pytest.raises(ConfigurationError):
            AxialAttention1D(10, span=4, heads=3)
        layer = AxialAttention1D(8, span=4, heads=2)
        with pytest.raises(ConfigurationError):
            layer(Tensor(np.zeros((1, 8, 5), dtype=np.float32)))

    def test_gradients(self):
        rng = np.random.default_rng(5)
        layer = AxialAttention1D(8, span=3, heads=2, rng=rng)
        proj = Tensor(rng.normal(size=(2, 8, 3)))
        x = Tensor(rng.normal(size=(2, 8, 3)))
        assert grad_check(lambda *_: (layer(x) * proj).sum(),
                          [x] + list(layer.parameters())) < 1e-4

    def test_gradients_relative_terms_span_5(self):
        # distinct batch, heads, span and per-head dim, so a swap of the
        # query and key position axes in a relative term cannot cancel out
        rng = np.random.default_rng(12)
        layer = AxialAttention1D(8, span=5, heads=2, rng=rng)
        assert layer.dim == 2
        proj = Tensor(rng.normal(size=(3, 8, 5)))
        x = Tensor(rng.normal(size=(3, 8, 5)))
        assert grad_check(lambda *_: (layer(x) * proj).sum(),
                          [x] + list(layer.parameters())) < 1e-4
        # the checked function is the dense formulation, not a transposed
        # one; grad_check left the layer's parameters in float64
        npt.assert_allclose(layer(x).data, run_oracle(layer, x.data),
                            rtol=1e-7, atol=1e-9)

    def test_tape_holds_no_batch_by_pair_by_dim_tensor(self):
        bsz, heads, span = 3, 2, 5
        rng = np.random.default_rng(13)
        layer = AxialAttention1D(8, span=span, heads=heads, rng=rng)
        out = layer(Tensor(rng.normal(size=(bsz, 8, span)).astype(np.float32),
                           requires_grad=True))
        limit = bsz * heads * span * span
        seen, todo, results = set(), [out], []
        while todo:
            node = todo.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._parents:
                results.append(node)
            todo.extend(node._parents)
        fused = [node for node in results
                 if node._backward_fn.__qualname__.startswith("axial_attention.")]
        assert len(fused) == 1
        for node in results:
            assert node.ndim < 5, node.shape
            assert node.size <= limit, node.shape
        # what the fused node keeps for backward stays within one [B*h, L, L]
        kept = [cell.cell_contents for cell in fused[0]._backward_fn.__closure__]
        arrays = [c.data if isinstance(c, Tensor) else c for c in kept
                  if isinstance(c, (Tensor, np.ndarray))]
        assert arrays
        for arr in arrays:
            assert arr.size <= limit, arr.shape


def op_inputs(bsz, heads, dim, span, dtype=np.float32, seed=0):
    """q, k, v as [bsz, heads*dim, span] and the three [2*span-1, dim] tables."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(bsz, heads * dim, span)) for _ in range(3)]
    arrays += [rng.normal(size=(2 * span - 1, dim)) for _ in range(3)]
    return [a.astype(dtype) for a in arrays]


def output_and_grads(op, arrays, heads):
    """op's output and the gradients of its six inputs under a fixed
    random projection of the output."""
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*inputs, heads)
    proj = np.random.default_rng(99).normal(size=out.shape).astype(out.dtype)
    ad.backward((out * Tensor(proj)).sum())
    return [out.data] + [t.grad for t in inputs]


class TestAxialAttentionOp:
    """``autodiff.axial_attention`` against its composed tape formulation."""

    @pytest.mark.parametrize("span", (1, 5, 8, 14, 56))
    @pytest.mark.parametrize("n", (1, 20))
    @pytest.mark.parametrize("dim", (1, 3, 8, 32))
    def test_bitwise_equal_to_composed_ops(self, span, n, dim):
        # n = batch * heads rows of attention, as one head and, for n = 20,
        # as four heads of batch 5
        for heads in sorted({1, math.gcd(n, 4)}):
            arrays = op_inputs(n // heads, heads, dim, span,
                               seed=span * 100 + n + dim + heads - 1)
            got = output_and_grads(ad.axial_attention, arrays, heads)
            want = output_and_grads(composed_axial_attention, arrays, heads)
            for name, a, b in zip(("out", "q", "k", "v", "r_q", "r_k", "r_v"), got, want):
                assert a.dtype == np.float32, name
                npt.assert_array_equal(a, b, err_msg=f"{name}, {heads} heads")

    @pytest.mark.parametrize("span", (1, 5, 8, 14, 56))
    @pytest.mark.parametrize("bsz,heads", ((1, 1), (5, 4)))
    def test_layer_bitwise_equal_to_composed_ops(self, span, bsz, heads, monkeypatch):
        # x receives three gradients (through q, k and v), so this also pins
        # the order in which the backward walk adds them
        channels = 6 * heads

        def run():
            rng = np.random.default_rng(span)
            layer = AxialAttention1D(channels, span=span, heads=heads, rng=rng)
            x = Tensor(rng.normal(size=(bsz, channels, span)).astype(np.float32),
                       requires_grad=True)
            out = layer(x)
            proj = rng.normal(size=out.shape).astype(np.float32)
            ad.backward((out * Tensor(proj)).sum())
            return [out.data, x.grad] + [p.grad for p in layer.parameters()]

        got = run()
        monkeypatch.setattr(ad, "axial_attention", composed_axial_attention)
        want = run()
        assert len(got) == len(want) == 9
        for i, (a, b) in enumerate(zip(got, want)):
            npt.assert_array_equal(a, b, err_msg=f"entry {i}")

    @pytest.mark.parametrize("dtype,bsz,heads,dim", (
        (np.float64, 5, 9, 3), (np.float64, 17, 1, 8), (np.float32, 9, 5, 4)))
    def test_row_blocks_bitwise_equal_to_composed_ops(self, dtype, bsz, heads, dim):
        # at span 56, 8 float64 or 16 float32 rows of N fill a block: N = 45
        # gives several blocks and a shorter last one, N = 17 a last block
        # of 9, as a lone last row joins the block before
        arrays = op_inputs(bsz, heads, dim, 56, dtype=dtype, seed=bsz + dim)
        got = output_and_grads(ad.axial_attention, arrays, heads)
        want = output_and_grads(composed_axial_attention, arrays, heads)
        for name, a, b in zip(("out", "q", "k", "v", "r_q", "r_k", "r_v"), got, want):
            assert a.dtype == dtype, name
            npt.assert_array_equal(a, b, err_msg=name)

    @pytest.mark.parametrize("span", (5, 8, 14))
    @pytest.mark.parametrize("n", (17, 45))
    @pytest.mark.parametrize("dim", (1, 3, 8, 32))
    def test_eight_row_blocks_bitwise_equal_to_composed_ops(self, span, n, dim, monkeypatch):
        monkeypatch.setattr(ad, "ATTENTION_BLOCK_BYTES", 0)  # blocks of 8 rows
        arrays = op_inputs(n, 1, dim, span, seed=span + n + dim)
        got = output_and_grads(ad.axial_attention, arrays, 1)
        want = output_and_grads(composed_axial_attention, arrays, 1)
        for name, a, b in zip(("out", "q", "k", "v", "r_q", "r_k", "r_v"), got, want):
            npt.assert_array_equal(a, b, err_msg=name)

    def test_beyond_the_bitwise_bound_matches_dense_oracle(self):
        # N = 2304 rows of span 14 and dim 32: each whole relative-term GEMM
        # is N * L * dim = 1.03e6 multiply-adds, past the size up to which the
        # op is bitwise the composed ops (the 224-px model's span-14 layers at
        # batch 20).  There criterion 6's dense-oracle tolerance must hold, in
        # float64.  The oracle is independent per batch row, so every ninth
        # row is checked
        rng = np.random.default_rng(15)
        layer = AxialAttention1D(64, span=14, heads=1, rng=rng)
        layer.to_dtype(np.float64)
        assert layer.dim == 32
        x = rng.normal(size=(2304, 64, 14))
        assert x.shape[0] * layer.heads * 14 * layer.dim > 10**6
        got = layer(Tensor(x)).data[::9]
        assert np.abs(got - run_oracle(layer, x[::9])).max() < 1e-6

    def test_no_grad_holds_no_full_logits(self):
        bsz, heads, dim, span = 8, 25, 2, 56
        inputs = [Tensor(a, requires_grad=True)
                  for a in op_inputs(bsz, heads, dim, span, dtype=np.float64, seed=4)]
        logits_bytes = bsz * heads * span * span * 8
        tracemalloc.start()
        try:
            with ad.no_grad():
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                out = ad.axial_attention(*inputs, heads)
                peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out._backward_fn is None
        assert peak < logits_bytes, (peak, logits_bytes)
        recorded = ad.axial_attention(*inputs, heads)
        assert recorded._backward_fn is not None
        npt.assert_array_equal(out.data, recorded.data)

    def test_grad_check_float64(self):
        arrays = op_inputs(3, 2, 2, 4, dtype=np.float64, seed=1)
        proj = Tensor(np.random.default_rng(2).normal(size=(3, 4, 4)))
        inputs = [Tensor(a) for a in arrays]
        assert grad_check(
            lambda *ts: (ad.axial_attention(*ts, 2) * proj).sum(),
            inputs) < 1e-4

    @pytest.mark.parametrize("case", ("q_k_shape", "v_shape", "not_3d", "table_rows",
                                      "table_dim", "heads_split", "heads_zero"))
    def test_bad_shapes_raise(self, case):
        q, k, v, r_q, r_k, r_v = op_inputs(2, 2, 3, 4)
        heads = 2
        if case == "q_k_shape":
            k = k[:, :, :3]
        elif case == "v_shape":
            v = v[:1]
        elif case == "not_3d":
            q, k, v = q[0], k[0], v[0]
        elif case == "table_rows":
            r_k = r_k[:-1]
        elif case == "table_dim":
            r_v = r_v[:, :2]
        elif case == "heads_split":
            heads = 4  # 6 channels
        else:
            heads = 0
        with pytest.raises(ShapeError):
            ad.axial_attention(*(Tensor(a) for a in (q, k, v, r_q, r_k, r_v)), heads)


class TestAxialPair:
    def test_zeroed_output_projection_gives_zeros(self):
        rng = np.random.default_rng(6)
        pair = AxialPairModule(8, height=4, width=4, heads=2, rng=rng)
        pair.height_attention.w_out.data[...] = 0.0
        pair.width_attention.w_out.data[...] = 0.0
        x = Tensor(rng.normal(size=(2, 8, 4, 4)).astype(np.float32))
        out = pair(x)
        assert out.shape == (2, 8, 4, 4)
        npt.assert_array_equal(out.data, 0.0)

    def test_matches_composed_1d_oracles(self):
        rng = np.random.default_rng(7)
        pair = AxialPairModule(8, height=4, width=4, heads=2, rng=rng)
        x = rng.normal(size=(1, 8, 4, 4))
        got = pair(Tensor(x.astype(np.float32))).data

        cols = x.transpose(0, 3, 1, 2).reshape(4, 8, 4)
        cols = run_oracle(pair.height_attention, cols)
        mid = cols.reshape(1, 4, 8, 4).transpose(0, 2, 3, 1)
        rows = mid.transpose(0, 2, 1, 3).reshape(4, 8, 4)
        rows = run_oracle(pair.width_attention, rows)
        want = rows.reshape(1, 4, 8, 4).transpose(0, 2, 1, 3)
        npt.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    def test_height_one_degenerates_to_width_attention(self):
        rng = np.random.default_rng(8)
        pair = AxialPairModule(8, height=1, width=6, heads=2, rng=rng)
        x = rng.normal(size=(2, 8, 1, 6))
        got = pair(Tensor(x.astype(np.float32))).data
        # height attention over a single position, then the width layer
        h_out = run_oracle(pair.height_attention,
                           x.transpose(0, 3, 1, 2).reshape(12, 8, 1))
        mid = h_out.reshape(2, 6, 8, 1).transpose(0, 2, 3, 1)
        want = run_oracle(pair.width_attention, mid.reshape(2, 8, 6))
        npt.assert_allclose(got[:, :, 0, :], want, rtol=1e-4, atol=1e-5)

    def test_stride_halves_spatial_dims(self):
        pair = AxialPairModule(8, height=56, width=56, heads=8, stride=2,
                               rng=np.random.default_rng(9))
        x = Tensor(np.random.default_rng(10).normal(size=(1, 8, 56, 56)).astype(np.float32))
        assert pair(x).shape == (1, 8, 28, 28)

    def test_span_mismatch_raises(self):
        pair = AxialPairModule(8, height=4, width=4, heads=2)
        with pytest.raises(ConfigurationError):
            pair(Tensor(np.zeros((1, 8, 4, 6), dtype=np.float32)))

    def test_gradients_through_pair(self):
        rng = np.random.default_rng(11)
        pair = AxialPairModule(8, height=2, width=2, heads=2, rng=rng)
        proj = Tensor(rng.normal(size=(1, 8, 2, 2)))
        x = Tensor(rng.normal(size=(1, 8, 2, 2)))
        assert grad_check(lambda *_: (pair(x) * proj).sum(),
                          [x] + list(pair.parameters())) < 1e-4


class TestFlopCount:
    def test_doubling_resolution_grows_core_by_8x(self):
        small = axial_flop_count(14, 14, 64)
        large = axial_flop_count(28, 28, 64)
        assert large == 8 * small

    def test_full_attention_dominates_axial_at_56(self):
        axial = axial_flop_count(56, 56, 32)
        full = full_attention_flop_count(56, 56, 32)
        assert full / axial >= 25
        assert full / axial == (56 * 56) / (56 + 56)

    def test_single_pixel_counts(self):
        # by the pair formula HW(H+W) the two 1-D passes cost twice the
        # single dense pair at one pixel
        assert axial_flop_count(1, 1, 16) == 2 * full_attention_flop_count(1, 1, 16)

    def test_cost_per_position_linear_in_h_plus_w(self):
        sizes = [7, 14, 28, 56, 112]
        ratios = [axial_flop_count(s, s, 32) / (s * s) for s in sizes]
        slopes = [r / (2 * s) for r, s in zip(ratios, sizes)]
        assert max(slopes) - min(slopes) < 1e-9  # exactly linear

    def test_ratio_bound_matches_acceptance_form(self):
        for s in (14, 28, 56):
            ratio = axial_flop_count(s, s, 128) / full_attention_flop_count(s, s, 128)
            assert ratio <= (s + s) / (s * s) * 1.05
