import itertools

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
from qaxial.errors import ConfigurationError

from oracles import dense_attention_1d


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
        assert len(results) > 20
        for node in results:
            assert node.ndim < 5, node.shape
            assert node.size <= limit, node.shape


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
