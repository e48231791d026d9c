import itertools
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaxial import autodiff as ad
from qaxial.autodiff import Tensor, backward, grad_check
from qaxial.errors import (
    ContractError,
    DegenerateBatchError,
    GraphStateError,
    NumericsError,
    QaxialError,
    ShapeError,
)
from qaxial.nn import Linear, Parameter
from qaxial.quaternion import _EXPANSION

from oracles import naive_conv2d, naive_conv2d_grads


def rand(shape, seed, dtype=np.float64, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(0, scale, size=shape).astype(dtype), requires_grad=True)


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        out = ad.conv2d(x, w)
        npt.assert_array_equal(out.data, np.ones((1, 1, 3, 3)))

    def test_stem_shape_224_to_112(self):
        x = Tensor(np.zeros((1, 3, 224, 224), dtype=np.float32))
        w = Tensor(np.zeros((64, 3, 7, 7), dtype=np.float32))
        assert ad.conv2d(x, w, stride=2, padding=3).shape == (1, 64, 112, 112)

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        got = ad.conv2d(Tensor(x), Tensor(w)).data
        want = naive_conv2d(x, w)
        npt.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ad.conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 4, 3, 3))))

    def test_kernel_too_large_raises(self):
        with pytest.raises(ShapeError):
            ad.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))

    def test_small_shape_sweep_against_oracle(self):
        """Exhaustive sweep of small geometries against the loop oracle."""
        rng = np.random.default_rng(11)
        cases = itertools.product((1, 2), (1, 3), (1, 2),   # n, cin, cout
                                  (3, 5, 8), (1, 2, 3),     # spatial, kernel
                                  (1, 2), (0, 1))           # stride, padding
        for n, cin, cout, hw, k, stride, padding in cases:
            if k > hw + 2 * padding:
                continue
            x = rng.normal(size=(n, cin, hw, hw))
            w = rng.normal(size=(cout, cin, k, k))
            b = rng.normal(size=(cout,))
            got = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride, padding).data
            want = naive_conv2d(x, w, b, stride, padding)
            npt.assert_allclose(got, want, rtol=1e-6, atol=1e-10)

    def test_gradients(self):
        proj = Tensor(np.random.default_rng(0).normal(size=(2, 3, 3, 3)))

        def f(x, w, b):
            return (ad.conv2d(x, w, b, stride=2, padding=1) * proj).sum()

        err = grad_check(f, [rand((2, 2, 5, 5), 1), rand((3, 2, 3, 3), 2),
                             rand((3,), 3)])
        assert err < 1e-7

    @pytest.mark.parametrize("xshape,wshape,stride,padding", [
        ((1, 1, 4, 4), (2, 1, 3, 3), 1, 0),
        ((2, 3, 5, 5), (2, 3, 1, 1), 2, 1),
        ((1, 2, 6, 3), (1, 2, 2, 2), 1, 1),
    ])
    def test_gradients_multiple_shapes(self, xshape, wshape, stride, padding):
        def f(x, w):
            out = ad.conv2d(x, w, stride=stride, padding=padding)
            return (out * out).sum()

        err = grad_check(f, [rand(xshape, 30), rand(wshape, 31)])
        assert err < 1e-4

    def test_gradients_match_loop_oracle_at_batch_3(self):
        """Batch 3 against 3x4 output maps: a batch/spatial mix-up cannot hide."""
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(3, 2, 5, 7)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        out = ad.conv2d(x, w, b, stride=2, padding=1)
        assert out.shape == (3, 4, 3, 4)
        g = rng.normal(size=out.shape)
        backward((out * Tensor(g)).sum())
        gx, gw, gb = naive_conv2d_grads(x.data, w.data, g, stride=2, padding=1)
        npt.assert_allclose(x.grad, gx, rtol=1e-10, atol=1e-12)
        npt.assert_allclose(w.grad, gw, rtol=1e-10, atol=1e-12)
        npt.assert_allclose(b.grad, gb, rtol=1e-10, atol=1e-12)


class TestBatchNorm:
    def test_constant_input_gives_zeros(self):
        x = Tensor(np.full((2, 3, 4, 4), 5.0))
        gamma = Tensor(np.ones(3))
        beta = Tensor(np.zeros(3))
        out = ad.batch_norm2d(x, gamma, beta, np.zeros(3), np.ones(3), training=True)
        npt.assert_allclose(out.data, 0.0, atol=1e-4)

    def test_train_statistics(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(2.0, 3.0, size=(4, 8, 6, 6)))
        gamma = Tensor(np.ones(8))
        beta = Tensor(np.zeros(8))
        out = ad.batch_norm2d(x, gamma, beta, np.zeros(8), np.ones(8), training=True)
        mean = out.data.mean(axis=(0, 2, 3))
        std = out.data.std(axis=(0, 2, 3))
        npt.assert_allclose(mean, 0.0, atol=1e-5)
        npt.assert_allclose(std, 1.0, atol=1e-3)

    def test_eval_mode_is_affine_in_running_stats(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 4, 4))
        gamma, beta = rng.normal(size=3), rng.normal(size=3)
        rm, rv = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
        out = ad.batch_norm2d(Tensor(x), Tensor(gamma), Tensor(beta),
                              rm.copy(), rv.copy(), training=False, epsilon=1e-5)
        want = gamma[None, :, None, None] * (x - rm[None, :, None, None]) \
            / np.sqrt(rv[None, :, None, None] + 1e-5) + beta[None, :, None, None]
        npt.assert_allclose(out.data, want, rtol=1e-6)

    def test_running_stats_updated(self):
        rng = np.random.default_rng(5)
        x = rng.normal(1.0, 2.0, size=(8, 2, 5, 5))
        rm, rv = np.zeros(2), np.ones(2)
        ad.batch_norm2d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                        rm, rv, training=True, momentum=1.0)
        npt.assert_allclose(rm, x.mean(axis=(0, 2, 3)), rtol=1e-6)

    def test_degenerate_batch_raises(self):
        with pytest.raises(DegenerateBatchError):
            ad.batch_norm2d(Tensor(np.zeros((1, 3, 1, 1))), Tensor(np.ones(3)),
                            Tensor(np.zeros(3)), np.zeros(3), np.ones(3), training=True)

    def test_gradients_train_and_eval(self):
        proj = Tensor(np.random.default_rng(6).normal(size=(3, 4, 5, 5)))
        rm, rv = np.zeros(4), np.ones(4)

        for training in (True, False):
            def f(x, g, b):
                out = ad.batch_norm2d(x, g, b, rm.copy(), rv.copy(), training)
                return (out * proj).sum()

            err = grad_check(f, [rand((3, 4, 5, 5), 7), rand((4,), 8, scale=0.5),
                                 rand((4,), 9)])
            assert err < 1e-6, f"training={training}"


class TestElementwiseAndReductions:
    def test_softmax_uniform(self):
        out = ad.softmax(Tensor(np.zeros(3)), axis=0)
        npt.assert_allclose(out.data, [1 / 3] * 3, rtol=1e-7)

    @given(st.lists(st.floats(min_value=-60, max_value=60), min_size=2, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_softmax_is_distribution(self, values):
        out = ad.softmax(Tensor(np.array(values)), axis=0).data
        assert (out >= 0).all()
        assert abs(out.sum() - 1.0) <= 1e-6

    def test_max_pool_ramp(self):
        ramp = Tensor(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
        out = ad.max_pool2d(ramp, 3, 2)
        npt.assert_array_equal(out.data[0, 0], [[10, 11], [14, 15]])

    def test_max_pool_halves_112(self):
        x = Tensor(np.zeros((1, 2, 112, 112), dtype=np.float32))
        assert ad.max_pool2d(x, 3, 2).shape == (1, 2, 56, 56)

    def test_cross_entropy_decreases_with_margin(self):
        losses = []
        for margin in (0.5, 1.0, 2.0, 4.0):
            logits = np.zeros((1, 5))
            logits[0, 2] = margin
            losses.append(ad.cross_entropy(Tensor(logits), [2]).item())
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_cross_entropy_label_out_of_range(self):
        with pytest.raises(IndexError):
            ad.cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])
        with pytest.raises(QaxialError, match=r"\[0, 3\)"):
            ad.cross_entropy(Tensor(np.zeros((2, 3))), [-1, 0])

    def test_reshape_round_trip_identity(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 3, 4))
        t = Tensor(x)
        back = ad.reshape(ad.reshape(t, (4, 6)), (2, 3, 4))
        npt.assert_array_equal(back.data, x)

    def test_global_avg_pool(self):
        x = Tensor(np.arange(8, dtype=np.float64).reshape(1, 2, 2, 2))
        npt.assert_allclose(ad.global_avg_pool(x).data, [[1.5, 5.5]])

    def test_avg_pool_2x2(self):
        x = Tensor(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
        npt.assert_allclose(ad.avg_pool2d_2x2(x).data[0, 0], [[2.5, 4.5], [10.5, 12.5]])
        with pytest.raises(ShapeError):
            ad.avg_pool2d_2x2(Tensor(np.zeros((1, 1, 3, 4))))


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = rand((3, 4), 0)
        backward(x.sum())
        npt.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic_grad_is_x(self):
        x = rand((5,), 1)
        backward(((x * x).sum() * 0.5))
        npt.assert_allclose(x.grad, x.data, rtol=1e-12)

    def test_non_scalar_loss_raises(self):
        x = rand((3,), 2)
        with pytest.raises(ContractError):
            backward(x * 2.0)

    def test_double_backward_raises(self):
        x = rand((3,), 3)
        loss = (x * x).sum()
        backward(loss)
        with pytest.raises(GraphStateError):
            backward(loss)

    def test_reused_graph_raises(self):
        x = rand((3,), 4)
        y = x * x
        backward(y.sum())
        with pytest.raises(GraphStateError):
            backward((y * 2.0).sum())

    def test_backward_frees_intermediates_as_it_goes(self):
        # a chain of 20 muls: every node's data and gradient is one array.
        # Freed as the pass walks back, the pass adds a few arrays to what
        # the forward holds; kept to the end, it would add all 20 gradients.
        x = Tensor(np.ones(100_000), requires_grad=True)
        array_bytes = x.data.nbytes
        tracemalloc.start()
        try:
            y = x
            for _ in range(20):
                y = y * 1.0
            loss = y.sum()
            del y
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < 5 * array_bytes
        npt.assert_array_equal(x.grad, np.ones(100_000))

    def test_composite_network_gradient(self):
        """conv -> bn -> relu -> pool -> linear -> cross_entropy chain."""
        rng = np.random.default_rng(13)
        labels = np.array([1, 0])
        rm, rv = np.zeros(3), np.ones(3)
        gamma = rand((3,), 20, scale=0.3)
        beta = rand((3,), 21)

        def f(x, w, wl, bl):
            h = ad.conv2d(x, w, stride=1, padding=1)
            h = ad.batch_norm2d(h, gamma, beta, rm.copy(), rv.copy(), training=True)
            # offset avoids relu kinks under finite differences
            h = ad.relu(h + 0.7)
            h = ad.max_pool2d(h, 2, 2)
            h = ad.global_avg_pool(h)
            return ad.cross_entropy(ad.linear(h, wl, bl), labels)

        err = grad_check(f, [rand((2, 2, 4, 4), 14), rand((3, 2, 3, 3), 15, scale=0.4),
                             rand((4, 3), 16), rand((4,), 17)])
        assert err < 1e-4

    def test_grad_accumulates_across_passes(self):
        x = rand((3,), 5)
        backward(x.sum())
        backward(x.sum())
        npt.assert_array_equal(x.grad, 2 * np.ones(3))


class TestGradCheckOracle:
    def test_linear_layer(self):
        def f(x, w, b):
            return ad.linear(x, w, b).sum()

        assert grad_check(f, [rand((4, 3), 0), rand((2, 3), 1), rand((2,), 2)]) < 1e-7

    def test_softmax_cross_entropy(self):
        labels = np.array([0, 2, 1])

        def f(logits):
            return ad.cross_entropy(logits, labels)

        assert grad_check(f, [rand((3, 4), 3)]) < 1e-6

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(4)
        base = rng.uniform(0.2, 1.0, size=(4, 4)) * rng.choice([-1.0, 1.0], size=(4, 4))

        def f(x):
            return ad.relu(x).sum()

        assert grad_check(f, [Tensor(base)]) < 1e-7

    def test_rejects_bad_eps(self):
        with pytest.raises(ContractError):
            grad_check(lambda x: x.sum(), [rand((2,), 0)], eps=0.5)

    def test_rejects_nondeterministic_function(self):
        from qaxial.errors import OracleError
        state = {"n": 0}

        def f(x):
            state["n"] += 1
            return (x * float(state["n"])).sum()

        with pytest.raises(OracleError):
            grad_check(f, [rand((2,), 0)])

    def test_checks_module_parameters_in_place(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        start = {n: p.data.astype(np.float64) for n, p in layer.named_parameters()}
        x = rand((4, 3), 1)
        assert grad_check(lambda *_: (layer(x) * layer(x)).sum(),
                          [x] + list(layer.parameters())) < 1e-7
        assert sorted(dict(layer.named_parameters())) == ["bias", "weight"]
        for name, p in layer.named_parameters():
            assert isinstance(p, Parameter) and p.dtype == np.float64
            npt.assert_array_equal(p.data, start[name])
            assert p.grad is not None and p.grad.shape == p.shape

    def test_rejects_input_f_never_reaches(self):
        x = rand((2,), 0)
        with pytest.raises(ContractError, match="input 1"):
            grad_check(lambda a, b: a.sum(), [x, np.ones(2)])
        with pytest.raises(ContractError, match="input 1"):
            grad_check(lambda *_: (x * x).sum(), [x, Tensor(x.data.copy())])

    def test_rejects_repeated_input(self):
        x = rand((2,), 0)
        with pytest.raises(ContractError, match="more than once"):
            grad_check(lambda a, b: (a * b).sum(), [x, x])

    @pytest.mark.parametrize("shape", [(3,), (2, 4), (2, 3, 2)])
    def test_elementwise_ops_multiple_shapes(self, shape):
        def f(a, b):
            return ((a * b) + (a - b) * 2.0).sum()

        assert grad_check(f, [rand(shape, 5), rand(shape, 6)]) < 1e-4

    @pytest.mark.parametrize("op", ["matmul", "softmax", "stack", "take", "signed_blocks"])
    def test_structural_ops(self, op):
        if op == "matmul":
            def f(a, b):
                return ad.matmul(a, b).sum()
            inputs = [rand((2, 3, 4), 0), rand((4, 5), 1)]
        elif op == "softmax":
            def f(a):
                return (ad.softmax(a, axis=-1) * ad.softmax(a, axis=-1)).sum()
            inputs = [rand((3, 5), 2)]
        elif op == "stack":
            def f(a, b):
                return ad.stack([a, ad.neg(b), a], axis=1).sum()
            inputs = [rand((2, 3), 3), rand((2, 3), 4)]
        elif op == "signed_blocks":
            table = (((0, 1.0), (1, -1.0)), ((1, 1.0), (0, -1.0)), ((0, -1.0), (0, 1.0)))
            proj = rand((2, 3, 3, 2), 6).data

            def f(a, b):
                return (ad.signed_blocks([a, b], table, axes=(1, 3)) * proj).sum()
            inputs = [rand((2, 3), 3), rand((2, 3), 4)]
        else:
            idx = np.array([0, 2, 2, 1])

            def f(a):
                return (ad.take_rows(a, idx) * ad.take_rows(a, idx)).sum()
            inputs = [rand((3, 4), 5)]
        assert grad_check(f, inputs) < 1e-6


def test_signed_blocks_places_signed_copies():
    a, b = rand((2, 5), 0), rand((2, 5), 1)
    table = (((0, 1.0), (1, -1.0), (1, 1.0)), ((1, 1.0), (0, -1.0), (0, 1.0)))
    out = ad.signed_blocks([a, b], table, axes=(0, 2)).data
    assert out.shape == (2, 2, 3, 5)
    for r, row in enumerate(table):
        for c, (n, sign) in enumerate(row):
            npt.assert_array_equal(out[r, :, c], sign * (a, b)[n].data)


class TestQuaternionConv2dOp:
    @pytest.mark.parametrize("k", [1, 3])
    def test_grad_check_at_batch_3_stride_2_padding_1(self, k):
        proj = rand((3, 12, (7 - k) // 2 + 1, (8 - k) // 2 + 1), 20).data

        def f(x, *comps):
            return (ad.quaternion_conv2d(x, comps, _EXPANSION, stride=2, padding=1)
                    * proj).sum()

        comps = [rand((3, 2, k, k), 21 + c) for c in range(4)]
        assert grad_check(f, [rand((3, 8, 5, 6), 25)] + comps) < 1e-6

    def test_table_row_must_use_each_component_once(self):
        x, comps = rand((1, 8, 3, 3), 0), [rand((1, 2, 1, 1), c) for c in range(4)]
        bad = _EXPANSION[:3] + (((0, 1.0), (0, 1.0), (1, 1.0), (3, 1.0)),)
        with pytest.raises(ContractError):
            ad.quaternion_conv2d(x, comps, bad)


class TestDebugChecks:
    def test_nan_scan_raises_when_enabled(self):
        big = Tensor(np.array([1e38], dtype=np.float32))
        ad.set_debug_nan_checks(True)
        try:
            with np.errstate(over="ignore"), pytest.raises(NumericsError):
                big * big
        finally:
            ad.set_debug_nan_checks(False)
        with np.errstate(over="ignore"):
            out = big * big  # disabled again: no raise
        assert np.isinf(out.data).all()

    def test_dtype_mismatch_raises(self):
        with pytest.raises(ContractError):
            Tensor(np.zeros(3, dtype=np.float32)) + Tensor(np.zeros(3, dtype=np.float64))
