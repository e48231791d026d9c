import hashlib
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
from qaxial.nn import Conv2d, Linear, Parameter
from qaxial.quaternion import _EXPANSION

from oracles import (
    expand_quaternion_weight,
    max_pool_input_grad,
    naive_conv2d,
    naive_conv2d_grads,
    pool_argmax,
    relu_where,
    transposed_copy,
)


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

    # sha256 of the output and the input, weight and bias gradients, taken
    # when the quaternion conv was a second op beside this one: the one-cell
    # table must keep every GEMM operand and the bias add of a plain conv
    @pytest.mark.parametrize("dtype,n,k,stride,padding,digest", [
        (np.float32, 1, 1, 1, 0,
         "4e70e52c3909e9ee45a923fbf7540e29120053cee8a75eccfd163d1d1221044a"),
        (np.float32, 1, 3, 2, 1,
         "a127da7d88f8a077e47d035fb74a26ea702a28e7667dff82c1d16a822caf9234"),
        (np.float32, 3, 1, 1, 0,
         "287a57c53905b81b8729c4c495b8ad89caa880f997005c4212a6c53e04669e78"),
        (np.float32, 3, 3, 2, 1,
         "247c35ffc6e0f3fc2e833fe04cace7de7a032d592f1f98ad84c9df60ef7493a5"),
        (np.float32, 3, 7, 2, 3,  # the axial stem's geometry
         "1851a18bc73e72d4ae06c2c2b275333fac5f8c296fe5ad8394472b63875e2098"),
        (np.float32, 3, 1, 2, 0,  # the strided 1x1 shortcut's
         "11786c846ab794216599459f3231dd27289d5ae147d47a20bfcd2e679db8e3dd"),
        (np.float64, 1, 1, 1, 0,
         "b3af90c8e80c31ba8d7bdce085beccd4b2f6d772ac94e0b07f699ca6bb1a522a"),
        (np.float64, 1, 3, 2, 1,
         "dfd0eb597f5b8dcc197e15a3dcb3dae7131ba090810e0472062f4c95d35a2504"),
        (np.float64, 3, 1, 1, 0,
         "9202495aeef90808a4de987d2213d46dbb1fffbc84b487dfa67c12c494085905"),
        (np.float64, 3, 3, 2, 1,
         "e4d824734ee344e8189fbe6f193c9b1a2121c9f62e7385becefa1a95172651cd"),
    ])
    def test_outputs_and_gradients_are_pinned(self, dtype, n, k, stride, padding, digest):
        x, w, b = rand((n, 4, 7, 6), 40, dtype), rand((5, 4, k, k), 41, dtype), \
            rand((5,), 42, dtype)
        out = ad.conv2d(x, w, b, stride, padding)
        proj = np.cos(np.arange(out.size)).reshape(out.shape).astype(dtype)
        backward((out * Tensor(proj)).sum())
        h = hashlib.sha256()
        for a in (out.data, x.grad, w.grad, b.grad):
            h.update(a.tobytes())
        assert h.hexdigest() == digest

    def test_plain_1x1_conv_keeps_its_input_view(self):
        """At batch 1, 1x1, stride 1, unpadded, the columns of a plain conv
        are a view of its input, and the backward holds them once."""
        layer = Conv2d(8, 6, 1, rng=np.random.default_rng(0))
        x = Tensor(np.ones((1, 8, 5, 4), dtype=np.float32), requires_grad=True)
        out = layer(x)
        cells = [cell.cell_contents for cell in out._backward_fn.__closure__]
        cols = [a for a in cells if isinstance(a, np.ndarray) and a.size == 8 * 5 * 4]
        assert len(cols) == 1
        assert np.shares_memory(cols[0], x.data)


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
                              rm.copy(), rv.copy(), training=False)
        want = gamma[None, :, None, None] * (x - rm[None, :, None, None]) \
            / np.sqrt(rv[None, :, None, None] + 1e-5) + beta[None, :, None, None]
        npt.assert_allclose(out.data, want, rtol=1e-6)

    def test_running_stats_updated(self):
        # momentum 0.1 from the fresh buffers; the variance is unbiased
        rng = np.random.default_rng(5)
        x = rng.normal(1.0, 2.0, size=(8, 2, 5, 5))
        rm, rv = np.zeros(2), np.ones(2)
        ad.batch_norm2d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                        rm, rv, training=True)
        npt.assert_allclose(rm, 0.1 * x.mean(axis=(0, 2, 3)), rtol=1e-12)
        npt.assert_allclose(rv, 0.9 + 0.1 * x.var(axis=(0, 2, 3), ddof=1), rtol=1e-12)

    def test_affine_parameters_of_another_dtype_raise(self):
        x = Tensor(np.zeros((2, 3, 2, 2), dtype=np.float32))
        with pytest.raises(ContractError, match="dtype mismatch"):
            ad.batch_norm2d(x, Tensor(np.ones(3)), Tensor(np.zeros(3, dtype=np.float32)),
                            np.zeros(3), np.ones(3), training=True)

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

    # sha256 of the float32 output, the input, gamma and beta gradients and
    # the running buffers, taken when the forward made a temporary per step
    @pytest.mark.parametrize("training,shape,digest", [
        (True, (10, 128, 8, 8),
         "c7437784037a5fab7b92b56635b37822ea2f8f0a1c6701e04cf8093bbc8fcdee"),
        (True, (1, 32, 112, 112),
         "a01c06dfe633007bf16c8df43941790e487a6ba3e1b695cdc865cb4ad87bd1b6"),
        (False, (10, 128, 8, 8),
         "2dacfedc25fb91ebf2cfaec0b6abe17cad4570c51323e60054ccc880b18be675"),
        (False, (1, 32, 112, 112),
         "064c4541536966299fefa39f22314d23a64b1288479ba313c60a9125f9874029"),
    ])
    def test_outputs_and_gradients_are_pinned(self, training, shape, digest):
        c = shape[1]
        rng = np.random.default_rng(50)
        x = Tensor(rng.normal(0.5, 2.0, size=shape).astype(np.float32), requires_grad=True)
        gamma = Tensor(rng.normal(1.0, 0.3, size=c).astype(np.float32), requires_grad=True)
        beta = Tensor(rng.normal(0.0, 0.3, size=c).astype(np.float32), requires_grad=True)
        rm = rng.normal(size=c).astype(np.float32)
        rv = rng.uniform(0.5, 2.0, size=c).astype(np.float32)
        out = ad.batch_norm2d(x, gamma, beta, rm, rv, training)
        proj = np.cos(np.arange(out.size)).reshape(out.shape).astype(np.float32)
        backward((out * Tensor(proj)).sum())
        h = hashlib.sha256()
        for a in (out.data, x.grad, gamma.grad, beta.grad, rm, rv):
            h.update(a.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("shape,dtype", [
        ((10, 128, 8, 8), np.float32), ((1, 32, 112, 112), np.float32),
        ((3, 4, 5, 5), np.float64),
    ])
    def test_eval_output_without_tape_equals_recording_call(self, shape, dtype):
        # a node that does not record writes its output over its normalized
        # input; the bytes are those of a recording call, which keeps both
        c = shape[1]
        rng = np.random.default_rng(51)
        x = rng.normal(0.5, 2.0, size=shape).astype(dtype)
        gamma, beta = (Tensor(rng.normal(m, 0.3, size=c).astype(dtype), requires_grad=True)
                       for m in (1.0, 0.0))
        rm = rng.normal(size=c).astype(dtype)
        rv = rng.uniform(0.5, 2.0, size=c).astype(dtype)
        recorded = ad.batch_norm2d(Tensor(x, requires_grad=True), gamma, beta, rm, rv, False)
        with ad.no_grad():
            plain = ad.batch_norm2d(Tensor(x), gamma, beta, rm, rv, False)
        assert recorded.requires_grad and not plain.requires_grad
        assert plain.data.tobytes() == recorded.data.tobytes()


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

    def test_relu_propagates_nan(self):
        x = Tensor(np.array([np.nan, -1.0, -0.0, 0.0, 2.0]), requires_grad=True)
        out = ad.relu(x)
        npt.assert_array_equal(out.data, [np.nan, 0.0, 0.0, 0.0, 2.0])
        backward(out.sum())
        npt.assert_array_equal(x.grad, [1.0, 0.0, 0.0, 0.0, 1.0])

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


def special_values(dtype):
    """Signed zeros, infinities, subnormals, extremes and NaNs with payloads:
    quiet, signalling and negative ones, built from their bit patterns."""
    info = np.finfo(dtype)
    ints = np.dtype(f"u{info.bits // 8}")
    sign = 1 << (info.bits - 1)
    exponent = ((1 << info.nexp) - 1) << info.nmant
    quiet = 1 << (info.nmant - 1)
    nans = np.array([exponent | quiet, exponent | quiet | 0x1234, exponent | 1,
                     exponent | 0x2345, sign | exponent | quiet | 5, sign | exponent | 3],
                    dtype=ints).view(dtype)
    finite = [0.0, info.smallest_subnormal, info.tiny / 2, info.tiny, 1.0, info.max]
    signed = np.array(finite + [np.inf], dtype=dtype)
    return np.concatenate([signed, -signed, nans])


def relu_layouts(dtype):
    """Arrays of special values: contiguous runs of many lengths, and
    reversed, strided and transposed views."""
    rng = np.random.default_rng(70)
    values = special_values(dtype)
    for n in list(range(1, 70)) + [1000, 4099]:
        a = rng.choice(values, size=n)
        yield from (a, a[::-1], a[::3])
    a = rng.choice(values, size=(3, 5, 7, 9))
    yield from (a, a.transpose(0, 2, 3, 1), a[:, ::2, ::-1], a.transpose(3, 2, 1, 0))


class TestRelu:
    """``relu`` is ``np.maximum(a, 0)``, byte for byte the np.where it replaced."""

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_value_and_mask_equal_where(self, dtype):
        for a in relu_layouts(dtype):
            want, mask = relu_where(a)
            for records in (True, False):
                x = Tensor(np.zeros(1, dtype), requires_grad=True)
                x.data = a
                if records:
                    out = ad.relu(x)
                else:
                    with ad.no_grad():
                        out = ad.relu(x)
                assert out.data.tobytes() == want.tobytes(), (a.shape, a.strides)
                assert out.data.strides == want.strides, (a.shape, a.strides)
                assert out.requires_grad == records
            g = np.arange(1, a.size + 1, dtype=dtype).reshape(a.shape)
            x = Tensor(np.zeros(1, dtype), requires_grad=True)
            x.data = a
            ad.relu(x)._backward_fn(g)
            assert x.grad.tobytes() == (g * mask).tobytes()


class TestTranspose:
    """2-D transposes copy by tiles, byte for byte ``np.ascontiguousarray``."""

    @pytest.mark.parametrize("shape,dtype", [
        ((1000, 1024), np.float32), ((1024, 1000), np.float32), ((37, 4099), np.float32),
        ((1000, 1024), np.float64), ((300, 257), np.float64), ((129, 129), np.float32),
    ])
    def test_equals_contiguous_copy(self, shape, dtype):
        a = np.random.default_rng(71).normal(size=shape).astype(dtype)
        x = Tensor(a, requires_grad=True)
        out = ad.transpose(x, (1, 0))
        assert out.data.flags.c_contiguous and not np.shares_memory(out.data, a)
        assert out.data.tobytes() == transposed_copy(a, (1, 0)).tobytes()
        backward((out * Tensor(np.ones(out.shape, dtype))).sum())
        assert x.grad.shape == shape

    def test_other_layouts_copy_as_before(self):
        rng = np.random.default_rng(72)
        a = rng.normal(size=(6, 300, 200)).astype(np.float32)
        for axes in ((2, 0, 1), (0, 2, 1), (1, 0, 2)):
            out = ad.transpose(Tensor(a), axes).data
            assert out.flags.c_contiguous
            assert out.tobytes() == transposed_copy(a, axes).tobytes()
        # a transposed view of a 2-D array is copied as it was, too
        x = Tensor(np.zeros(1, np.float32))
        x.data = rng.normal(size=(300, 200)).astype(np.float32).T
        out = ad.transpose(x, (1, 0)).data
        assert out.flags.c_contiguous
        assert out.tobytes() == transposed_copy(x.data, (1, 0)).tobytes()


class TestPools:
    """The pools' strided-view kernels against the reductions they replace."""

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_avg_pool_equals_reshaped_mean(self, dtype):
        rng = np.random.default_rng(7)
        for n, c, h, w in itertools.product((1, 3), (1, 5), (2, 4, 14), (2, 6, 56)):
            x = rng.normal(size=(n, c, h, w)) * 10.0 ** rng.integers(-3, 4, size=(n, c, h, w))
            x = x.astype(dtype)
            want = x.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))
            got = ad.avg_pool2d_2x2(Tensor(x)).data
            assert got.dtype == dtype
            npt.assert_array_equal(got, want, err_msg=f"{(n, c, h, w)}")

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_avg_pool_backward_equals_repeated_quarter(self, dtype):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 3, 6, 4)).astype(dtype), requires_grad=True)
        g = rng.normal(size=(2, 3, 3, 2)).astype(dtype)
        backward((ad.avg_pool2d_2x2(x) * Tensor(g)).sum())
        assert x.grad.dtype == dtype
        npt.assert_array_equal(x.grad, np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) * 0.25)

    @pytest.mark.parametrize("kernel,stride", ((3, 2), (2, 2), (3, 1), (2, 3)))
    def test_max_pool_equals_argmax_reference(self, kernel, stride):
        # few distinct values, so most windows tie; signed zeros, -inf
        # entries, bottom windows that hold only -inf (clipped at 3/2), and
        # NaN windows
        rng = np.random.default_rng(kernel * 10 + stride)
        x = rng.choice(np.array([-np.inf, -1.0, -0.0, 0.0, 2.0]), size=(2, 3, 8, 8))
        x[1, 2, 5:, :] = -np.inf
        x[0, 1, 2:4, 2:4] = np.nan
        x = Tensor(x, requires_grad=True)
        # each window's pick, at its coordinates in the -inf padded input
        arg = pool_argmax(x.data, kernel, stride)
        ni, ci, oy, ox = np.indices(arg.shape)
        rows, cols = oy * stride + arg // kernel, ox * stride + arg % kernel
        hp, wp = ((size - 1) * stride + kernel for size in arg.shape[2:])
        xp = np.pad(x.data, ((0, 0), (0, 0), (0, hp - 8), (0, wp - 8)),
                    constant_values=-np.inf)
        want = xp[ni, ci, rows, cols]
        out = ad.max_pool2d(x, kernel, stride)
        assert np.isnan(want).any() and np.isneginf(want).any()
        assert out.data.tobytes() == want.tobytes()
        with ad.no_grad():
            assert ad.max_pool2d(x, kernel, stride).data.tobytes() == want.tobytes()
        g = rng.normal(size=want.shape)
        out._backward_fn(g)  # no loss over them: -inf and NaN outputs
        gin = np.zeros(xp.shape)
        np.add.at(gin, (ni, ci, rows, cols), g)
        npt.assert_array_equal(x.grad, gin[:, :, :8, :8])

    @pytest.mark.parametrize("h,w,size", [(9, 9, (3, 3)), (10, 9, (4, 3))])
    def test_max_pool_drops_a_last_window_past_the_edge(self, h, w, size):
        # ceil mode counts a window at index 9 of a 9-wide input; like PyTorch,
        # the pool drops it rather than emit a -inf output.  A 10-high input
        # keeps its window at row 9 (clipped to one row), so one side is padded
        # while the other stops short of its edge
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2, 3, h, w)), requires_grad=True)
        out = ad.max_pool2d(x, 2, 3)
        assert out.shape == (2, 3, *size) and np.isfinite(out.data).all()
        g = rng.normal(size=out.shape)
        want, gin = np.empty(out.shape), np.zeros(x.shape)
        for oy, ox in np.ndindex(*size):
            win = x.data[:, :, 3 * oy:3 * oy + 2, 3 * ox:3 * ox + 2]
            flat = win.reshape(2, 3, -1)
            want[:, :, oy, ox] = flat.max(axis=2)
            first = flat.argmax(axis=2)
            ni, ci = np.indices((2, 3))
            rows, cols = 3 * oy + first // win.shape[3], 3 * ox + first % win.shape[3]
            np.add.at(gin, (ni, ci, rows, cols), g[:, :, oy, ox])
        npt.assert_array_equal(out.data, want)
        out._backward_fn(g)
        assert x.grad.shape == x.shape
        npt.assert_array_equal(x.grad, gin)
        assert np.count_nonzero(x.grad) == g.size

    @pytest.mark.parametrize("shape,kernel,stride", [
        ((10, 128, 16, 16), 3, 2), ((2, 3, 9, 9), 2, 3), ((2, 3, 10, 9), 2, 3),
        ((2, 4, 11, 13), 3, 1), ((3, 5, 12, 12), 3, 2),
    ])
    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_max_pool_grad_equals_add_at(self, shape, kernel, stride, dtype):
        # the tap-by-tap backward against np.add.at over the windows, byte for
        # byte; half the inputs tie heavily, and g holds NaN, infinities and
        # signed zeros, which a share of g * mask would turn into NaN
        rng = np.random.default_rng(kernel * 100 + stride + shape[2])
        for ties in (False, True):
            if ties:
                data = rng.choice(np.array([-1.0, -0.0, 0.0, 2.0]), size=shape)
            else:
                data = rng.normal(size=shape)
            x = Tensor(data.astype(dtype), requires_grad=True)
            out = ad.max_pool2d(x, kernel, stride)
            ho, wo = out.shape[2:]
            arg = pool_argmax(x.data, kernel, stride)[:, :, :ho, :wo]
            g = rng.normal(size=out.shape).astype(dtype)
            g.reshape(-1)[:6] = [np.nan, np.inf, -np.inf, -0.0, 0.0, -np.nan]
            with np.errstate(invalid="ignore"):  # inf - inf where windows overlap
                out._backward_fn(g)
                want = max_pool_input_grad(shape, arg, g, kernel, stride)
            assert x.grad.shape == shape and x.grad.strides == want.strides
            assert x.grad.tobytes() == want.tobytes(), f"ties={ties}"

    def test_max_pool_kernel_below_one_raises(self):
        with pytest.raises(ContractError, match="kernel"):
            ad.max_pool2d(Tensor(np.zeros((1, 1, 4, 4))), 0, 1)


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

            def f(t):
                return (ad.signed_blocks(t, table, axes=(1, 3)) * proj).sum()
            inputs = [rand((2, 2, 3), 3)]
        else:
            idx = np.array([0, 2, 2, 1])

            def f(a):
                return (ad.take_rows(a, idx) * ad.take_rows(a, idx)).sum()
            inputs = [rand((3, 4), 5)]
        assert grad_check(f, inputs) < 1e-6


def test_signed_blocks_places_signed_copies():
    t = rand((2, 2, 5), 0)  # components on axis 0
    table = (((0, 1.0), (1, -1.0), (1, 1.0)), ((1, 1.0), (0, -1.0), (0, 1.0)))
    out = ad.signed_blocks(t, table, axes=(0, 2)).data
    assert out.shape == (2, 2, 3, 5)
    for r, row in enumerate(table):
        for c, (n, sign) in enumerate(row):
            npt.assert_array_equal(out[r, :, c], sign * t.data[n])


class TestQuaternionConv2dOp:
    """``conv2d`` under the Hamilton table: the quaternion convolution."""

    @pytest.mark.parametrize("k", [1, 3])
    def test_grad_check_at_batch_3_stride_2_padding_1(self, k):
        proj = rand((3, 12, (7 - k) // 2 + 1, (8 - k) // 2 + 1), 20).data

        def f(x, weight, bias):
            return (ad.conv2d(x, weight, bias, stride=2, padding=1, table=_EXPANSION)
                    * proj).sum()

        inputs = [rand((3, 8, 5, 6), 25), rand((3, 4, 2, k, k), 21), rand((12,), 22)]
        assert grad_check(f, inputs) < 1e-6

    def test_bias_is_per_real_output_channel(self):
        rng = np.random.default_rng(23)
        x, comps, b = (rng.normal(size=(2, 8, 5, 5)), rng.normal(size=(4, 3, 2, 3, 3)),
                       rng.normal(size=(12,)))
        got = ad.conv2d(Tensor(x), Tensor(np.moveaxis(comps, 0, 1)), Tensor(b),
                        stride=2, padding=1, table=_EXPANSION).data
        want = naive_conv2d(x, expand_quaternion_weight(comps), b, stride=2, padding=1)
        npt.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3])
    def test_grad_check_on_the_signed_columns(self, k):
        # batch 1 on a 2x2 input: N*Ho*Wo = 4 (k 1) or 1 (k 3) is below
        # q_out = 5, so the op signs the im2col columns and keeps the weight
        # itself as its parent instead of spreading it
        size = (2 + 2 - k) // 2 + 1
        proj = rand((1, 20, size, size), 26).data

        def f(x, weight, bias):
            return (ad.conv2d(x, weight, bias, stride=2, padding=1, table=_EXPANSION)
                    * proj).sum()

        inputs = [rand((1, 8, 2, 2), 27), rand((5, 4, 2, k, k), 28), rand((20,), 29)]
        out = ad.conv2d(*inputs, stride=2, padding=1, table=_EXPANSION)
        assert out._parents[1] is inputs[1]
        assert grad_check(f, inputs) < 1e-6

    def test_bias_on_the_signed_columns(self):
        # N*Ho*Wo = 2 < q_out = 3
        rng = np.random.default_rng(30)
        x, comps, b = (rng.normal(size=(2, 8, 2, 2)), rng.normal(size=(4, 3, 2, 3, 3)),
                       rng.normal(size=(12,)))
        weight = Tensor(np.moveaxis(comps, 0, 1), requires_grad=True)
        out = ad.conv2d(Tensor(x), weight, Tensor(b), stride=2, padding=1, table=_EXPANSION)
        assert out._parents[1] is weight
        want = naive_conv2d(x, expand_quaternion_weight(comps), b, stride=2, padding=1)
        npt.assert_allclose(out.data, want, rtol=1e-10, atol=1e-12)

    def test_4d_weight_under_a_two_row_table(self):
        # one component, so the rows only flip signs: channel 2q + 1 is the
        # negated channel 2q; N*Ho*Wo = 18 >= q_out = 3
        rng = np.random.default_rng(24)
        x, weight = rng.normal(size=(2, 2, 3, 3)), rng.normal(size=(3, 2, 1, 1))
        table = (((0, 1.0),), ((0, -1.0),))
        got = ad.conv2d(Tensor(x), Tensor(weight), table=table).data
        want = naive_conv2d(x, weight)
        npt.assert_allclose(got[:, 0::2], want, rtol=1e-12)
        npt.assert_array_equal(got[:, 1::2], -got[:, 0::2])

    def test_table_row_must_use_each_component_once(self):
        x, weight = rand((1, 8, 3, 3), 0), rand((1, 4, 2, 1, 1), 1)
        bad = _EXPANSION[:3] + (((0, 1.0), (0, 1.0), (1, 1.0), (3, 1.0)),)
        with pytest.raises(ContractError):
            ad.conv2d(x, weight, table=bad)
        with pytest.raises(ContractError):  # four components, one-cell table
            ad.conv2d(rand((1, 2, 3, 3), 0), weight)


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
