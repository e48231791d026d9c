import hashlib

import numpy as np
import numpy.testing as npt
import pytest

from qaxial.autodiff import Tensor, backward, conv2d, grad_check
from qaxial.errors import ConfigurationError, ContractError, ShapeError
from qaxial.nn import Conv2d, Parameter
from qaxial.quaternion import (
    _EXPANSION,
    IDENTITY,
    Quaternion,
    QuaternionBank1x1,
    QuaternionConv2d,
    expand_to_quaternion_input,
    hamilton_matrix,
    hamilton_product,
    quaternion_init,
)

from oracles import (
    expand_quaternion_weight,
    naive_conv2d,
    naive_quaternion_bank,
    unit_table_matrix,
    unit_table_product,
)

I, J, K = Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1)


def random_quaternion(rng):
    return Quaternion(*rng.normal(size=4))


class TestHamiltonAlgebra:
    def test_identity_both_sides(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            q = random_quaternion(rng)
            assert hamilton_product(IDENTITY, q) == q
            assert hamilton_product(q, IDENTITY) == q

    def test_unit_products(self):
        assert hamilton_product(I, J) == K
        assert hamilton_product(J, I) == Quaternion(0, 0, 0, -1)
        assert hamilton_product(I, I) == Quaternion(-1, 0, 0, 0)

    def test_non_commutative(self):
        assert hamilton_product(I, J) != hamilton_product(J, I)

    def test_matches_matrix_oracle_bulk(self):
        """10k random pairs against the unit-table matrix oracle at 1e-12."""
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            p, q = rng.normal(size=4), rng.normal(size=4)
            got = hamilton_product(Quaternion(*p), Quaternion(*q)).as_array()
            npt.assert_allclose(got, unit_table_matrix(p) @ q, atol=1e-12)
            npt.assert_allclose(got, unit_table_product(p, q), atol=1e-12)


class TestHamiltonMatrix:
    def test_identity_quaternion(self):
        npt.assert_array_equal(hamilton_matrix(IDENTITY), np.eye(4))

    def test_i_is_signed_permutation_squaring_to_minus_identity(self):
        m = hamilton_matrix(I)
        npt.assert_array_equal(np.abs(m).sum(axis=0), np.ones(4))
        npt.assert_array_equal(np.abs(m).sum(axis=1), np.ones(4))
        npt.assert_array_equal(m @ m, -np.eye(4))

    def test_matvec_equals_product(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            w, q = random_quaternion(rng), random_quaternion(rng)
            npt.assert_allclose(hamilton_matrix(w) @ q.as_array(),
                                hamilton_product(w, q).as_array(), atol=1e-12)

    def test_four_independent_magnitudes(self):
        w = Quaternion(0.3, -1.2, 0.7, 2.5)
        values = np.unique(np.abs(hamilton_matrix(w)))
        assert set(np.round(values, 12)) == {0.3, 1.2, 0.7, 2.5}


class TestQuaternionConv2d:
    def test_identity_weights_pass_input_through(self):
        layer = QuaternionConv2d(4, 4, 1)
        layer.weight.data[...] = 0.0
        layer.weight.data[:, 0] = 1.0
        x = Tensor(np.random.default_rng(3).normal(size=(2, 4, 3, 3)).astype(np.float32))
        npt.assert_allclose(layer(x).data, x.data, atol=1e-6)

    def test_matches_structured_expansion_oracle(self):
        rng = np.random.default_rng(4)
        layer = QuaternionConv2d(8, 12, 3, stride=2, padding=1, rng=rng)
        comps = np.moveaxis(layer.weight.data, 1, 0).astype(np.float64)
        x = rng.normal(size=(2, 8, 6, 6))
        got = layer(Tensor(x.astype(np.float32))).data
        want = naive_conv2d(x, expand_quaternion_weight(comps), stride=2, padding=1)
        npt.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    def test_parameter_count_formula(self):
        layer = QuaternionConv2d(128, 512, 1)
        assert layer.param_count() == 4 * (512 // 4) * (128 // 4) == 16384
        # an unconstrained real 1x1 conv would need 4x as many
        assert 128 * 512 == 4 * layer.param_count()

    def test_expanded_weight_block_structure(self):
        rng = np.random.default_rng(5)
        layer = QuaternionConv2d(8, 8, 3, rng=rng)
        w = layer.expanded_weight().data
        comps = np.moveaxis(layer.weight.data, 1, 0)
        for o in range(2):
            for i in range(2):
                for ky in range(3):
                    for kx in range(3):
                        block = w[4 * o:4 * o + 4, 4 * i:4 * i + 4, ky, kx]
                        mags = np.unique(np.abs(block).round(7))
                        assert len(mags) <= 4
                        npt.assert_allclose(
                            block, unit_table_matrix(comps[:, o, i, ky, kx]), atol=1e-7)

    def test_shared_weight_gradient_sums_over_placements(self):
        proj = Tensor(np.random.default_rng(8).normal(size=(2, 8, 4, 4)))
        x_fixed = Tensor(np.random.default_rng(9).normal(size=(2, 8, 4, 4)))
        layer = QuaternionConv2d(8, 8, 3, padding=1, rng=np.random.default_rng(10))
        err = grad_check(lambda *_: (layer(x_fixed) * proj).sum(), [layer.weight])
        assert err < 1e-4

    def test_writing_over_a_parameter_raises(self):
        layer = QuaternionConv2d(8, 8, 3)
        with pytest.raises(ContractError, match="'weight'"):
            layer.weight = Tensor(layer.weight.data, requires_grad=True)
        assert [name for name, _ in layer.named_parameters()] == ["weight"]
        layer.weight = Parameter(layer.weight.data)  # a Parameter still replaces it
        assert [name for name, _ in layer.named_parameters()] == ["weight"]

    def test_one_weight_holds_the_components_on_axis_1(self):
        layer = QuaternionConv2d(8, 12, 3, rng=np.random.default_rng(21))
        assert [name for name, _ in layer.named_parameters()] == ["weight"]
        assert layer.weight.shape == (3, 4, 2, 3, 3)
        comps = quaternion_init(2, 3, 3, 3, np.random.default_rng(21))
        npt.assert_array_equal(layer.weight.data,
                               np.stack(list(comps), axis=1).astype(np.float32))

    def test_gradients_at_batch_3(self):
        proj = Tensor(np.random.default_rng(11).normal(size=(3, 8, 3, 3)))
        layer = QuaternionConv2d(4, 8, 3, stride=2, padding=1,
                                 rng=np.random.default_rng(12))
        x = Tensor(np.random.default_rng(13).normal(size=(3, 4, 5, 6)))
        err = grad_check(lambda *_: (layer(x) * proj).sum(), [x, layer.weight])
        assert err < 1e-4

    @pytest.mark.parametrize("k,stride,padding", [(1, 1, 0), (3, 2, 1), (3, 1, 1)])
    def test_matches_expanded_weight_conv_in_float64(self, k, stride, padding):
        rng = np.random.default_rng(17)
        layer = QuaternionConv2d(8, 12, k, stride, padding, rng=rng).to_dtype(np.float64)
        x = rng.normal(size=(3, 8, 5, 6))
        results = []
        # conv2d under the table spreads the weight itself at these shapes
        # (N*Ho*Wo >= q_out); TestConvSides also runs the signed columns
        for run in (lambda t: conv2d(t, layer.weight, None, stride, padding, _EXPANSION),
                    lambda t: conv2d(t, layer.expanded_weight(), None, stride, padding)):
            xt = Tensor(x, requires_grad=True)
            out = run(xt)
            backward((out * Tensor(np.cos(np.arange(out.size)).reshape(out.shape))).sum())
            results.append([out.data, xt.grad, layer.weight.grad])
            layer.weight.zero_grad()
        for got, want in zip(*results):
            npt.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    # sha256 of the output and the input and weight gradients in float32.
    # The first two have N*Ho*Wo >= q_out = 3 and run on the expanded weight;
    # the last (N*Ho*Wo = 2) runs on the signed columns, and its digest was
    # taken when every quaternion conv did
    @pytest.mark.parametrize("n,k,stride,padding,digest", [
        (1, 1, 1, 0, "cb26f7e23836c6e7b4e08f7450ece5f722ad03c8257b8f3bb04cc4d361995e99"),
        (3, 3, 2, 1, "3155c844255524554c37ff32e9192befe162b592edd9a5fa4f35faedc800aabe"),
        (1, 3, 4, 0, "27db65630d5720b7dfd99456f80bfdad169936135e33af750a53906932c348f9"),
    ])
    def test_forward_and_backward_are_pinned(self, n, k, stride, padding, digest):
        layer = QuaternionConv2d(8, 12, k, stride, padding, rng=np.random.default_rng(31))
        x = Tensor(np.random.default_rng(32).normal(size=(n, 8, 7, 6)).astype(np.float32),
                   requires_grad=True)
        out = layer(x)
        proj = np.cos(np.arange(out.size)).reshape(out.shape).astype(np.float32)
        backward((out * Tensor(proj)).sum())
        h = hashlib.sha256()
        for a in (out.data, x.grad, layer.weight.grad):
            h.update(a.tobytes())
        assert h.hexdigest() == digest

    def test_wrong_channel_count_raises(self):
        layer = QuaternionConv2d(8, 8, 1)
        with pytest.raises(ShapeError):
            layer(Tensor(np.zeros((1, 12, 3, 3), dtype=np.float32)))
        with pytest.raises(ConfigurationError):
            QuaternionConv2d(6, 8, 1)


class TestQuaternionBank:
    def test_identity_weights(self):
        bank = QuaternionBank1x1(8)
        bank.weight.data[...] = 0.0
        bank.weight.data[:, 0] = 1.0
        x = Tensor(np.random.default_rng(11).normal(size=(2, 8, 3, 3)).astype(np.float32))
        npt.assert_allclose(bank(x).data, x.data, atol=1e-7)

    def test_sixty_four_channels_means_sixteen_modules(self):
        bank = QuaternionBank1x1(64)
        assert bank.groups == 16
        assert bank.param_count() == 64
        assert [name for name, _ in bank.named_parameters()] == ["weight"]
        assert bank.weight.shape == (16, 4)

    def test_matches_per_pixel_matrix_oracle(self):
        rng = np.random.default_rng(12)
        bank = QuaternionBank1x1(8, rng=rng)
        x = rng.normal(size=(3, 8, 2, 2))
        comps = bank.weight.data.T.astype(np.float64)
        got = bank(Tensor(x.astype(np.float32))).data
        npt.assert_allclose(got, naive_quaternion_bank(x, comps), rtol=1e-5, atol=1e-6)

    def test_group_isolation_is_bitwise(self):
        rng = np.random.default_rng(13)
        bank = QuaternionBank1x1(12, rng=rng)
        x = rng.normal(size=(1, 12, 4, 4)).astype(np.float32)
        full = bank(Tensor(x)).data
        zeroed = x.copy()
        zeroed[:, 4:8] = 0.0
        partial = bank(Tensor(zeroed)).data
        assert (partial[:, 4:8] == 0.0).all()
        npt.assert_array_equal(partial[:, :4], full[:, :4])
        npt.assert_array_equal(partial[:, 8:], full[:, 8:])

    def test_channel_count_validation(self):
        with pytest.raises(ConfigurationError):
            QuaternionBank1x1(10)
        with pytest.raises(ShapeError):
            QuaternionBank1x1(8)(Tensor(np.zeros((1, 12, 2, 2), dtype=np.float32)))

    def test_gradients(self):
        x_fixed = Tensor(np.random.default_rng(14).normal(size=(2, 8, 3, 3)))
        proj = Tensor(np.random.default_rng(15).normal(size=(2, 8, 3, 3)))
        bank = QuaternionBank1x1(8, rng=np.random.default_rng(16))
        err = grad_check(lambda *_: (bank(x_fixed) * proj).sum(), [bank.weight, x_fixed])
        assert err < 1e-4


def _tape_ops(out):
    """Names of the op nodes recorded on the tape below ``out``."""
    ops, seen, todo = [], set(), [out]
    while todo:
        node = todo.pop()
        if id(node) in seen or node._backward_fn is None:
            continue
        seen.add(id(node))
        ops.append(node._backward_fn.__qualname__.split(".")[0])
        todo.extend(node._parents)
    return ops


def _closure_sizes(out):
    """Sizes of ``out`` and of the arrays its backward closure holds."""
    cells = [cell.cell_contents for cell in out._backward_fn.__closure__]
    arrays = [out.data] + [getattr(v, "data", v) for v in cells]
    return {a.size for a in arrays if isinstance(a, np.ndarray)}


class TestExpansionTape:
    def test_conv_weight_is_one_expansion_and_a_reshape(self):
        ops = _tape_ops(QuaternionConv2d(8, 12, 3).expanded_weight())
        assert len(ops) <= 2
        assert not {"neg", "stack"} & set(ops)

    def test_bank_matrices_are_one_op(self):
        ops = _tape_ops(QuaternionBank1x1(8).group_matrices())
        assert len(ops) <= 1
        assert not {"neg", "stack"} & set(ops)

    def test_conv_forward_is_one_op_and_builds_no_real_weight(self):
        # N*Ho*Wo = 2 < q_out = 3: the signed columns are the smaller 4x copy
        layer = QuaternionConv2d(8, 12, 3, padding=1)
        out = layer(Tensor(np.ones((1, 8, 1, 2), dtype=np.float32)))
        assert _tape_ops(out) == ["conv2d"]  # the real conv's op, under the Hamilton table
        expanded = 16 * layer.q_out * layer.q_in * 3 * 3
        assert expanded not in _closure_sizes(out)

    def test_conv_forward_at_threshold_expands_the_weight_not_the_columns(self):
        # N*Ho*Wo >= q_out = 3: the spread weight is the smaller 4x copy.  At
        # N*Ho*Wo = 3 the two copies are the same size, and the weight is
        # spread; conv2d takes the spread as its parent, with no reshape node
        layer = QuaternionConv2d(8, 12, 3, padding=1)
        at = layer(Tensor(np.ones((1, 8, 1, 3), dtype=np.float32)))
        assert _tape_ops(at) == ["conv2d", "signed_blocks"]
        above = layer(Tensor(np.ones((2, 8, 4, 4), dtype=np.float32)))
        assert _tape_ops(above) == ["conv2d", "signed_blocks"]
        signed_columns = 4 * layer.in_channels * 3 * 3 * 2 * 4 * 4
        assert signed_columns not in _closure_sizes(above)


class TestConvSides:
    """``conv2d`` spreads the weight when N*Ho*Wo >= q_out and signs the im2col
    columns below it; the layer is a ``Conv2d`` that only passes its table."""

    # (n, h, w, k, stride, padding) against q_out = 6: N*Ho*Wo = 4, 5 below,
    # 6 at (batch 3, and a 1x1 kernel), 12 and 24 above
    SHAPES = [(1, 3, 3, 3, 2, 1), (1, 1, 5, 3, 1, 1), (3, 1, 2, 3, 1, 1),
              (1, 1, 6, 1, 1, 0), (3, 3, 4, 3, 2, 1), (2, 5, 6, 3, 1, 0)]

    @staticmethod
    def sides(layer, x, proj):
        """Output, input gradient and weight gradient of ``(conv(x) * proj).sum()``
        for the layer, the real conv on ``expanded_weight()`` and the signed
        columns; the last gets zero output quaternions until q_out > N*Ho*Wo."""
        n, q_out, k = x.shape[0], layer.q_out, layer.kernel_size
        conv = dict(stride=layer.stride, padding=layer.padding)
        q_pad = max(q_out, n * proj.shape[2] * proj.shape[3] + 1)
        padded = Tensor(np.zeros((q_pad, 4, layer.q_in, k, k), dtype=x.dtype),
                        requires_grad=True)
        padded.data[:q_out] = layer.weight.data
        proj_pad = np.zeros((n, 4 * q_pad, *proj.shape[2:]), dtype=x.dtype)
        proj_pad[:, :4 * q_out] = proj
        runs = {
            "layer": (layer, proj, layer.weight),
            "expanded": (lambda t: conv2d(t, layer.expanded_weight(), **conv), proj,
                         layer.weight),
            "columns": (lambda t: conv2d(t, padded, table=_EXPANSION, **conv), proj_pad,
                        padded),
        }
        results = {}
        for name, (run, p, weight) in runs.items():
            xt = Tensor(x, requires_grad=True)
            out = run(xt)
            backward((out * Tensor(p)).sum())
            results[name] = [out.data[:, :4 * q_out].tobytes(), xt.grad.tobytes(),
                             weight.grad[:q_out].tobytes()]
            weight.zero_grad()
        return results

    @staticmethod
    def layer_and_input(shape, dtype, draw):
        n, h, w, k, stride, padding = shape
        layer = QuaternionConv2d(8, 24, k, stride, padding, rng=np.random.default_rng(41))
        layer.to_dtype(dtype)
        layer.weight.data[...] = draw(layer.weight.shape)
        x = draw((n, 8, h, w)).astype(dtype)
        ho, wo = (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1
        return layer, x, draw((n, 24, ho, wo)).astype(dtype)

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_layer_runs_the_side_the_threshold_picks(self, shape, dtype):
        # at and above the threshold both run one GEMM on the same bytes
        rng = np.random.default_rng(42)
        layer, x, proj = self.layer_and_input(shape, dtype, lambda s: rng.normal(size=s))
        results = self.sides(layer, x, proj)
        if shape[0] * proj.shape[2] * proj.shape[3] >= layer.q_out:
            assert results["layer"] == results["expanded"]
        else:
            assert results["layer"] == results["columns"]

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_all_sides_agree_on_exact_data(self, shape, dtype):
        # small integers add up exactly in any order, so the bits check where
        # each side puts every product and sign, not how it rounds
        rng = np.random.default_rng(43)
        layer, x, proj = self.layer_and_input(
            shape, dtype, lambda s: rng.integers(-2, 3, size=s).astype(dtype))
        results = self.sides(layer, x, proj)
        assert results["layer"] == results["expanded"] == results["columns"]

    def test_is_a_conv2d_with_its_own_table(self):
        layer = QuaternionConv2d(8, 12, 3)
        assert isinstance(layer, Conv2d)
        assert layer.table is _EXPANSION
        assert "forward" not in vars(QuaternionConv2d)


class TestQuaternionInit:
    # sha256 of the float64 draws at seed 11; pins the RNG draws, their order
    # and every rounding step of the polar construction
    @pytest.mark.parametrize("shape,digest", [
        ((1, 1, 1, 1), "87004664f827ba06e7c9f6fee16493bbe8198083ef106f45c3300a075de6ff21"),
        ((3, 2, 3, 3), "7bb750c468bccbf065e136de33c451c661bafc78d4aedb70bb49402eca112c3b"),
        ((5, 4, 1, 1), "536e9bb10335f71547e0ee1a6bae4cf33bd7b4b3c8f475c1e4b976f98b926414"),
    ])
    def test_draws_are_pinned(self, shape, digest):
        q_in, q_out, kh, kw = shape
        comps = quaternion_init(q_in, q_out, kh, kw, seed=11)
        assert comps.shape == (4, q_out, q_in, kh, kw) and comps.dtype == np.float64
        assert hashlib.sha256(comps.tobytes()).hexdigest() == digest

    def test_deterministic_under_seed(self):
        a = quaternion_init(16, 16, 3, 3, seed=42)
        b = quaternion_init(16, 16, 3, 3, seed=42)
        npt.assert_array_equal(a, b)
        c = quaternion_init(16, 16, 3, 3, seed=43)
        assert not np.array_equal(a, c)

    def test_expanded_variance_matches_glorot_target(self):
        comps = quaternion_init(16, 16, 1, 1, seed=0)
        # draw many layers' worth to get a tight Monte-Carlo estimate
        comps = np.concatenate(
            [quaternion_init(16, 16, 1, 1, seed=s) for s in range(40)], axis=1)
        expanded = expand_quaternion_weight(comps)
        fan_in = fan_out = 4 * 16
        target = 2.0 / (fan_in + fan_out)
        assert abs(expanded.var() - target) < 0.1 * target

    def test_expanded_mean_near_zero(self):
        comps = np.concatenate(
            [quaternion_init(16, 16, 1, 1, seed=s) for s in range(40)], axis=1)
        expanded = expand_quaternion_weight(comps)
        stderr = expanded.std() / np.sqrt(expanded.size)
        assert abs(expanded.mean()) < 3 * stderr


class TestExpandToQuaternionInput:
    def test_real_part_zero_and_rgb_preserved(self):
        rng = np.random.default_rng(17)
        rgb = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
        out = expand_to_quaternion_input(Tensor(rgb))
        assert out.shape == (2, 4, 5, 5)
        assert (out.data[:, 0] == 0).all()
        npt.assert_array_equal(out.data[:, 1:], rgb)

    def test_shape_32(self):
        out = expand_to_quaternion_input(Tensor(np.zeros((2, 3, 32, 32), dtype=np.float32)))
        assert out.shape == (2, 4, 32, 32)

    def test_wrong_channels_raise(self):
        with pytest.raises(ShapeError):
            expand_to_quaternion_input(Tensor(np.zeros((1, 4, 3, 3), dtype=np.float32)))

    def test_gradient_flows_to_rgb(self):
        rgb = Tensor(np.random.default_rng(18).normal(size=(1, 3, 2, 2)), requires_grad=True)
        out = expand_to_quaternion_input(rgb)
        backward((out * out).sum())
        npt.assert_allclose(rgb.grad, 2 * rgb.data, rtol=1e-12)
