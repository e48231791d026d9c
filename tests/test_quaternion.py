import numpy as np
import numpy.testing as npt
import pytest

from qaxial.autodiff import Tensor, backward, conv2d, grad_check
from qaxial.errors import ConfigurationError, ContractError, ShapeError
from qaxial.nn import Parameter
from qaxial.quaternion import (
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
        for comp, value in zip(layer.components(), (1.0, 0.0, 0.0, 0.0)):
            comp.data[...] = value
        x = Tensor(np.random.default_rng(3).normal(size=(2, 4, 3, 3)).astype(np.float32))
        npt.assert_allclose(layer(x).data, x.data, atol=1e-6)

    def test_matches_structured_expansion_oracle(self):
        rng = np.random.default_rng(4)
        layer = QuaternionConv2d(8, 12, 3, stride=2, padding=1, rng=rng)
        comps = np.stack([c.data for c in layer.components()]).astype(np.float64)
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
        comps = np.stack([c.data for c in layer.components()])
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
        err = grad_check(lambda *_: (layer(x_fixed) * proj).sum(),
                         list(layer.components()))
        assert err < 1e-4

    def test_writing_over_a_parameter_raises(self):
        layer = QuaternionConv2d(8, 8, 3)
        with pytest.raises(ContractError, match="'w_r'"):
            layer.w_r = Tensor(layer.w_r.data, requires_grad=True)
        assert sorted(dict(layer.named_parameters())) == ["w_i", "w_j", "w_k", "w_r"]
        layer.w_r = Parameter(layer.w_r.data)  # a Parameter still replaces one
        assert sorted(dict(layer.named_parameters())) == ["w_i", "w_j", "w_k", "w_r"]

    def test_gradients_at_batch_3(self):
        proj = Tensor(np.random.default_rng(11).normal(size=(3, 8, 3, 3)))
        layer = QuaternionConv2d(4, 8, 3, stride=2, padding=1,
                                 rng=np.random.default_rng(12))
        x = Tensor(np.random.default_rng(13).normal(size=(3, 4, 5, 6)))
        err = grad_check(lambda *_: (layer(x) * proj).sum(),
                         [x] + list(layer.components()))
        assert err < 1e-4

    @pytest.mark.parametrize("k,stride,padding", [(1, 1, 0), (3, 2, 1), (3, 1, 1)])
    def test_matches_expanded_weight_conv_in_float64(self, k, stride, padding):
        rng = np.random.default_rng(17)
        layer = QuaternionConv2d(8, 12, k, stride, padding, rng=rng).to_dtype(np.float64)
        x = rng.normal(size=(3, 8, 5, 6))
        results = []
        for run in (layer, lambda t: conv2d(t, layer.expanded_weight(), None, stride, padding)):
            xt = Tensor(x, requires_grad=True)
            out = run(xt)
            backward((out * Tensor(np.cos(np.arange(out.size)).reshape(out.shape))).sum())
            results.append([out.data, xt.grad] + [c.grad for c in layer.components()])
            for c in layer.components():
                c.zero_grad()
        for got, want in zip(*results):
            npt.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_wrong_channel_count_raises(self):
        layer = QuaternionConv2d(8, 8, 1)
        with pytest.raises(ShapeError):
            layer(Tensor(np.zeros((1, 12, 3, 3), dtype=np.float32)))
        with pytest.raises(ConfigurationError):
            QuaternionConv2d(6, 8, 1)


class TestQuaternionBank:
    def test_identity_weights(self):
        bank = QuaternionBank1x1(8)
        for comp, value in zip(bank.components(), (1.0, 0.0, 0.0, 0.0)):
            comp.data[...] = value
        x = Tensor(np.random.default_rng(11).normal(size=(2, 8, 3, 3)).astype(np.float32))
        npt.assert_allclose(bank(x).data, x.data, atol=1e-7)

    def test_sixty_four_channels_means_sixteen_modules(self):
        bank = QuaternionBank1x1(64)
        assert bank.groups == 16
        assert bank.param_count() == 64

    def test_matches_per_pixel_matrix_oracle(self):
        rng = np.random.default_rng(12)
        bank = QuaternionBank1x1(8, rng=rng)
        x = rng.normal(size=(3, 8, 2, 2))
        comps = np.stack([c.data for c in bank.components()]).astype(np.float64)
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
        err = grad_check(lambda *_: (bank(x_fixed) * proj).sum(),
                         list(bank.components()) + [x_fixed])
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
        layer = QuaternionConv2d(8, 12, 3, padding=1)
        out = layer(Tensor(np.ones((2, 8, 4, 4), dtype=np.float32)))
        assert _tape_ops(out) == ["quaternion_conv2d"]
        expanded = 16 * layer.q_out * layer.q_in * 3 * 3
        cells = [cell.cell_contents for cell in out._backward_fn.__closure__]
        arrays = [out.data] + [getattr(v, "data", v) for v in cells]
        sizes = {a.size for a in arrays if isinstance(a, np.ndarray)}
        assert expanded not in sizes


class TestQuaternionInit:
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
